"""Append-only hash-chained ledger with named streams, in data format 3.

The record format, its field check and chain verification are in
chain.py, which imports nothing of the engine.

Open runs chain.py's pass over the file's bytes, CHUNK_BYTES at a time,
and also checks seq continuity and the genesis rule.  It keeps no text:
per record its offset, its item digest and the seq before it on its
stream; per stream, in the order of first items, its creator and its
latest seq.  These packed columns are the whole index, as a checkpoint
holds it: a Stream is a snapshot with its seqs walked back from the
latest.  A StreamItem is built on every read and not kept, from the
record read back at its offset, which must pass the field check again and
re-derive the digest open kept or the append wrote, so a record that
changed on disk since fails that read.  An append links to the digest
kept and, after the first append since open, to the kept timestamp of the
last record, so it reads nothing.  Chain verification re-derives every
digest and link.

IndexedFile keeps what ledger.db shares with the store's policy.db: the
handles, the checkpoint beside the file, when one is due, and appends.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import os
import re
import secrets
from array import array
from binascii import unhexlify
from itertools import islice
from operator import lt
from pathlib import Path
from typing import NamedTuple

from .chain import (
    _KEY,
    _PAYLOAD,
    _ROOT,
    _STREAM_NAME,
    CHUNK_BYTES,
    DIGEST_BYTES,
    ROOT_STREAM,
    ZERO_DIGEST,
    ChainReport,
    LedgerError,
    _genesis_rule,
    _item_digest,
    _match_line,
    _parse_ts,
    _records,
    _verify_digests,
)
from .chain import verify_file  # noqa: F401  perfbench traces ledger.verify_file
from .config import private


class InvalidStreamName(LedgerError):
    pass


class DuplicateStream(LedgerError):
    pass


class UnknownStream(LedgerError):
    pass


class InvalidKey(LedgerError):
    pass


class EmptyStream(LedgerError):
    pass


class RootPublishForbidden(LedgerError):
    """The root stream carries no transaction items."""


# ---------------------------------------------------------------------------
# Naming, keys, timestamps
# ---------------------------------------------------------------------------

_STREAM_NAME_RE = re.compile(_STREAM_NAME)
_KEY_RE = re.compile(_KEY)
_PAYLOAD_RE = re.compile(_PAYLOAD.encode("ascii"))
LINEAGE_STREAM = "stream-{}-{}-{}"  # formatted with provider, attribute, accessor ids


def stream_name_for(provider_id: int, attribute_id: int, accessor_id: int) -> str:
    """Canonical stream name for one (provider, attribute, accessor) lineage."""
    for value in (provider_id, attribute_id, accessor_id):
        if not isinstance(value, int) or value < 1:
            raise InvalidStreamName("lineage ids must be positive integers")
    return LINEAGE_STREAM.format(provider_id, attribute_id, accessor_id)


def _check_entry(key: str, payload: bytes):
    """The rules a new item's key and payload must meet."""
    if not (isinstance(key, str) and _KEY_RE.fullmatch(key)):
        raise InvalidKey(
            "keys are at most 256 printable ASCII characters with no "
            "whitespace or quotes"
        )
    if not isinstance(payload, bytes):
        raise LedgerError("payload must be bytes")
    if not _PAYLOAD_RE.fullmatch(payload):
        raise LedgerError("payload must be printable ASCII with no whitespace")


def system_clock() -> dt.datetime:
    return dt.datetime.now(dt.timezone.utc)


# ---------------------------------------------------------------------------
# Items and streams
# ---------------------------------------------------------------------------


class StreamItem(NamedTuple):
    seq: int
    stream: str
    key: str
    publisher: str
    timestamp: dt.datetime  # UTC, millisecond precision
    payload: bytes
    prev_digest: bytes
    item_digest: bytes


class Stream(NamedTuple):
    """A stream as the index held it when asked."""

    name: str
    created_by: str
    seqs: list[int]  # its items, ascending; none for root

    @property
    def item_count(self) -> int:
        return len(self.seqs)


def _build_item(match: re.Match) -> StreamItem:
    """The item of a matched record; raises ValueError on a date that is
    not on the calendar."""
    seq, stream, key, publisher, ts_text, payload, prev, digest = match.groups()
    return StreamItem(
        seq=int(seq),
        stream=stream,
        key=key,
        publisher=publisher,
        timestamp=_parse_ts(ts_text),
        payload=payload.encode("ascii"),
        prev_digest=bytes.fromhex(prev),
        item_digest=bytes.fromhex(digest),
    )


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------


def append_line(handle, line: str, newline_first: bool = False) -> bytes:
    """Append a line and its newline through an unbuffered binary handle,
    first a newline if newline_first (the file's last line lacks one);
    returns the bytes written.

    A short write is carried on.  If a write fails, what the line's
    earlier writes put in the file is cut off again, so nothing of it
    stays for the next append to run into, and the handle is closed: the
    next append opens the file afresh.
    """
    data = b"\n" * newline_first + line.encode("utf-8") + b"\n"
    written = 0
    try:
        while written < len(data):
            written += handle.write(data[written:])
    except BaseException:
        try:
            if written:
                os.ftruncate(handle.fileno(), os.fstat(handle.fileno()).st_size - written)
        finally:
            handle.close()
        raise
    return data


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

# The version of open's checks.  A checkpoint names the version it was
# written under, and open ignores one of any other, so a change to what
# open accepts or to what a checkpoint holds must raise it.
CHECKER_VERSION = 1
CHECKPOINT_SUFFIX = ".checkpoint"
_CHECKPOINT_HEAD = b"privledger checkpoint\n" + CHECKER_VERSION.to_bytes(4, "big")
# Close writes a new checkpoint when open met a tail of at least this many
# bytes beyond the checkpoint's prefix.
CHECKPOINT_TAIL_BYTES = 256 * 1024


def checkpoint_path(path: Path) -> Path:
    """Where the checkpoint of the file at path is."""
    return path.with_name(path.name + CHECKPOINT_SUFFIX)


def load_checkpoint(path: Path, fh):
    """(hasher, parts) of the checkpoint of the file at path, open as fh
    at its start, when the checkpoint is whole, of this checker version,
    and its prefix still begins the file and ends after a newline: hasher
    is a SHA-256 fed that prefix, which it reads CHUNK_BYTES at a time,
    leaving fh at its end.  None otherwise, with fh anywhere."""
    try:
        with open(checkpoint_path(path), "rb") as ck:
            data = ck.read()
    except OSError:
        return None
    body = memoryview(data)[:-DIGEST_BYTES]
    if not data.startswith(_CHECKPOINT_HEAD) or hashlib.sha256(body).digest() != data[-DIGEST_BYTES:]:
        return None
    parts = []
    at = len(_CHECKPOINT_HEAD)
    while at < len(body):
        size = int.from_bytes(body[at : at + 8], "big")
        parts.append(body[at + 8 : at + 8 + size])
        at += 8 + size
    if at != len(body) or len(parts) < 2:
        return None
    left = int.from_bytes(parts[0], "big")
    hasher = hashlib.sha256()
    last = b"\n"
    while left > 0:
        chunk = fh.read(min(CHUNK_BYTES, left))
        if not chunk:
            return None
        hasher.update(chunk)
        left -= len(chunk)
        last = chunk[-1:]
    if last != b"\n" or hasher.digest() != parts[1]:
        return None
    return hasher, parts[2:]


class IndexedFile:
    """One append-only line file that its owner indexes at open and
    checkpoints at close: ledger.db for Ledger, policy.db for Store.

    The owner keeps its index and runs the pass that builds it; this keeps
    the rest.  open() takes the checkpoint beside the file (CHECKPOINT_SUFFIX)
    where it is whole, of this CHECKER_VERSION, its prefix unchanged and
    ending after a newline, and the owner's take(parts) accepts its parts
    (the index as it stood at the prefix's end); the owner's pass then runs
    over the tail past the prefix only.  Else the pass runs over the whole
    file, as if there were no checkpoint.  save() writes a new checkpoint,
    the prefix's length and SHA-256 and then the owner's parts, only when
    this process appended, ran the full pass or met a tail of at least
    CHECKPOINT_TAIL_BYTES, and the file ends in a newline.  The first
    append to a file whose last line lacks its newline writes it first.

    The read-only handle is held from open() or create() and the unbuffered
    append handle from the first append (or from create()), both until
    close(); an append that fails closes its handle, and the next opens the
    file afresh.  Once close() ran, fileno() and append() raise ValueError
    naming the file, as io does for a closed file.  A file it creates gets
    mode 0600.
    """

    def __init__(self, path: Path):
        self.path = path
        self.reader = self._out = None
        self.closed = False
        self.hasher = hashlib.sha256()  # fed the file's first `size` bytes
        self.size = 0
        self._due = False
        self._unterminated = False  # the file's last line lacks its newline

    def open(self, take, index):
        """Open the file and index it: take(parts) takes the checkpoint's
        index, with the reader at its prefix's end, and says whether its
        values are in range; index() then runs the owner's pass from the
        reader's position to the end of the file, feeding hasher."""
        self.reader = open(self.path, "rb")
        found = load_checkpoint(self.path, self.reader)
        if found is not None and take(found[1]):
            self.hasher = found[0]
        else:
            self.reader.seek(0)
            self._due = True
        start = self.reader.tell()
        index()
        self.size = end = self.reader.tell()
        self._due |= end - start >= CHECKPOINT_TAIL_BYTES
        self._unterminated = end > 0 and os.pread(self.reader.fileno(), 1, end - 1) != b"\n"

    def create(self):
        """Create the file, or take it empty, with both handles open."""
        self._out = open(self.path, "ab", buffering=0, opener=private)
        self.reader = open(self.path, "rb")

    def check_open(self, path: Path | None = None):
        """Raise ValueError once close() ran, as io does for a closed file,
        naming path, by default this file."""
        if self.closed:
            raise ValueError(f"I/O operation on closed file: {path or self.path}")

    def fileno(self) -> int:
        """The read-only handle's descriptor, to read records by offset."""
        self.check_open()
        return self.reader.fileno()

    def append(self, line: str) -> tuple[int, int]:
        """Append a line; returns its offset and its length in bytes without
        the newline."""
        self.check_open()
        if self._out is None or self._out.closed:
            self._out = open(self.path, "ab", buffering=0, opener=private)
        newline = self._unterminated
        data = append_line(self._out, line, newline)
        self._unterminated = False
        self._due = True
        self.hasher.update(data)
        offset = self.size + newline
        self.size += len(data)
        return offset, len(data) - newline - 1

    def save(self, parts):
        """Write the checkpoint of all of the file this indexed or wrote,
        with the parts that parts() returns, if one is due and the file
        ends in a newline.  It goes to a temporary file beside it, then is
        renamed over it; a write that fails leaves no temporary file and
        raises nothing."""
        if not self._due or self._unterminated:
            return
        chunks = [_CHECKPOINT_HEAD]
        for part in (self.size.to_bytes(8, "big"), self.hasher.digest(), *parts()):
            chunks += (len(part).to_bytes(8, "big"), part)
        body = b"".join(chunks)
        try:
            replace_file(checkpoint_path(self.path), (body, hashlib.sha256(body).digest()))
        except OSError:
            pass

    def close(self):
        for handle in (self._out, self.reader):
            if handle is not None:
                handle.close()
        self._out = self.reader = None
        self.closed = True


def replace_file(target: Path, chunks):
    """Write the chunks of bytes to a temporary file beside target, then
    rename it over target, so that no reader sees a half-written file.  The
    new file has mode 0600.  A write that fails leaves no temporary file."""
    temp = target.with_name(f"{target.name}.{secrets.token_hex(8)}")
    fh = open(temp, "xb", opener=private)
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(temp, target)
    except BaseException:
        if os.path.exists(temp):
            os.unlink(temp)
        raise


def int_array(data) -> array:
    """The 64-bit integers a checkpoint part holds."""
    values = array("q")
    values.frombytes(data)
    return values


class Ledger:
    """Single-writer stream ledger over one append-only file."""

    def __init__(self, path, clock=None, publisher: str | None = None, create: bool = False):
        self._path = Path(path)
        self._clock = clock or system_clock
        # Each record's offset, then the end of the last; every read of a
        # record reads it back from the file's reader.
        self._offsets = array("q")
        self._digests = bytearray()  # every record's item digest, in seq order
        # The stream index, as a checkpoint holds it: each stream's row by
        # name, in the order of first items; the creators' names; per row
        # its creator's place in _creators and its latest seq (0 for none);
        # per record the seq before it on its stream (0 for none).
        self._rows: dict[str, int] = {}
        self._creators: list[str] = []
        self._created_by, self._last, self._prev = array("q"), array("q"), array("q")
        if create and self._path.exists() and self._path.stat().st_size > 0:
            raise LedgerError(f"ledger already exists at {self._path}")
        if not create and (not self._path.exists() or self._path.stat().st_size == 0):
            raise LedgerError(f"no ledger at {self._path}")
        # The last record's time once an append has needed it.
        self._last_time: dt.datetime | None = None
        self._file = IndexedFile(self._path)
        try:
            if create:
                self._file.create()
                self._publisher = publisher or f"node-{secrets.token_hex(8)}"
                self._offsets.append(0)
                self._append(ROOT_STREAM, "", b"")
            else:
                self._file.open(self._take, self._index)
                self._publisher = publisher or self.stream(ROOT_STREAM).created_by
        except BaseException:
            self.close()  # a failed open or create leaves no file open
            raise

    # -- lifecycle ----------------------------------------------------------

    def close(self):
        self._file.close()

    def _take(self, parts) -> bool:
        """Take the index of the checkpoint's prefix, if its values are in
        range."""
        try:
            offsets, digests, names, creators, created_by, last, prev = parts
            offsets, created_by, last, prev = map(int_array, (offsets, created_by, last, prev))
            names = str(names, "ascii").split("\n")
            creators = str(creators, "ascii").split("\n")
        except ValueError:
            return False
        rows = dict(zip(names, range(len(names))))
        if not (
            len(digests) == len(offsets) * DIGEST_BYTES == len(prev) * DIGEST_BYTES
            and names[0] == ROOT_STREAM
            and len(rows) == len(names) == len(created_by) == len(last)
            and min(min(column, default=0) for column in (offsets, created_by, last, prev)) >= 0
            and max(created_by) < len(creators)
            and max(last) < len(prev)
            and max(prev) < len(prev)
            and all(map(lt, offsets, islice(offsets, 1, None)))  # record offsets rise
            and offsets[-1] < self._file.reader.tell()  # to below the prefix's end
        ):
            return False
        self._offsets = offsets
        self._digests = bytearray(digests)
        self._rows = rows
        self._creators = creators
        self._created_by, self._last, self._prev = created_by, last, prev
        return True

    def _index(self):
        """Run open's pass from the reader's position to the end of the
        file, carrying on from the records indexed before it."""
        reader = self._file.reader
        offsets = self._offsets
        digests = self._digests
        last, prev = self._last, self._prev
        rows: dict[bytes, int] = {}  # by name, as the pass reads it
        try:
            for base, matches in _records(reader, self._file.hasher):
                digest_hex = []
                for match in matches:
                    seq, stream, digest = match.group(1, 2, 8)
                    index = len(offsets)
                    if int(seq) != index:
                        raise LedgerError(
                            f"ledger sequence discontinuity at position {index}; "
                            "run chain verification"
                        )
                    if (stream == _ROOT) != (index == 0):
                        raise LedgerError(
                            f"ledger record at position {index} breaks the genesis "
                            f"rule: {_genesis_rule(index)}; run chain verification"
                        )
                    offsets.append(base + match.start())
                    digest_hex.append(digest)
                    row = rows.get(stream)
                    if row is None:
                        name, creator = stream.decode("ascii"), match[4].decode("ascii")
                        row = rows[stream] = self._stream_row(name, creator)
                    prev.append(last[row])
                    last[row] = index
                digests += unhexlify(b"".join(digest_hex))
        except ValueError as exc:
            raise LedgerError(
                f"corrupt ledger record at position {len(offsets)}: {exc}; "
                "run chain verification"
            ) from None
        offsets.append(reader.tell())

    def save_checkpoint(self):
        """Write the checkpoint when one is due (see IndexedFile)."""
        self._file.save(
            lambda: (
                self._offsets[:-1].tobytes(),
                self._digests,
                "\n".join(self._rows).encode("ascii"),
                "\n".join(self._creators).encode("ascii"),
                self._created_by.tobytes(),
                self._last.tobytes(),
                self._prev.tobytes(),
            )
        )

    # -- writing ------------------------------------------------------------

    def _append(self, stream: str, key: str, payload: bytes) -> StreamItem:
        seq = len(self._offsets) - 1
        prev = bytes(self._digests[-DIGEST_BYTES:]) if seq else ZERO_DIGEST
        if seq and self._last_time is None:  # read once, with the read's checks
            self._last_time = self._read(seq - 1).timestamp
        moment = self._clock()
        if moment.tzinfo is None:
            raise LedgerError("clock must produce timezone-aware instants")
        # The UTC instant on the millisecond grid, kept non-decreasing in
        # time even if the wall clock steps backwards.
        moment = moment.astimezone(dt.timezone.utc)
        moment = moment.replace(microsecond=moment.microsecond // 1000 * 1000)
        if seq and moment < self._last_time:
            moment = self._last_time
        ts_text = f"{moment:%Y-%m-%dT%H:%M:%S}.{moment.microsecond // 1000:03d}Z"
        if not seq:  # open refuses a year before 1000; later items are no earlier
            _parse_ts(ts_text)
        publisher = self._publisher
        digest = _item_digest(seq, stream, key, publisher, ts_text, payload, prev)
        item = StreamItem(seq, stream, key, publisher, moment, payload, prev, digest)
        # A newline written first moves the record's start past it.
        self._offsets[-1], _ = self._file.append(
            f"{seq}\t{stream}\t{key}\t{publisher}\t{ts_text}\t{payload.decode('ascii')}"
            f"\t{prev.hex()}\t{digest.hex()}"
        )
        self._offsets.append(self._file.size)
        self._last_time = moment
        self._digests += digest
        row = self._stream_row(stream, publisher)
        self._prev.append(self._last[row])
        self._last[row] = seq
        return item

    def _stream_row(self, name: str, created_by: str) -> int:
        """The stream's row, added with no item yet if it has none."""
        row = self._rows.get(name)
        if row is None:
            if created_by not in self._creators:
                self._creators.append(created_by)
            self._created_by.append(self._creators.index(created_by))
            self._last.append(0)
            row = self._rows[name] = len(self._rows)
        return row

    def _row(self, name: str) -> int:
        row = self._rows.get(name)
        if row is None:
            raise UnknownStream(f"unknown stream: {name}")
        return row

    def create_stream(self, name: str, key: str, payload: bytes) -> StreamItem:
        """Create a lineage stream by appending its first item."""
        if name != ROOT_STREAM and not _STREAM_NAME_RE.fullmatch(name):
            raise InvalidStreamName(
                f"stream name must read stream-<provider>-<attribute>-<accessor>, got {name!r}"
            )
        if self.has_stream(name):
            raise DuplicateStream(f"stream already exists: {name}")
        _check_entry(key, payload)
        return self._append(name, key, payload)

    def publish(self, stream: str, key: str, payload: bytes) -> StreamItem:
        """Append one transaction item to an existing stream."""
        self._row(stream)
        if stream == ROOT_STREAM:
            raise RootPublishForbidden("the root stream holds no transaction items")
        _check_entry(key, payload)
        return self._append(stream, key, payload)

    # -- reading ------------------------------------------------------------

    @property
    def publisher(self) -> str:
        return self._publisher

    @property
    def path(self) -> Path:
        return self._path

    def has_stream(self, name: str) -> bool:
        return name in self._rows

    def streams(self) -> list[Stream]:
        """All streams, in the order of their first items."""
        return [self.stream(name) for name in self._rows]

    def stream(self, name: str) -> Stream:
        row = self._row(name)
        seqs = []
        seq, prev = self._last[row], self._prev
        while seq:
            seqs.append(seq)
            # Links run back; a forged checkpoint cannot make this loop.
            seq = prev[seq] if prev[seq] < seq else 0
        seqs.reverse()
        return Stream(name, self._creators[self._created_by[row]], seqs)

    def list_items(self, name: str, start: int = 0, count: int | None = None) -> list[StreamItem]:
        """Transaction items of a stream in ascending seq order.

        A negative start counts back from the end, so start=-1 with
        count=1 yields the latest item.
        """
        seqs = self.stream(name).seqs
        if count is None:
            count = len(seqs)
        elif not isinstance(count, int) or count < 1:
            raise LedgerError("count must be a positive integer")
        if start < 0:
            start = max(0, len(seqs) + start)
        return [self.item(s) for s in seqs[start : start + count]]

    def latest_seq(self, name: str) -> int:
        seq = self._last[self._row(name)]
        if not seq:
            raise EmptyStream(f"stream has no items: {name}")
        return seq

    def latest_item(self, name: str) -> StreamItem:
        """The stream's latest item; raises what latest_seq and item raise."""
        # Open and the checkpoint checks keep seq in range.
        return self._read(self.latest_seq(name))

    def item(self, seq: int) -> StreamItem:
        """The item at seq, read back; a negative seq counts from the end."""
        count = len(self._offsets) - 1
        if not -count <= seq < count:
            raise LedgerError(f"no item at seq {seq}")
        return self._read(seq % count)

    def _read(self, seq: int) -> StreamItem:
        """Build the item of a record open checked or an append wrote from
        the file, which must still hold that record: the read is whole, the
        field check passes again and the fields re-derive the digest kept."""
        start, end = self._offsets[seq], self._offsets[seq + 1]
        fd = self._file.fileno()
        try:
            record = os.pread(fd, end - start, start)
            if len(record) != end - start:
                raise ValueError("the file ends inside the record")
            match = _match_line(record.decode("ascii").removesuffix("\n"))
            item = _build_item(match)
        except (OSError, ValueError) as exc:
            raise LedgerError(
                f"corrupt ledger record at seq {seq}: {exc}; run chain verification"
            ) from None
        kept = self._digests[seq * DIGEST_BYTES : (seq + 1) * DIGEST_BYTES]
        digest = _item_digest(*match.group(1, 2, 3, 4, 5), item.payload, item.prev_digest)
        if item.seq != seq or item.item_digest != kept or digest != kept:
            raise LedgerError(
                f"ledger record at seq {seq} does not match its digest; "
                "run chain verification"
            )
        return item

    # -- verification -------------------------------------------------------

    def verify_chain(self) -> ChainReport:
        """Verify the persisted file against itself and the item digests
        held in memory, so no item is built."""
        with open(self._path, "rb") as fh:
            return _verify_digests(fh, self._digests)
