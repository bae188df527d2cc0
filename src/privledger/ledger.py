"""Append-only hash-chained ledger with named streams, in data format 2.

The record format, its field check and chain verification are in
chain.py, which imports nothing of the engine; their names are
re-exported here.

Open runs chain.py's pass over the file's bytes, CHUNK_BYTES at a time,
and also checks seq continuity and the genesis rule, indexes each
stream's seqs from the matched fields and keeps no text: only each
record's offset and item digest.  A StreamItem is built on first read,
from the record read back at its offset, which must pass the field check
again and re-derive the digest open kept, so a record that changed on
disk since open fails that read.  Chain verification re-derives every
digest and link.

A checkpoint beside the file (CHECKPOINT_SUFFIX) lets open skip that pass
over a prefix checked before: it holds the checker version, the length and
SHA-256 of a prefix that passed every open check, and the index open
built from it.  Open hashes the prefix CHUNK_BYTES at a time; if the
checkpoint is whole, of this CHECKER_VERSION and its prefix is unchanged,
open takes the index from it and runs the pass over the tail only.  Else
it runs the pass over the whole file, as if there were no checkpoint.
First reads check each record against the file as before.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import os
import re
import secrets
import stat
from array import array
from binascii import unhexlify
from pathlib import Path
from typing import NamedTuple

from .chain import (  # noqa: F401  re-exported
    _KEY,
    _PAYLOAD,
    _ROOT,
    _STREAM_NAME,
    CHUNK_BYTES,
    DIGEST_BYTES,
    MAX_KEY_LENGTH,
    ROOT_STREAM,
    ZERO_DIGEST,
    ChainReport,
    LedgerError,
    _check_line,
    _genesis_rule,
    _item_digest,
    _match_line,
    _parse_ts,
    _records,
    _verify_digests,
    verify_file,
    verify_records,
)


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


def stream_name_for(provider_id: int, attribute_id: int, accessor_id: int) -> str:
    """Canonical stream name for one (provider, attribute, accessor) lineage."""
    for value in (provider_id, attribute_id, accessor_id):
        if not isinstance(value, int) or value < 1:
            raise InvalidStreamName("lineage ids must be positive integers")
    return f"stream-{provider_id}-{attribute_id}-{accessor_id}"


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


class Stream:
    __slots__ = ("name", "created_by", "seqs")

    def __init__(self, name: str, created_by: str):
        self.name = name
        self.created_by = created_by
        self.seqs: list[int] = []  # its items, ascending; none for root

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


def save_checkpoint(path: Path, length: int, hasher, parts):
    """Write the checkpoint of the file at path: its first length bytes,
    which hasher was fed, and parts, a sequence of bytes.  It is written to
    a temporary file beside it, then renamed over it.  A write that fails
    leaves no temporary file and raises nothing."""
    target = checkpoint_path(path)
    chunks = [_CHECKPOINT_HEAD]
    for part in (length.to_bytes(8, "big"), hasher.digest(), *parts):
        chunks += (len(part).to_bytes(8, "big"), part)
    body = b"".join(chunks)
    try:
        replace_file(target, (body, hashlib.sha256(body).digest()))
    except OSError:
        pass


def replace_file(target: Path, chunks):
    """Write the chunks of bytes to a temporary file beside target, then
    rename it over target, so that no reader sees a half-written file.  The
    new file keeps target's mode; with no target, it has the mode a plain
    open creates a file with.  A write that fails leaves no temporary file."""
    try:
        mode = stat.S_IMODE(os.stat(target).st_mode)
    except FileNotFoundError:
        mode = None
    temp = target.with_name(f"{target.name}.{secrets.token_hex(8)}")
    fh = open(temp, "xb")
    try:
        with fh:
            if mode is not None:
                os.fchmod(fh.fileno(), mode)
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
        # The item at each seq once something has read it.
        self._items: list[StreamItem | None] = []
        # Each record's offset, then the end of the last; a record open
        # checked is read back through _reader.
        self._offsets = array("q")
        self._reader = None
        self._digests = bytearray()  # every record's item digest, in seq order
        self._order: list[str] = []  # every stream's name, in the order of first items
        self._rows: dict[str, int] = {}  # every stream's place in _order, by name
        self._streams: dict[str, Stream] = {}  # by name, once built
        # What the checkpoint open started from indexed of its streams, which
        # are built from it on first touch: the creators' names, per stream
        # its creator and its latest seq (0 for none), and per record the
        # seq before it on its stream (0 for none).
        self._indexed: tuple[list[str], array, array, array] | None = None
        self._hasher = hashlib.sha256()  # fed the file's bytes up to _offsets[-1]
        self._checkpoint_due = False
        self._unterminated = False  # the file's last record lacks its newline
        self._handle = None  # appending, unbuffered; closed by a failed append
        if create and self._path.exists() and self._path.stat().st_size > 0:
            raise LedgerError(f"ledger already exists at {self._path}")
        if not create and (not self._path.exists() or self._path.stat().st_size == 0):
            raise LedgerError(f"no ledger at {self._path}")
        try:
            if create:
                self._publisher = publisher or f"node-{secrets.token_hex(8)}"
                self._handle = open(self._path, "ab", buffering=0)
                self._offsets.append(0)
                self._append(ROOT_STREAM, "", b"")
                self._add_stream(ROOT_STREAM, self._publisher)
            else:
                self._reader = open(self._path, "rb")
                self._publisher = publisher or self._load()
                self._handle = open(self._path, "ab", buffering=0)
        except BaseException:
            self.close()  # a failed open or create leaves no file open
            raise

    # -- lifecycle ----------------------------------------------------------

    def close(self):
        for handle in (self._handle, self._reader):
            if handle is not None:
                handle.close()
        self._handle = self._reader = None

    def _load(self) -> str:
        """Index the file, from its checkpoint where that holds; returns the
        publisher of its genesis record."""
        if not self._load_checkpoint():
            self._reader.seek(0)
            self._checkpoint_due = True
        start = self._reader.tell()
        self._index()
        end = self._offsets[-1]
        self._checkpoint_due |= end - start >= CHECKPOINT_TAIL_BYTES
        self._unterminated = os.pread(self._reader.fileno(), 1, end - 1) != b"\n"
        return self.stream(ROOT_STREAM).created_by

    def _load_checkpoint(self) -> bool:
        """Take the index of the checkpoint's prefix, if the checkpoint holds."""
        found = load_checkpoint(self._path, self._reader)
        if found is None:
            return False
        hasher, parts = found
        try:
            offsets, digests, names, creators, created_by, last, prev = parts
            offsets, created_by, last, prev = map(int_array, (offsets, created_by, last, prev))
            names = str(names, "ascii").split("\n")
            creators = str(creators, "ascii").split("\n")
        except ValueError:
            return False
        if not (
            len(digests) == len(offsets) * DIGEST_BYTES == len(prev) * DIGEST_BYTES
            and names[0] == ROOT_STREAM
            and len(created_by) == len(names) == len(last)
            and max(created_by) < len(creators)
            and max(last) < len(prev)
            and max(prev) < len(prev)
        ):
            return False
        self._hasher = hasher
        self._offsets = offsets
        self._digests = bytearray(digests)
        self._order = names
        self._rows = dict(zip(names, range(len(names))))
        self._indexed = creators, created_by, last, prev
        return True

    def _index(self):
        """Run open's pass from the reader's position to the end of the
        file, carrying on from the records indexed before it."""
        offsets = self._offsets
        digests = self._digests
        streams: dict[bytes, Stream] = {}  # by name, as the pass reads it
        try:
            for base, matches in _records(self._reader, self._hasher):
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
                    target = streams.get(stream)
                    if target is None:
                        name = stream.decode("ascii")
                        target = streams[stream] = self._stream(name) or self._add_stream(
                            name, match[4].decode("ascii")
                        )
                    if index:
                        target.seqs.append(index)
                digests += unhexlify(b"".join(digest_hex))
        except ValueError as exc:
            raise LedgerError(
                f"corrupt ledger record at position {len(offsets)}: {exc}; "
                "run chain verification"
            ) from None
        self._items = [None] * len(offsets)
        offsets.append(self._reader.tell())

    def save_checkpoint(self):
        """Write the checkpoint of all this ledger checked or wrote, if it
        appended, ran the full pass or met a long tail, and the file ends
        in a newline.  A write that fails raises nothing."""
        if not self._checkpoint_due or self._unterminated:
            return
        creators, *columns = self._indexed or ([], array("q"), array("q"), array("q"))
        created_by, last, prev = (column[:] for column in columns)  # brought up to date below
        known = len(prev)  # the records the checkpoint indexed
        prev.frombytes(bytes(8 * (len(self._items) - known)))
        number = {creator: index for index, creator in enumerate(creators)}
        for name in self._order[len(last) :]:  # first seen since
            creator = self._streams[name].created_by
            created_by.append(number.setdefault(creator, len(number)))
            last.append(0)
        # Only a built stream can have items since: the pass and appends
        # build the streams they index.
        for name, stream in self._streams.items():
            seqs = stream.seqs
            at = len(seqs)
            while at and seqs[at - 1] >= known:
                at -= 1
                prev[seqs[at]] = seqs[at - 1] if at else 0
            if seqs:
                last[self._rows[name]] = seqs[-1]
        save_checkpoint(
            self._path,
            self._offsets[-1],
            self._hasher,
            (
                self._offsets[:-1].tobytes(),
                self._digests,
                "\n".join(self._order).encode("ascii"),
                "\n".join(number).encode("ascii"),
                created_by.tobytes(),
                last.tobytes(),
                prev.tobytes(),
            ),
        )

    # -- writing ------------------------------------------------------------

    def _append(self, stream: str, key: str, payload: bytes) -> StreamItem:
        seq = len(self._items)
        last = self.item(-1) if self._items else None
        prev = ZERO_DIGEST if last is None else last.item_digest
        moment = self._clock()
        if moment.tzinfo is None:
            raise LedgerError("clock must produce timezone-aware instants")
        # The UTC instant on the millisecond grid, kept non-decreasing in
        # time even if the wall clock steps backwards.
        moment = moment.astimezone(dt.timezone.utc)
        moment = moment.replace(microsecond=moment.microsecond // 1000 * 1000)
        if last is not None and moment < last.timestamp:
            moment = last.timestamp
        ts_text = f"{moment:%Y-%m-%dT%H:%M:%S}.{moment.microsecond // 1000:03d}Z"
        if last is None:  # open refuses a year before 1000; later items are no earlier
            _parse_ts(ts_text)
        publisher = self._publisher
        digest = _item_digest(seq, stream, key, publisher, ts_text, payload, prev)
        item = StreamItem(seq, stream, key, publisher, moment, payload, prev, digest)
        if self._handle.closed:
            self._handle = open(self._path, "ab", buffering=0)
        newline = self._unterminated
        data = append_line(
            self._handle,
            f"{seq}\t{stream}\t{key}\t{publisher}\t{ts_text}\t{payload.decode('ascii')}"
            f"\t{prev.hex()}\t{digest.hex()}",
            newline,
        )
        self._unterminated = False
        self._hasher.update(data)
        self._offsets[-1] += newline  # the record starts after a newline written first
        self._offsets.append(self._offsets[-1] + len(data) - newline)
        self._checkpoint_due = True
        self._items.append(item)
        self._digests += digest
        return item

    def _add_stream(self, name: str, created_by: str) -> Stream:
        stream = self._streams[name] = Stream(name, created_by)
        self._rows[name] = len(self._order)
        self._order.append(name)
        return stream

    def _stream(self, name: str) -> Stream | None:
        """The stream, built on first touch if a checkpoint indexed it."""
        stream = self._streams.get(name)
        if stream is None and name in self._rows:
            creators, created_by, last, prev = self._indexed
            row = self._rows[name]
            stream = self._streams[name] = Stream(name, creators[created_by[row]])
            seq = last[row]
            while seq:
                stream.seqs.append(seq)
                # Links run back; a forged checkpoint cannot make this loop.
                seq = prev[seq] if prev[seq] < seq else 0
            stream.seqs.reverse()
        return stream

    def create_stream(self, name: str, key: str, payload: bytes) -> StreamItem:
        """Create a lineage stream by appending its first item."""
        if name != ROOT_STREAM and not _STREAM_NAME_RE.fullmatch(name):
            raise InvalidStreamName(
                f"stream name must read stream-<provider>-<attribute>-<accessor>, got {name!r}"
            )
        if self.has_stream(name):
            raise DuplicateStream(f"stream already exists: {name}")
        _check_entry(key, payload)
        item = self._append(name, key, payload)
        self._add_stream(name, self._publisher).seqs.append(item.seq)
        return item

    def publish(self, stream: str, key: str, payload: bytes) -> StreamItem:
        """Append one transaction item to an existing stream."""
        target = self._stream(stream)
        if target is None:
            raise UnknownStream(f"unknown stream: {stream}")
        if stream == ROOT_STREAM:
            raise RootPublishForbidden("the root stream holds no transaction items")
        _check_entry(key, payload)
        item = self._append(stream, key, payload)
        target.seqs.append(item.seq)
        return item

    # -- reading ------------------------------------------------------------

    @property
    def publisher(self) -> str:
        return self._publisher

    @property
    def path(self) -> Path:
        return self._path

    def chain_length(self) -> int:
        return len(self._items)

    def has_stream(self, name: str) -> bool:
        return name in self._rows

    def streams(self) -> list[Stream]:
        """All streams, in the order of their first items."""
        return [self.stream(name) for name in self._order]

    def stream(self, name: str) -> Stream:
        stream = self._stream(name)
        if stream is None:
            raise UnknownStream(f"unknown stream: {name}")
        return stream

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

    def latest_item(self, name: str) -> StreamItem:
        seqs = self.stream(name).seqs
        if not seqs:
            raise EmptyStream(f"stream has no items: {name}")
        return self.item(seqs[-1])

    def item(self, seq: int) -> StreamItem:
        try:
            entry = self._items[seq]
        except IndexError:
            raise LedgerError(f"no item at seq {seq}") from None
        if entry is None:
            seq %= len(self._items)
            entry = self._items[seq] = self._read(seq)
        return entry

    def _read(self, seq: int) -> StreamItem:
        """Build the item of a record open checked from the file, which
        must still hold that record: the field check passes again and the
        fields re-derive the digest open kept."""
        start, end = self._offsets[seq], self._offsets[seq + 1]
        record = os.pread(self._reader.fileno(), end - start, start)
        try:
            match = _match_line(record.decode("ascii").removesuffix("\n"))
            item = _build_item(match)
        except ValueError as exc:
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
