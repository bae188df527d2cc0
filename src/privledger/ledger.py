"""Append-only hash-chained ledger with named streams, in data format 4.

The record format, its field check and chain verification are in
chain.py, which imports nothing of the engine.

Open runs chain.py's pass over the file's bytes, CHUNK_BYTES at a time,
whose pattern is the line rule every data file has (see files.py), and
also checks seq continuity and the genesis rule.  It keeps no text: per
record its item digest and the seq before it on its stream; per stream,
in the order of first items, its creator and its latest seq.  The file,
with its handles and checkpoint, is a files.IndexedFile, which keeps
each record's offset.  These packed columns are the whole index, as a
checkpoint holds it: a Stream is a snapshot with its seqs walked back
from the latest.  A StreamItem is built on every read and not kept, from
the record read back at its offset, which must pass the field check
again and re-derive the digest open kept or the append wrote, so a
record that changed on disk since fails that read.  The read and the
build are apart: file.read(first, count) reads the records at
consecutive seqs, which lie back to back, with one os.pread,
file.pieces cuts that read into each record's bytes, and record(seq)
reads one; latest_item builds the item from bytes a caller already read,
so a caller that only needs to know whether a record is still the one it
checked reads it once and decodes nothing.  latest_seqs(lineages, known)
looks up the latest seq of every lineage of a query in one call, at the
row a caller kept of a stream (stream_row; a stream keeps its row while
the ledger is open) or else by its name.  An append links to the digest
kept and, after the first append since open, to the kept timestamp of
the last record, so it reads nothing.  Chain verification re-derives
every digest and link.
"""

from __future__ import annotations

import datetime as dt
import re
import secrets
from array import array
from binascii import unhexlify
from itertools import repeat
from pathlib import Path
from typing import NamedTuple

from .chain import (
    _KEY,
    _PAYLOAD,
    _ROOT,
    _STREAM_NAME,
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
from .files import IndexedFile, int_array


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


def _corrupt(seq: int, cause) -> LedgerError:
    return LedgerError(f"corrupt ledger record at seq {seq}: {cause}; run chain verification")


def _no_items(name: str):
    raise EmptyStream(f"stream has no items: {name}")


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


class Ledger:
    """Single-writer stream ledger over one append-only file.  Every item
    names the genesis record's publisher: a node name drawn at create."""

    def __init__(self, path, clock=None, create: bool = False):
        self._path = Path(path)
        self._clock = clock or system_clock
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
        # Its offsets are the record index: every read of a record reads it
        # back from the file's reader.
        self.file = IndexedFile(self._path, self._take)
        try:
            if create:
                self.file.create()
                self._publisher = f"node-{secrets.token_hex(8)}"
                self._append(ROOT_STREAM, "", b"")
            else:
                self.file.open(self._index)
                self._publisher = self.stream(ROOT_STREAM).created_by
        except BaseException:
            self.close()  # a failed open or create leaves no file open
            raise

    # -- lifecycle ----------------------------------------------------------

    def close(self):
        self.file.close()

    def _take(self, count: int, parts) -> bool:
        """Take the index of the checkpoint's count records, if its values
        are in range."""
        try:
            digests, names, creators, created_by, last, prev = parts
            created_by, last, prev = map(int_array, (created_by, last, prev))
            names = str(names, "ascii").split("\n")
            creators = str(creators, "ascii").split("\n")
        except ValueError:
            return False
        rows = dict(zip(names, range(len(names))))
        if not (
            len(digests) == count * DIGEST_BYTES == len(prev) * DIGEST_BYTES
            and names[0] == ROOT_STREAM
            and len(rows) == len(names) == len(created_by) == len(last)
            and min(min(column, default=0) for column in (created_by, last, prev)) >= 0
            and max(created_by) < len(creators)
            and max(last) < len(prev)
            and max(prev) < len(prev)
        ):
            return False
        self._digests = bytearray(digests)
        self._rows = rows
        self._creators = creators
        self._created_by, self._last, self._prev = created_by, last, prev
        return True

    def _index(self):
        """Run open's pass from the reader's position to the end of the
        file, carrying on from the records indexed before it."""
        offsets = self.file.offsets
        digests = self._digests
        last, prev = self._last, self._prev
        rows: dict[bytes, int] = {}  # by name, as the pass reads it
        try:
            for base, matches in _records(self.file.reader, self.file.hasher):
                digest_hex = []
                for match in matches:
                    seq, stream, digest = match.group(1, 2, 8)
                    index = len(offsets) - 1
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
                    offsets.append(base + match.end())
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
                f"corrupt ledger record at position {len(offsets) - 1}: {exc}; "
                "run chain verification"
            ) from None

    def save_checkpoint(self):
        """Write the checkpoint when one is due (see files.IndexedFile)."""
        self.file.save(
            lambda: (
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
        seq = len(self._prev)
        prev = bytes(self._digests[-DIGEST_BYTES:]) if seq else ZERO_DIGEST
        if seq and self._last_time is None:  # read once, with the read's checks
            self._last_time = self.item(seq - 1).timestamp
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
        self.file.append(
            f"{seq}\t{stream}\t{key}\t{publisher}\t{ts_text}\t{payload.decode('ascii')}"
            f"\t{prev.hex()}\t{digest.hex()}".encode()
        )
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

    def stream_row(self, name: str) -> int:
        """The stream's row in the index, which it keeps while the ledger
        is open; raises UnknownStream for a stream that does not exist."""
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
        self.stream_row(stream)
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
        row = self.stream_row(name)
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
        return self._last[self.stream_row(name)] or _no_items(name)

    def latest_seqs(self, lineages, known=None) -> list[int | None]:
        """The latest seq of each (provider_id, attribute_id, accessor_id)
        lineage's stream, in order, None for a lineage with no stream;
        raises what latest_seq raises for a stream with no items.  known,
        if given, holds per lineage None or a tuple whose first item is
        the stream_row of its stream, which is then read at that row: only
        a lineage without one has its stream's name formatted."""
        rows, last, stream = self._rows, self._last, LINEAGE_STREAM.format
        return [
            last[held[0]]
            if held is not None
            else None
            if (row := rows.get(name := stream(*lineage))) is None
            else last[row] or _no_items(name)
            for lineage, held in zip(lineages, repeat(None) if known is None else known)
        ]

    def latest_item(self, name: str, record=None) -> StreamItem:
        """The stream's latest item, built from record, the bytes that
        file.read or file.pieces gave for latest_seq(name), if the caller
        has read them;
        raises what latest_seq, record and item raise."""
        # Open and the checkpoint checks keep seq in range.
        seq = self.latest_seq(name)
        return self._read(seq, self.record(seq) if record is None else self._whole(seq, record))

    def item(self, seq: int) -> StreamItem:
        """The item at seq, read back; a negative seq counts from the end."""
        count = len(self._prev)
        if not -count <= seq < count:
            raise LedgerError(f"no item at seq {seq}")
        seq %= count
        return self._read(seq, self.record(seq))

    def record(self, seq: int) -> bytes:
        """The bytes of the record at seq (0 <= seq < the record count),
        read back from the file whole; a read the system refuses, or one
        the file ends inside, raises LedgerError."""
        return self._whole(seq, self.file.read(seq, 1))

    def _whole(self, seq: int, record):
        """record, what file.read or file.pieces gave for seq, if it is the
        whole record; else raises LedgerError."""
        if isinstance(record, OSError):
            raise _corrupt(seq, record)
        offsets = self.file.offsets
        if len(record) != offsets[seq + 1] - offsets[seq]:
            raise _corrupt(seq, "the file ends inside the record")
        return record

    def _read(self, seq: int, record) -> StreamItem:
        """Build the item of the record at seq from the bytes read back of
        it whole (any bytes-like object), which must still be the record
        open checked or an append wrote: the field check passes again and
        the fields re-derive the digest kept."""
        try:
            match = _match_line(str(record, "ascii").removesuffix("\n"))
            item = _build_item(match)
        except ValueError as exc:
            raise _corrupt(seq, exc) from None
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
