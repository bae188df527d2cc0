"""Append-only hash-chained ledger with named streams.

A single global chain of items crosses every stream: each item's digest
covers its content plus the previous item's digest, with the genesis
item chained to 32 zero bytes.  Streams are named channels over the
chain; creating one appends an administrative item (empty key, reserved
payload tag) and transaction items are published onto it under an
application-chosen key.

Persistence is one line per item in append order.  The file is the
source of truth.  The field rules admit one encoding of each item, the
canonical one it is written in (every record they accept re-renders byte
for byte), so verification rejects any byte that deviates from what the
chain digests committed to without re-rendering anything.

Opening and chain verification share one field check: one compiled line
pattern plus the calendar validity of each timestamp.  Opening runs it as
one pass over the file's bytes, checks the continuity of each seq and
indexes streams from the matched fields.  The index is one Stream per
creation record, holding the seqs of the stream's transaction items in
order; a transaction record that precedes its stream's creation record
is not indexed, so a stream's item count, listing and latest item always
agree.  The pass reads the file CHUNK_BYTES at a time and keeps no text:
only each record's offset and its item digest.  A StreamItem is built
when something first reads it, from the record read back at its offset,
and cached; the read reruns the field check and re-derives the item
digest, which must equal the digest open kept, so a record that changed
or vanished on disk since open, or whose digest field does not cover its
fields, fails that read instead of yielding an item.  Chain verification
runs the same pass and re-derives every digest and link.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import io
import os
import re
import secrets
from array import array
from binascii import unhexlify
from pathlib import Path
from typing import NamedTuple


class LedgerError(Exception):
    """Base error for ledger operations."""


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


class ReservedPayload(LedgerError):
    """Payload value is reserved for administrative items."""


# ---------------------------------------------------------------------------
# Naming, keys, timestamps
# ---------------------------------------------------------------------------

ROOT_STREAM = "root"
ZERO_DIGEST = b"\x00" * 32
ADMIN_PAYLOAD = b"!stream-create"
MAX_KEY_LENGTH = 256

_STREAM_NAME = r"stream-[1-9][0-9]*-[1-9][0-9]*-[1-9][0-9]*"
_STREAM_NAME_RE = re.compile(_STREAM_NAME)
# The time of day is range-checked here; the date by _parse_ts.  A year
# below 1000 would render with fewer than four digits, so it is refused.
_TS = r"[1-9][0-9]{3}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]\.[0-9]{3}Z"
_TS_RE = re.compile(_TS)
_DIGEST_HEX = r"[0-9a-f]{64}"
# Printable ASCII without whitespace or quotes, up to MAX_KEY_LENGTH.
_KEY = rf"[!#-&(-~]{{0,{MAX_KEY_LENGTH}}}"
_KEY_RE = re.compile(_KEY)

# One persisted record: nine tab-separated fields, each with its rule.
# ASCII classes only; Python's \d would also match non-ASCII digits.  The
# payload's even length is checked apart: a repeated pair group would
# double the cost of matching a line.
_LINE_FIELDS = (
    ("seq", r"0|[1-9][0-9]*"),
    ("stream name", rf"{ROOT_STREAM}|{_STREAM_NAME}"),
    ("key", _KEY),
    ("publisher", r"[!-~]+"),  # printable ASCII, no whitespace
    ("timestamp", _TS),
    ("payload", r"[0-9a-f]*"),  # lowercase hex
    ("previous digest", _DIGEST_HEX),
    ("item digest", _DIGEST_HEX),
    ("confirmation flag", r"true|false"),
)
_LINE_RE = re.compile("\t".join(f"({rule})" for _, rule in _LINE_FIELDS))
# The same record as one line of the file's bytes: no field rule admits a
# newline or a byte outside ASCII.
_RECORD_RE = re.compile(_LINE_RE.pattern.encode("ascii") + rb"(?:\n|\Z)")
_FIELD_RES = tuple((name, re.compile(rule)) for name, rule in _LINE_FIELDS)
_ADMIN_PAYLOAD_HEX = ADMIN_PAYLOAD.hex().encode("ascii")
DIGEST_BYTES = 32
# Open and chain verification read the file this many bytes at a time.
CHUNK_BYTES = 64 * 1024


def stream_name_for(provider_id: int, attribute_id: int, accessor_id: int) -> str:
    """Canonical stream name for one (provider, attribute, accessor) lineage."""
    for value in (provider_id, attribute_id, accessor_id):
        if not isinstance(value, int) or value < 1:
            raise InvalidStreamName("lineage ids must be positive integers")
    return f"stream-{provider_id}-{attribute_id}-{accessor_id}"


def _valid_key(key: str) -> bool:
    return isinstance(key, str) and _KEY_RE.fullmatch(key) is not None


def _parse_ts(text: str) -> dt.datetime:
    # Fixed width: YYYY-MM-DDTHH:MM:SS.mmmZ.  The constructor rejects
    # calendar-invalid dates such as February 30.
    if not _TS_RE.fullmatch(text):
        raise ValueError(f"invalid timestamp: {text!r}")
    return dt.datetime(
        int(text[0:4]),
        int(text[5:7]),
        int(text[8:10]),
        int(text[11:13]),
        int(text[14:16]),
        int(text[17:19]),
        int(text[20:23]) * 1000,
        tzinfo=dt.timezone.utc,
    )


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
    confirmed: bool

    @property
    def is_admin(self) -> bool:
        return self.key == "" and self.payload == ADMIN_PAYLOAD


class Stream:
    __slots__ = ("name", "created_by", "seqs")

    def __init__(self, name: str, created_by: str):
        self.name = name
        self.created_by = created_by
        self.seqs: list[int] = []  # transaction items, ascending

    @property
    def item_count(self) -> int:
        return len(self.seqs)


def _item_digest(
    seq: int,
    stream: str,
    key: str,
    publisher: str,
    ts_text: str,
    payload: bytes,
    prev_digest: bytes,
) -> bytes:
    return _digest(
        str(seq).encode("ascii"),
        stream.encode("ascii"),
        key.encode("ascii"),
        publisher.encode("ascii"),
        ts_text.encode("ascii"),
        payload,
        prev_digest,
    )


def _digest(seq, stream, key, publisher, ts, payload, prev) -> bytes:
    """The item digest over the encoded fields."""
    # Length-prefixed field concatenation keeps the input injective.
    return hashlib.sha256(
        b"".join(
            (
                len(seq).to_bytes(8, "big"), seq,
                len(stream).to_bytes(8, "big"), stream,
                len(key).to_bytes(8, "big"), key,
                len(publisher).to_bytes(8, "big"), publisher,
                len(ts).to_bytes(8, "big"), ts,
                len(payload).to_bytes(8, "big"), payload,
                len(prev).to_bytes(8, "big"), prev,
            )
        )
    ).digest()


def _match_line(line: str) -> re.Match:
    """Match a record against every field rule but the calendar's.

    Raises ValueError naming the first field that fails.
    """
    match = _LINE_RE.fullmatch(line)
    if match is not None:
        if (match.end(6) - match.start(6)) % 2 == 0:
            return match
        raise ValueError("invalid payload: odd hex length")
    fields = line.split("\t")
    if len(fields) != len(_FIELD_RES):
        raise ValueError(f"expected {len(_FIELD_RES)} fields, got {len(fields)}")
    for (name, rule), value in zip(_FIELD_RES, fields):
        if not rule.fullmatch(value):
            raise ValueError(f"invalid {name}: {value!r}")
    raise ValueError("malformed record")


def _check_line(line: str, valid_dates: set[str]) -> re.Match:
    """Apply every field rule to a record without building its item.

    Raises ValueError naming the first failure.  A date already in
    valid_dates skips the calendar check; a date that passes joins it.
    """
    match = _match_line(line)
    date = match[5][:10]
    if date not in valid_dates:
        _parse_ts(match[5])
        valid_dates.add(date)
    return match


def _parse_line(line: str) -> StreamItem:
    return _build_item(_match_line(line))


def _build_item(match: re.Match) -> StreamItem:
    """The item of a matched record; raises ValueError on a date that is
    not on the calendar."""
    seq, stream, key, publisher, ts_text, payload, prev, digest, confirmed = match.groups()
    return StreamItem(
        seq=int(seq),
        stream=stream,
        key=key,
        publisher=publisher,
        timestamp=_parse_ts(ts_text),
        payload=bytes.fromhex(payload),
        prev_digest=bytes.fromhex(prev),
        item_digest=bytes.fromhex(digest),
        confirmed=confirmed == "true",
    )


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class ChainReport(NamedTuple):
    intact: bool
    first_bad_seq: int | None
    records: int
    detail: str


def verify_records(
    content: bytes, expected: list[StreamItem] | None = None
) -> ChainReport:
    """Walk a persisted chain from genesis and report the first divergence.

    Applies open's field check, which admits only the canonical encoding,
    then checks the sequence numbering, the confirmation flags and the
    previous-digest links and re-derives every item digest, all from the
    matched fields, building no item.  When the caller supplies its
    in-memory chain, the file is also required to match it record for
    record, which catches deletion of a self-consistent tail.  Corruption
    is a report outcome, never an exception.
    """
    return _verify_digests(io.BytesIO(content), _held_digests(expected))


def _held_digests(items: list[StreamItem] | None) -> bytes | None:
    return None if items is None else b"".join(item.item_digest for item in items)


def _records(fh):
    """(base, matches) per chunk of a ledger file: the records the pattern
    matched in it, in order, each at file offset base + match.start().

    Reads CHUNK_BYTES at a time and cuts the bytes after their last
    newline, so the pattern never sees part of a record.  Where the pass
    stops short (a gap between matches, an odd payload or a date that is
    not on the calendar), yields the records before it and then raises
    the ValueError the field check raises for that record.
    """
    valid_dates: set[bytes] = set()
    base = 0  # the file offset of data[0]
    data = b""
    while True:
        chunk = fh.read(CHUNK_BYTES)
        data += chunk
        cut = data.rfind(b"\n") + 1 if chunk else len(data)
        if cut:
            matches = []
            end = 0
            for match in _RECORD_RE.finditer(data, 0, cut):
                if match.start() != end or (match.end(6) - match.start(6)) % 2:
                    break
                ts_text = match[5]
                if ts_text[:10] not in valid_dates:
                    try:
                        _parse_ts(ts_text.decode("ascii"))
                    except ValueError:
                        break  # the field check below names the date
                    valid_dates.add(ts_text[:10])
                matches.append(match)
                end = match.end()
            yield base, matches
            if end < cut:
                # A byte that is not UTF-8 reads as U+FFFD, which no field
                # rule admits.
                line = data[end:cut].partition(b"\n")[0]
                _check_line(line.decode("utf-8", errors="replace"), set())
                raise ValueError("malformed record")
            base += cut
            data = data[cut:]
        if not chunk:
            return


def _count_lines(fh) -> int:
    """Lines of a file as a split at newlines counts them, less the empty
    one after a final newline."""
    fh.seek(0)
    lines, last = 0, b"\n"
    while chunk := fh.read(CHUNK_BYTES):
        lines += chunk.count(b"\n")
        last = chunk[-1:]
    return lines + (last != b"\n")


def _verify_digests(fh, expected: bytes | bytearray | None) -> ChainReport:
    """verify_records over a binary file, against the in-memory chain's
    item digests concatenated."""
    index = 0
    prev = ZERO_DIGEST
    detail = None
    try:
        for match in (match for _, matches in _records(fh) for match in matches):
            seq, stream, key, publisher, ts_text, payload, prev_hex, digest_hex, confirmed = (
                match.groups()
            )
            if int(seq) != index:
                detail = f"sequence discontinuity (record claims {seq.decode()})"
            elif confirmed != b"true":
                detail = "unconfirmed item in a confirmed chain"
            elif unhexlify(prev_hex) != prev:
                detail = "previous-digest link mismatch"
            else:
                digest = _digest(seq, stream, key, publisher, ts_text, unhexlify(payload), prev)
                if digest != unhexlify(digest_hex):
                    detail = "item digest mismatch"
                elif expected is not None and index * DIGEST_BYTES < len(expected):
                    if digest != expected[index * DIGEST_BYTES : (index + 1) * DIGEST_BYTES]:
                        detail = "diverges from the in-memory chain"
            if detail is not None:
                break
            prev = digest
            index += 1
    except ValueError as exc:
        detail = f"unparseable record ({exc})"
    if detail is None and expected is not None:
        held = len(expected) // DIGEST_BYTES
        if index < held:
            detail = "missing link at former chain tail"
        elif index > held:
            index, detail = held, "records appended out of band"
    if detail is not None:
        return ChainReport(
            intact=False,
            first_bad_seq=index,
            records=_count_lines(fh),
            detail=f"seq {index}: {detail}",
        )
    return ChainReport(intact=True, first_bad_seq=None, records=index, detail="chain intact")


def verify_file(path, expected: list[StreamItem] | None = None) -> ChainReport:
    with open(path, "rb") as fh:
        return _verify_digests(fh, _held_digests(expected))


# ---------------------------------------------------------------------------
# The ledger
# ---------------------------------------------------------------------------


class Ledger:
    """Single-writer stream ledger over one append-only file."""

    def __init__(self, path, clock=None, publisher: str | None = None, create: bool = False):
        self._path = Path(path)
        self._clock = clock or system_clock
        # The item at each seq once something has read it.
        self._items: list[StreamItem | None] = []
        # Of the records open checked: each one's offset, then the end of
        # the last; read back through _reader.
        self._offsets = array("q")
        self._reader = None
        self._digests = bytearray()  # every record's item digest, in seq order
        self._streams: dict[str, Stream] = {}
        self._handle = None
        if create and self._path.exists() and self._path.stat().st_size > 0:
            raise LedgerError(f"ledger already exists at {self._path}")
        if not create and (not self._path.exists() or self._path.stat().st_size == 0):
            raise LedgerError(f"no ledger at {self._path}")
        try:
            if create:
                self._publisher = publisher or f"node-{secrets.token_hex(8)}"
                self._handle = open(self._path, "a", encoding="ascii", newline="")
                self._register_stream(ROOT_STREAM)
            else:
                self._reader = open(self._path, "rb")
                genesis_publisher = self._load()
                self._publisher = publisher or genesis_publisher
                self._handle = open(self._path, "a", encoding="ascii", newline="")
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
        """Index the file; returns the publisher of its genesis record."""
        offsets = self._offsets
        digests = self._digests
        streams: dict[bytes, Stream] = {}  # by name, as the pass reads it
        genesis_publisher = ""
        try:
            for base, matches in _records(self._reader):
                if matches and not offsets:
                    genesis_publisher = matches[0][4].decode("ascii")
                digest_hex = []
                for match in matches:
                    seq, stream, key, digest = match.group(1, 2, 3, 8)
                    index = len(offsets)
                    if int(seq) != index:
                        raise LedgerError(
                            f"ledger sequence discontinuity at position {index}; "
                            "run chain verification"
                        )
                    offsets.append(base + match.start())
                    digest_hex.append(digest)
                    if not key and match[6] == _ADMIN_PAYLOAD_HEX:
                        name = stream.decode("ascii")
                        created = Stream(name, match[4].decode("ascii"))
                        streams[stream] = self._streams[name] = created
                    else:
                        target = streams.get(stream)
                        if target is not None:
                            target.seqs.append(index)
                digests += unhexlify(b"".join(digest_hex))
        except ValueError as exc:
            raise LedgerError(
                f"corrupt ledger record at position {len(offsets)}: {exc}; "
                "run chain verification"
            ) from None
        self._items = [None] * len(offsets)
        offsets.append(self._reader.tell())
        if ROOT_STREAM not in self._streams:
            raise LedgerError("ledger has no root stream")
        return genesis_publisher

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
        item = StreamItem(seq, stream, key, publisher, moment, payload, prev, digest, True)
        self._handle.write(
            f"{seq}\t{stream}\t{key}\t{publisher}\t{ts_text}\t{payload.hex()}"
            f"\t{prev.hex()}\t{digest.hex()}\ttrue\n"
        )
        self._handle.flush()
        self._items.append(item)
        self._digests += digest
        return item

    def _register_stream(self, name: str) -> Stream:
        if name in self._streams:
            raise DuplicateStream(f"stream already exists: {name}")
        self._append(name, "", ADMIN_PAYLOAD)
        stream = self._streams[name] = Stream(name, self._publisher)
        return stream

    def create_stream(self, name: str) -> Stream:
        """Create a named stream by appending its administrative item."""
        if name != ROOT_STREAM and not _STREAM_NAME_RE.fullmatch(name):
            raise InvalidStreamName(
                f"stream name must read stream-<provider>-<attribute>-<accessor>, got {name!r}"
            )
        return self._register_stream(name)

    def publish(self, stream: str, key: str, payload: bytes) -> StreamItem:
        """Append one confirmed transaction item to a stream."""
        target = self._streams.get(stream)
        if target is None:
            raise UnknownStream(f"unknown stream: {stream}")
        if stream == ROOT_STREAM:
            raise RootPublishForbidden("the root stream holds no transaction items")
        if not _valid_key(key):
            raise InvalidKey(
                "keys are at most 256 printable ASCII characters with no "
                "whitespace or quotes"
            )
        if not isinstance(payload, bytes):
            raise LedgerError("payload must be bytes")
        if payload == ADMIN_PAYLOAD:
            raise ReservedPayload("payload value is reserved for stream creation")
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
        return name in self._streams

    def streams(self) -> list[Stream]:
        """All streams in creation order."""
        return list(self._streams.values())

    def stream(self, name: str) -> Stream:
        try:
            return self._streams[name]
        except KeyError:
            raise UnknownStream(f"unknown stream: {name}") from None

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
        digest = _item_digest(
            item.seq, item.stream, item.key, item.publisher, match[5], item.payload, item.prev_digest
        )
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
