"""The ledger file's record format and chain verification, in data format 4.

One chain of items crosses every stream: each item's digest covers its
fields and the previous item's digest.  The genesis, chained to 32 zero
bytes, is seq 0 and the only item on the root stream.  Every later item
is on a lineage stream, which exists from its first item on.

The file, the source of truth, holds one line per item in append order:
eight tab-separated fields, the payload as its own printable ASCII bytes.
The field rules admit only the canonical encoding (every record they
accept re-renders byte for byte), so verification rejects any byte that
deviates from what the digests committed to without re-rendering.

Open (ledger.py) and chain verification share one field check, one
compiled line pattern plus the calendar validity of each timestamp, run
as one pass over the file's bytes, CHUNK_BYTES at a time (_records).
Chain verification re-derives every digest and link from the matched
fields.

This module imports no other privledger module, nor ``typing``, so a
``ledger verify`` process loads it and config.py only.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import io
import re
from binascii import unhexlify
from collections import namedtuple


class LedgerError(Exception):
    """Base error for ledger operations."""


ROOT_STREAM = "root"
ZERO_DIGEST = b"\x00" * 32
MAX_KEY_LENGTH = 256

_STREAM_NAME = r"stream-[1-9][0-9]*-[1-9][0-9]*-[1-9][0-9]*"
# The time of day is range-checked here; the date by _parse_ts.  A year
# below 1000 would render with fewer than four digits, so it is refused.
_TS = r"[1-9][0-9]{3}-[0-9]{2}-[0-9]{2}T(?:[01][0-9]|2[0-3]):[0-5][0-9]:[0-5][0-9]\.[0-9]{3}Z"
_TS_RE = re.compile(_TS)
_DIGEST_HEX = r"[0-9a-f]{64}"
# Printable ASCII without whitespace or quotes, up to MAX_KEY_LENGTH.
_KEY = rf"[!#-&(-~]{{0,{MAX_KEY_LENGTH}}}"
_PAYLOAD = r"[!-~]*"  # printable ASCII, no whitespace

# One persisted record: eight tab-separated fields, each with its rule.
# ASCII classes only; Python's \d would also match non-ASCII digits.
_LINE_FIELDS = (
    ("seq", r"0|[1-9][0-9]*"),
    ("stream name", rf"{ROOT_STREAM}|{_STREAM_NAME}"),
    ("key", _KEY),
    ("publisher", r"[!-~]+"),  # printable ASCII, no whitespace
    ("timestamp", _TS),
    ("payload", _PAYLOAD),
    ("previous digest", _DIGEST_HEX),
    ("item digest", _DIGEST_HEX),
)
_LINE_RE = re.compile("\t".join(f"({rule})" for _, rule in _LINE_FIELDS))
# The same record as one line of the file's bytes: no field rule admits a
# newline or a byte outside ASCII.
_RECORD_RE = re.compile(_LINE_RE.pattern.encode("ascii") + rb"(?:\n|\Z)")
_FIELD_RES = tuple((name, re.compile(rule)) for name, rule in _LINE_FIELDS)
_ROOT = ROOT_STREAM.encode("ascii")
DIGEST_BYTES = 32
# Open and chain verification read the file this many bytes at a time.
CHUNK_BYTES = 64 * 1024


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


def _item_digest(seq, stream, key, publisher, ts_text, payload, prev_digest) -> bytes:
    texts = (str(seq), stream, key, publisher, ts_text)  # seq as an int or its text
    return _digest(*(text.encode("ascii") for text in texts), payload, prev_digest)


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
        return match
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


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

# intact: bool, first_bad_seq: int | None, records: int, detail: str
ChainReport = namedtuple("ChainReport", ("intact", "first_bad_seq", "records", "detail"))


def verify_records(content: bytes, expected: list | None = None) -> ChainReport:
    """Walk a persisted chain from genesis and report the first divergence.

    Applies open's field check, then checks the seq numbering, the genesis
    rule and the links and re-derives every item digest, all from the
    matched fields, building no item.  Given the in-memory chain (a list of
    ledger.StreamItem), the file must also match it record for record,
    which catches deletion of a self-consistent tail.  Corruption is a
    report outcome, never raised.
    """
    return _verify_digests(io.BytesIO(content), _held_digests(expected))


def _held_digests(items: list | None) -> bytes | None:
    return None if items is None else b"".join(item.item_digest for item in items)


def _records(fh, hasher=None):
    """(base, matches) per chunk of a ledger file from its position on: the
    records the pattern matched in it, in order, each at file offset
    base + match.start().

    Reads CHUNK_BYTES at a time, feeding each to hasher if given, and cuts
    the bytes after their last newline, so the pattern never sees part of
    a record.  Where the pass stops short (a gap between matches or a date
    that is not on the calendar), yields the records before it and then
    raises the ValueError the field check raises for that record.
    """
    valid_dates: set[bytes] = set()
    base = fh.tell()  # the file offset of data[0]
    data = b""
    while True:
        chunk = fh.read(CHUNK_BYTES)
        if hasher is not None:
            hasher.update(chunk)
        data += chunk
        cut = data.rfind(b"\n") + 1 if chunk else len(data)
        if cut:
            matches = []
            end = 0
            for match in _RECORD_RE.finditer(data, 0, cut):
                if match.start() != end:
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


def _genesis_rule(index: int) -> str:
    """How the record at index breaks the rule that only seq 0 is on root."""
    return "the genesis is not on root" if index == 0 else "a record on root after the genesis"


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
            seq, stream, key, publisher, ts_text, payload, prev_hex, digest_hex = match.groups()
            if int(seq) != index:
                detail = f"sequence discontinuity (record claims {seq.decode()})"
            elif (stream == _ROOT) != (index == 0):
                detail = _genesis_rule(index)
            elif unhexlify(prev_hex) != prev:
                detail = "previous-digest link mismatch"
            else:
                digest = _digest(seq, stream, key, publisher, ts_text, payload, prev)
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


def verify_file(path, expected: list | None = None) -> ChainReport:
    with open(path, "rb") as fh:
        return _verify_digests(fh, _held_digests(expected))
