"""Field-by-field ledger record checks and the item-building chain
verifier, kept as the references for the single-pattern parser and the
match-based chain verifier in privledger.ledger.

This is the record parser as it was before the ledger checked each line
with one compiled pattern, moved to data format 2 (eight fields, the
payload as its own printable ASCII bytes, no confirmation flag), with
two deliberate tightenings of its timestamp rule, each of which turned a record that used to open (chain
verification then reported it as non-canonical) into one both parsers
refuse as unparseable:

- it reads [0-9] where it read \\d.  In Python's re, \\d also matches
  non-ASCII digits, and strptime and int() accept them, so a record
  with, say, Arabic-Indic digits in its timestamp used to open.
- its year reads [1-9][0-9]{3} where it read [0-9]{4}.  A year below
  1000 renders with fewer than four digits, so a record dated, say,
  0999 used to open.

reference_render_line is the record rendering as it was before the
ledger built each record line straight from its fields: the item's
fields, its timestamp formatted in UTC.  It is what Ledger writes.

reference_verify_records is the chain verifier as it was before it
worked on the matched fields: it builds every item and re-renders it to
check the canonical encoding.  In format 2 it also holds the chain to
the genesis rule: the record at seq 0, and no other, is on root.  reference_item_digest is the item digest
as it was before it hashed one joined input: one update per length and
per field.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import re

from privledger.ledger import (
    ROOT_STREAM,
    ZERO_DIGEST,
    ChainReport,
    StreamItem,
)

MAX_KEY_LENGTH = 256

_STREAM_NAME_RE = re.compile(r"stream-[1-9][0-9]*-[1-9][0-9]*-[1-9][0-9]*")
_FIELD_RE = re.compile(r"[\x21-\x7e]+")  # printable ASCII, no whitespace
_TS_RE = re.compile(r"[1-9][0-9]{3}-[0-9]{2}-[0-9]{2}T[0-9]{2}:[0-9]{2}:[0-9]{2}\.[0-9]{3}Z")
_PAYLOAD_RE = re.compile(r"[\x21-\x7e]*")
_DIGEST_HEX_RE = re.compile(r"[0-9a-f]{64}")
_SEQ_RE = re.compile(r"0|[1-9][0-9]*")


def _valid_key(key: str) -> bool:
    if not isinstance(key, str) or len(key) > MAX_KEY_LENGTH:
        return False
    return all(0x21 <= ord(ch) <= 0x7E and ch not in "'\"" for ch in key)


def reference_format_ts(moment: dt.datetime) -> str:
    if moment.tzinfo is None:
        raise ValueError("ledger timestamps must be timezone-aware")
    moment = moment.astimezone(dt.timezone.utc)
    millis = moment.microsecond // 1000
    return f"{moment:%Y-%m-%dT%H:%M:%S}.{millis:03d}Z"


def reference_render_line(item: StreamItem) -> str:
    return "\t".join(
        (
            str(item.seq),
            item.stream,
            item.key,
            item.publisher,
            reference_format_ts(item.timestamp),
            item.payload.decode("ascii"),
            item.prev_digest.hex(),
            item.item_digest.hex(),
        )
    )


def reference_parse_ts(text: str) -> dt.datetime:
    if not _TS_RE.fullmatch(text):
        raise ValueError(f"invalid timestamp: {text!r}")
    base = dt.datetime.strptime(text[:19], "%Y-%m-%dT%H:%M:%S")
    return base.replace(
        microsecond=int(text[20:23], 10) * 1000, tzinfo=dt.timezone.utc
    )


def reference_parse_line(line: str) -> StreamItem:
    fields = line.split("\t")
    if len(fields) != 8:
        raise ValueError(f"expected 8 fields, got {len(fields)}")
    seq_text, stream, key, publisher, ts_text, payload, prev_hex, digest_hex = fields
    if not _SEQ_RE.fullmatch(seq_text):
        raise ValueError(f"invalid seq: {seq_text!r}")
    if stream != ROOT_STREAM and not _STREAM_NAME_RE.fullmatch(stream):
        raise ValueError(f"invalid stream name: {stream!r}")
    if key != "" and not _valid_key(key):
        raise ValueError(f"invalid key: {key!r}")
    if not _FIELD_RE.fullmatch(publisher):
        raise ValueError(f"invalid publisher: {publisher!r}")
    timestamp = reference_parse_ts(ts_text)
    if not _PAYLOAD_RE.fullmatch(payload):
        raise ValueError("payload is not printable ASCII without whitespace")
    if not _DIGEST_HEX_RE.fullmatch(prev_hex):
        raise ValueError("previous digest is not a 64-char lowercase hex digest")
    if not _DIGEST_HEX_RE.fullmatch(digest_hex):
        raise ValueError("item digest is not a 64-char lowercase hex digest")
    return StreamItem(
        seq=int(seq_text, 10),
        stream=stream,
        key=key,
        publisher=publisher,
        timestamp=timestamp,
        payload=payload.encode("ascii"),
        prev_digest=bytes.fromhex(prev_hex),
        item_digest=bytes.fromhex(digest_hex),
    )


def reference_item_digest(
    seq: int,
    stream: str,
    key: str,
    publisher: str,
    ts_text: str,
    payload: bytes,
    prev_digest: bytes,
) -> bytes:
    h = hashlib.sha256()
    for part in (
        str(seq).encode("ascii"),
        stream.encode("ascii"),
        key.encode("ascii"),
        publisher.encode("ascii"),
        ts_text.encode("ascii"),
        payload,
        prev_digest,
    ):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.digest()


def reference_verify_records(
    content: bytes,
    expected: list[StreamItem] | None = None,
    parse=reference_parse_line,
) -> ChainReport:
    """Walk a persisted chain from genesis, building and re-rendering
    every record, and report the first divergence."""
    text = content.decode("utf-8", errors="replace")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def bad(seq: int, detail: str) -> ChainReport:
        return ChainReport(
            intact=False,
            first_bad_seq=seq,
            records=len(lines),
            detail=f"seq {seq}: {detail}",
        )

    prev = ZERO_DIGEST
    for index, line in enumerate(lines):
        try:
            item = parse(line)
        except ValueError as exc:
            return bad(index, f"unparseable record ({exc})")
        if reference_render_line(item) != line:
            return bad(index, "non-canonical record encoding")
        if item.seq != index:
            return bad(index, f"sequence discontinuity (record claims {item.seq})")
        if index == 0 and item.stream != ROOT_STREAM:
            return bad(index, "the genesis is not on root")
        if index > 0 and item.stream == ROOT_STREAM:
            return bad(index, "a record on root after the genesis")
        if item.prev_digest != prev:
            return bad(index, "previous-digest link mismatch")
        recomputed = reference_item_digest(
            item.seq,
            item.stream,
            item.key,
            item.publisher,
            reference_format_ts(item.timestamp),
            item.payload,
            item.prev_digest,
        )
        if recomputed != item.item_digest:
            return bad(index, "item digest mismatch")
        if expected is not None and index < len(expected):
            if expected[index].item_digest != item.item_digest:
                return bad(index, "diverges from the in-memory chain")
        prev = item.item_digest

    if expected is not None:
        if len(lines) < len(expected):
            return bad(len(lines), "missing link at former chain tail")
        if len(lines) > len(expected):
            return bad(len(expected), "records appended out of band")
    return ChainReport(
        intact=True, first_bad_seq=None, records=len(lines), detail="chain intact"
    )
