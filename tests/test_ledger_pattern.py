"""The single-pattern ledger record parser and the match-based chain
verifier against their field-by-field references, and what open and
verification do with a record the parser refuses."""

from __future__ import annotations

import datetime as dt
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import TickingClock, chain_length, named_ledger
from ledger_reference import (
    reference_parse_line,
    reference_render_line,
    reference_verify_records,
)
from privledger.chain import _check_line, verify_file, verify_records
from privledger.cli import main
from privledger.config import FORMAT, FORMAT_FILE, private
from privledger.ledger import Ledger, LedgerError, _build_item, _match_line


def _parse_line(line: str):
    """The ledger's own reading of a record: its pattern match, then its item."""
    return _build_item(_match_line(line))


def _canonical_chain(last_payload=b"x"):
    """The persisted bytes and the in-memory items of a 7-record chain."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.db"
        clock = TickingClock(dt.datetime(2024, 2, 28, 23, 59, 59, 998000, tzinfo=dt.timezone.utc))
        led = named_ledger(path, "node-0123abcd", clock)
        for stream in ("stream-4-5-3", "stream-120-18-7"):
            led.create_stream(stream, "key17", b"$pbkdf2$1024$" + b"ab" * 16 + b"$" + b"cd" * 32)
            led.publish(stream, "key18", b"!~'\"\\{}")
        led.publish("stream-4-5-3", "", b"")
        led.publish("stream-4-5-3", "k" * 256, last_payload)
        items = [led.item(seq) for seq in range(chain_length(led))]  # read back while open
        led.close()
        return path.read_bytes(), items


CHAIN, CHAIN_ITEMS = _canonical_chain()
CANONICAL = CHAIN.decode("ascii").splitlines()

# Characters a mutation may write: field syntax, hex case, whitespace,
# quotes, and digits outside ASCII (Arabic-Indic, fullwidth, Devanagari).
# A payload admits every printable ASCII character, so only whitespace,
# control characters and non-ASCII ones make it refused.
ALPHABET = list("0159afgAFZTt-:.$'\" \t\x7f\x00é") + ["٣", "５", "३"]
NON_ASCII_DIGITS = ["٠", "٣", "０", "５", "३"]


def _replace(text: str, index: int, char: str) -> str:
    return text[:index] + char + text[index + 1 :]


@st.composite
def mutated_lines(draw) -> str:
    line = draw(st.sampled_from(CANONICAL))
    fields = line.split("\t")
    kind = draw(
        st.sampled_from(
            ["none", "flip", "quote_in_key", "unprintable_payload", "upper_hex",
             "non_ascii_digit", "date", "drop_tab", "extra_tab"]
        )
    )
    if kind == "flip":
        index = draw(st.integers(0, len(line) - 1))
        char = draw(st.sampled_from(ALPHABET) | st.characters())
        return _replace(line, index, char)
    if kind == "quote_in_key":
        key = fields[2]
        index = draw(st.integers(0, len(key)))
        fields[2] = key[:index] + draw(st.sampled_from(["'", '"'])) + key[index:]
    elif kind == "unprintable_payload":
        payload = fields[5]
        index = draw(st.integers(0, len(payload)))
        char = draw(st.sampled_from([" ", "\x7f", "\x00", "\x0b", "é", "٣"]))
        fields[5] = payload[:index] + char + payload[index:]
    elif kind == "upper_hex":
        column = draw(st.sampled_from([6, 7]))
        letters = [i for i, ch in enumerate(fields[column]) if ch in "abcdef"]
        if letters:
            index = draw(st.sampled_from(letters))
            fields[column] = _replace(fields[column], index, fields[column][index].upper())
    elif kind == "non_ascii_digit":
        column = draw(st.sampled_from([0, 4]))
        digits = [i for i, ch in enumerate(fields[column]) if ch.isdigit()]
        index = draw(st.sampled_from(digits))
        fields[column] = _replace(fields[column], index, draw(st.sampled_from(NON_ASCII_DIGITS)))
    elif kind == "date":
        year = draw(st.sampled_from(["0000", "0001", "1999", "2023", "2024", "2100", "9999"]))
        month, day = draw(st.integers(0, 13)), draw(st.integers(0, 32))
        hour, minute, second = draw(st.integers(0, 25)), draw(st.integers(0, 61)), draw(st.integers(0, 61))
        fields[4] = f"{year}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}" + fields[4][19:]
    elif kind == "drop_tab":
        index = draw(st.integers(0, len(fields) - 2))
        fields[index : index + 2] = [fields[index] + fields[index + 1]]
    elif kind == "extra_tab":
        column = draw(st.integers(0, len(fields) - 1))
        index = draw(st.integers(0, len(fields[column])))
        fields[column] = fields[column][:index] + "\t" + fields[column][index:]
    return "\t".join(fields)


def _outcome(parse, line):
    try:
        return parse(line)
    except ValueError:
        return "refused"


@settings(max_examples=1500, deadline=None)
@given(mutated_lines())
@example("\t".join(["0", "root", "", "node-1", "2021-02-30T00:00:00.000Z", "", "0" * 64, "0" * 64]))
@example("\t".join(["0", "root", "", "node-1", "2024-02-29T23:59:59.999Z", "a b", "0" * 64, "0" * 64]))
def test_pattern_parser_agrees_with_reference(line):
    expected = _outcome(reference_parse_line, line)
    assert _outcome(_parse_line, line) == expected
    # The check open runs, which builds nothing, draws the same line.
    checked = _outcome(lambda text: _check_line(text, set()), line)
    assert (checked == "refused") == (expected == "refused")


@settings(max_examples=1500, deadline=None)
@given(mutated_lines())
@example("\t".join(["0", "root", "", "node-1", "0001-01-01T00:00:00.000Z", "", "0" * 64, "0" * 64]))
@example("\t".join(["0", "root", "", "node-1", "0999-12-31T23:59:59.999Z", "ab", "0" * 64, "0" * 64]))
def test_accepted_lines_render_canonically(line):
    # Chain verification does not re-render records, so the field rules
    # alone must admit no encoding but the one _append writes.
    if _outcome(lambda text: _check_line(text, set()), line) != "refused":
        assert reference_render_line(_parse_line(line)) == line


def test_canonical_lines_parse_identically():
    for line in CANONICAL:
        assert _parse_line(line) == reference_parse_line(line)


@pytest.mark.parametrize("digit", NON_ASCII_DIGITS)
def test_non_ascii_timestamp_digits_are_refused(digit):
    line = CANONICAL[0]
    fields = line.split("\t")
    fields[4] = digit + fields[4][1:]
    with pytest.raises(ValueError, match="timestamp"):
        _parse_line("\t".join(fields))


def test_refusal_names_the_failing_field():
    fields = CANONICAL[1].split("\t")
    fields[5] = "two words"
    with pytest.raises(ValueError, match="invalid payload: 'two words'"):
        _parse_line("\t".join(fields))
    with pytest.raises(ValueError, match="expected 8 fields, got 9"):
        _parse_line(CANONICAL[1] + "\textra")


def _write_dated(tmp_path, date):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    led.create_stream("stream-4-5-3", "key17", b"v1")
    led.publish("stream-4-5-3", "key18", b"v2")
    led.close()
    with open(tmp_path / FORMAT_FILE, "w", opener=private) as fh:  # ledger verify refuses 0644
        fh.write(FORMAT)
    lines = path.read_text().splitlines()
    fields = lines[2].split("\t")
    fields[4] = date + fields[4][10:]
    lines[2] = "\t".join(fields)
    path.write_text("\n".join(lines) + "\n")
    return path


def _write_calendar_invalid(tmp_path):
    return _write_dated(tmp_path, "2021-02-30")


def test_calendar_invalid_timestamp_refused_at_open(tmp_path):
    path = _write_calendar_invalid(tmp_path)
    with pytest.raises(LedgerError, match="position 2: .*run chain verification"):
        Ledger(path)


def test_calendar_invalid_timestamp_reported_by_verify(tmp_path, capsys):
    path = _write_calendar_invalid(tmp_path)
    report = verify_file(path)
    assert not report.intact
    assert report.first_bad_seq == 2
    assert "unparseable" in report.detail
    assert main(["--data-dir", str(tmp_path), "ledger", "verify"]) == 5
    assert "seq 2: unparseable record" in capsys.readouterr().out


def test_year_below_1000_refused_at_open_and_by_verify(tmp_path):
    # %Y renders year 999 as "999", so a record dated 0999 has no
    # canonical encoding; open and verify both refuse it as unparseable.
    path = _write_dated(tmp_path, "0999-06-01")
    with pytest.raises(LedgerError, match="position 2: invalid timestamp.*run chain verification"):
        Ledger(path)
    report = verify_file(path)
    assert not report.intact
    assert report.first_bad_seq == 2
    assert report.detail.startswith("seq 2: unparseable record (invalid timestamp")


def _mutations():
    """Every single-byte XOR 0x01 flip and every hex case flip of CHAIN."""
    for position in range(len(CHAIN)):
        mutated = bytearray(CHAIN)
        mutated[position] ^= 0x01
        yield bytes(mutated)
        if CHAIN[position] in b"abcdef":
            mutated[position] = CHAIN[position] - 0x20
            yield bytes(mutated)


def _without_reason(report):
    # The reference parser words its refusals in its own way.
    detail = report.detail
    if "unparseable record (" in detail:
        detail = detail[: detail.index("(")]
    return (report.intact, report.first_bad_seq, report.records, detail)


def test_verifier_agrees_with_reference_on_every_flip():
    for content in _mutations():
        for expected in (None, CHAIN_ITEMS):
            report = verify_records(content, expected)
            assert not report.intact
            # Built on the ledger's own parser, the reference words each
            # refusal as verify_records does, so the reports are equal.
            assert report == reference_verify_records(content, expected, parse=_parse_line)
            assert _without_reason(report) == _without_reason(
                reference_verify_records(content, expected)
            )


def _with_record(seq, line):
    lines = CANONICAL.copy()
    lines[seq] = line
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize(
    "content, expected",
    [
        (CHAIN[: CHAIN.rindex(b"\n", 0, -1) + 1], CHAIN_ITEMS),
        (CHAIN + CANONICAL[-1].encode() + b"\n", CHAIN_ITEMS),
        # A self-consistent file whose last record differs from memory.
        (CHAIN, _canonical_chain(last_payload=b"y")[1]),
        # Digests aside, the genesis rule catches a record on the wrong
        # side of it before the links do.
        (_with_record(3, CANONICAL[3].replace("\tstream-120-18-7\t", "\troot\t")), None),
        (_with_record(0, CANONICAL[0].replace("\troot\t", "\tstream-1-1-1\t")), None),
    ],
    ids=["truncated-tail", "out-of-band-append", "diverged", "root-after-genesis", "genesis-off-root"],
)
def test_verifier_agrees_with_reference_on_whole_records(content, expected):
    report = verify_records(content, expected)
    assert not report.intact
    assert report == reference_verify_records(content, expected)
