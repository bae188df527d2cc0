"""Open against the per-line references in open_reference: the chunked
ledger.db pass, and the policy.db index, one pass over the file's bytes.
On mutated records and on layouts with blank lines, surrounding
whitespace, CRLF or lone CR line ends, no final newline and bytes that
are not UTF-8, open must accept exactly the files the reference accepts,
build the same indexes (read back at the offsets open kept) and refuse
with the same error text; the ledger pass and chain verification must
agree with their references also when records straddle chunks.  Also: a
byte that is not UTF-8 in any store file fails open naming its file and
line."""

from __future__ import annotations

import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import install_demo_fixture, make_engine
from ledger_reference import reference_item_digest, reference_verify_records
from open_reference import reference_index_policy, reference_load_ledger
from privledger import ledger as ledger_module
from privledger.cli import main
from privledger.engine import Engine
from privledger.ledger import Ledger, LedgerError, verify_records
from privledger.store import POLICY_FILE, Store, StoreError
from test_ledger_pattern import (
    ALPHABET,
    CANONICAL,
    CHAIN_ITEMS,
    _mutations,
    _parse_line,
    mutated_lines,
)

# Whitespace as str.strip sees it (every one but \n), plus characters that
# look like it and are not.
SPACES = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0", "\u1680", "\u2028", "\u3000"]
NOT_SPACES = ["\u200b", "\ufeff", "\x00"]
NOT_UTF8 = [b"\xff", b"\xc3", b"\xed\xa0\x80"]


def _demo_policy_lines() -> list[str]:
    with tempfile.TemporaryDirectory() as tmp:
        engine = make_engine(Path(tmp))
        install_demo_fixture(engine)
        engine.close()
        return (engine.config.data_dir / POLICY_FILE).read_text().splitlines()


POLICY_LINES = _demo_policy_lines()


@st.composite
def layouts(draw, lines: list[str]) -> bytes:
    """The lines as a file's bytes, under up to three layout changes."""
    lines = list(lines)
    ending = "\n"
    final = True
    splices: list[bytes] = []
    for change in draw(
        st.lists(
            st.sampled_from(
                ["blank", "pad", "crlf", "cr", "no_final_newline", "not_utf8", "drop", "repeat"]
            ),
            max_size=3,
        )
    ):
        if change == "blank":
            blank = "".join(draw(st.lists(st.sampled_from(SPACES), max_size=2)))
            lines.insert(draw(st.integers(0, len(lines))), blank)
        elif change == "pad" and lines:
            index = draw(st.integers(0, len(lines) - 1))
            before = draw(st.sampled_from(["", *SPACES]))
            after = draw(st.sampled_from(["", *SPACES, *NOT_SPACES]))
            lines[index] = before + lines[index] + after
        elif change == "crlf":
            ending = "\r\n"
        elif change == "cr":
            ending = "\r"
        elif change == "no_final_newline":
            final = False
        elif change == "not_utf8":
            splices.append(draw(st.sampled_from(NOT_UTF8)))
        elif change == "drop" and lines:
            del lines[draw(st.integers(0, len(lines) - 1))]
        elif change == "repeat" and lines:
            index = draw(st.integers(0, len(lines) - 1))
            lines.insert(draw(st.integers(0, len(lines))), lines[index])
    data = (ending.join(lines) + (ending if final and lines else "")).encode("utf-8")
    for splice in splices:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + splice + data[at:]
    return data


# ---------------------------------------------------------------------------
# ledger.db
# ---------------------------------------------------------------------------


@st.composite
def ledger_files(draw) -> bytes:
    lines = list(CANONICAL)
    if draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] = draw(mutated_lines())
    return draw(layouts(lines))


def _opened_ledger(path: Path):
    try:
        ledger = Ledger(path)
    except LedgerError as exc:
        return "refused", str(exc)
    try:
        # Verification first, while no item is built: it reads the
        # digests open kept.
        report = ledger.verify_chain()
        items = []
        for seq in range(ledger.chain_length()):
            try:
                items.append(ledger.item(seq))
            except LedgerError as exc:
                items.append(("refused", str(exc)))
        streams = [(s.name, s.created_by, s.seqs) for s in ledger.streams()]
        return "opened", items, streams, report
    finally:
        ledger.close()


def _reference_ledger(path: Path):
    try:
        lines, streams = reference_load_ledger(path)
    except LedgerError as exc:
        return "refused", str(exc)
    items = [_parse_line(line) for line in lines]
    report = verify_records(path.read_bytes(), items)
    # A record's first read re-derives its item digest from its fields and
    # refuses the record when the digest it carries does not match.
    read = [
        item
        if reference_item_digest(
            item.seq, item.stream, item.key, item.publisher,
            line.split("\t")[4], item.payload, item.prev_digest,
        )
        == item.item_digest
        else (
            "refused",
            f"ledger record at seq {seq} does not match its digest; run chain verification",
        )
        for seq, (item, line) in enumerate(zip(items, lines))
    ]
    return "opened", read, [(n, c, s) for n, (c, s) in streams.items()], report


@settings(max_examples=1500, deadline=None)
@given(ledger_files())
@example("\n".join(CANONICAL).encode())
@example(("\n".join(CANONICAL) + "\n\n").encode())
@example(b"\n")
@example(("\n".join(CANONICAL[1:]) + "\n").encode())
def test_ledger_open_agrees_with_reference(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.db"
        path.write_bytes(data)
        assert _opened_ledger(path) == _reference_ledger(path)


# Chunk sizes at which records straddle chunks: a byte at a time, a few
# bytes, and less than one record.
SMALL_CHUNKS = [1, 7, 64]


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
@settings(max_examples=300, deadline=None)
@given(data=ledger_files())
@example(data="\n".join(CANONICAL).encode())
@example(data=b"\n")
def test_ledger_open_and_verify_agree_with_reference_across_chunks(chunk, data):
    with mock.patch.object(ledger_module, "CHUNK_BYTES", chunk):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ledger.db"
            path.write_bytes(data)
            assert _opened_ledger(path) == _reference_ledger(path)
        for expected in (None, CHAIN_ITEMS):
            assert verify_records(data, expected) == reference_verify_records(
                data, expected, parse=_parse_line
            )


@pytest.mark.parametrize("chunk", SMALL_CHUNKS)
def test_verifier_agrees_with_reference_on_every_flip_across_chunks(chunk):
    with mock.patch.object(ledger_module, "CHUNK_BYTES", chunk):
        for content in _mutations():
            for expected in (None, CHAIN_ITEMS):
                assert verify_records(content, expected) == reference_verify_records(
                    content, expected, parse=_parse_line
                )


# ---------------------------------------------------------------------------
# policy.db
# ---------------------------------------------------------------------------


@st.composite
def policy_lines(draw) -> str:
    line = draw(st.sampled_from(POLICY_LINES))
    if draw(st.booleans()):
        # Most of a record is its tuple, which the index does not read;
        # aim half of the changes at the fields it does read.
        region = draw(st.sampled_from(["head", "tail", "anywhere"]))
        low, high = {"head": (0, 160), "tail": (len(line) - 40, len(line) - 1)}.get(
            region, (0, len(line) - 1)
        )
        index = draw(st.integers(low, high))
        char = draw(st.sampled_from(ALPHABET + SPACES + NOT_SPACES + ["\n", "\r", "\\", "{", "}"]))
        line = line[:index] + char + line[index + 1 :]
    return line


@st.composite
def policy_files(draw) -> bytes:
    return draw(layouts(draw(st.lists(policy_lines(), max_size=6))))


def _opened_index(directory: Path):
    try:
        store = Store(directory)
    except StoreError as exc:
        return "refused", str(exc)
    try:
        # Open keeps where each line is; read the line back from there.
        latest = [
            (held.version, held.seq, store._policy_line(held), held.lineno)
            for held in store._latest.values()
        ]
        return "opened", latest, list(store._latest)
    finally:
        store.close()


def _reference_index(directory: Path):
    try:
        latest = reference_index_policy(directory / POLICY_FILE)
    except StoreError as exc:
        return "refused", str(exc)
    return "opened", list(latest.values()), list(latest)


@settings(max_examples=1500, deadline=None)
@given(policy_files())
@example(b"")
@example(("\r\n".join(POLICY_LINES[:2]) + "\r\n").encode())
@example((" " + POLICY_LINES[0] + "\x1c\n\n\u3000\n" + POLICY_LINES[1]).encode())
@example((POLICY_LINES[0][:20] + "\n" + POLICY_LINES[0][20:]).encode())
@example((POLICY_LINES[0] + "\n").encode() + b"\xff\n")
def test_policy_index_agrees_with_reference(data):
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name in ("credentials.db", "content.db"):
            (directory / name).touch()
        (directory / POLICY_FILE).write_bytes(data)
        assert _opened_index(directory) == _reference_index(directory)


# ---------------------------------------------------------------------------
# bytes that are not UTF-8
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "family, lineno", [("credentials.db", 1), ("policy.db", 2), ("content.db", 1)]
)
def test_non_utf8_byte_fails_open_naming_file_and_line(tmp_path, capsys, family, lineno):
    engine = make_engine(tmp_path)
    install_demo_fixture(engine)
    engine.close()
    path = engine.config.data_dir / family
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1].replace(b'"', b'"\xff', 1)
    path.write_bytes(b"".join(lines))
    message = rf"{family} line {lineno}: unreadable record \('utf-8' codec can't decode byte 0xff"
    with pytest.raises(StoreError, match=message):
        Engine.open(engine.config)
    assert main(["--data-dir", str(engine.config.data_dir), "ledger", "list-streams"]) == 1
    assert f"{family} line {lineno}: unreadable record" in capsys.readouterr().err
