"""Open against the per-line references in open_reference: the chunked
ledger.db pass, and the policy.db index, one pass over the file's bytes.
On mutated records and on layouts with blank lines, surrounding
whitespace, CRLF or lone CR line ends, no final newline and bytes that
are not UTF-8, open must accept exactly the files the reference accepts
(of these layouts, only the missing final newline), build the same
indexes (read back at the offsets open kept) and refuse with the same
error text; the ledger pass and chain verification must agree with their
references also when records straddle chunks.  Also: a byte that is not
UTF-8 in any store file, and a line of a store file that breaks the line
rule (a blank or padded line, or one ending at CRLF), fails open naming
its file and line.

Checkpoints: every generated file is opened twice, from a checkpoint of
a canonical prefix taken before the change and without one, and both
opens must agree (and agree with the reference): same refusal text or
the same indexes, items, streams and chain report.  A checkpoint that is
damaged, of another checker version, over a prefix that changed or
sealed over values out of range is ignored; a leftover temporary file
changes nothing; a data directory where no checkpoint can be written
still answers.  A close after a checkpointed open and appends writes the
bytes a full pass over the same files writes.  The checkpoints of a
directory an earlier checker version wrote are ignored once, and the
first close writes them again.

policy.db's seqs must rise from line to line, as every file written
through the engine's publish has them; the generated files keep their
lines in the demo's order, so that most of them open."""

from __future__ import annotations

import contextlib
import errno
import hashlib
import re
import shutil
import tempfile
from array import array
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    DEMO_ACCESSOR_ID,
    DEMO_ACCESSOR_LOGIN,
    DEMO_ACCESSOR_PASSWORD,
    DEMO_PROVIDER_ID,
    chain_length,
    demo_preferences,
    install_demo_fixture,
    indexed_line,
    make_engine,
    policy_index,
    policy_line,
)
from ledger_reference import reference_item_digest, reference_verify_records
from open_reference import reference_index_policy, reference_load_ledger
from privledger import chain as chain_module
from privledger import files as files_module
from privledger import ledger as ledger_module
from privledger import store as store_module
from privledger.chain import verify_records
from privledger.cli import main
from privledger.engine import Engine, EngineConfig
from privledger.files import CHECKER_VERSION, CHECKPOINT_SUFFIX, checkpoint_path
from privledger.ledger import Ledger, LedgerError
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
        with contextlib.closing(make_engine(Path(tmp))) as engine:
            install_demo_fixture(engine)
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
    # A lone surrogate a mutated line may hold is written as the bytes a
    # surrogate-passing encoder makes, which are not UTF-8.
    text = ending.join(lines) + (ending if final and lines else "")
    data = text.encode("utf-8", "surrogatepass")
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
        for seq in range(chain_length(ledger)):
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
    with mock.patch.object(chain_module, "CHUNK_BYTES", chunk):
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
    with mock.patch.object(chain_module, "CHUNK_BYTES", chunk):
        for content in _mutations():
            for expected in (None, CHAIN_ITEMS):
                assert verify_records(content, expected) == reference_verify_records(
                    content, expected, parse=_parse_line
                )


# ---------------------------------------------------------------------------
# policy.db
# ---------------------------------------------------------------------------


@st.composite
def ordered_policy_lines(draw) -> list[str]:
    """Some of the demo's lines in file order, so that their seqs rise."""
    picked = draw(st.lists(st.sampled_from(POLICY_LINES), max_size=6, unique=True))
    return sorted(picked, key=POLICY_LINES.index)


@st.composite
def policy_lines(draw, line: str) -> str:
    """The line, or the line with one character changed."""
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
    lines = [draw(policy_lines(line)) for line in draw(ordered_policy_lines())]
    return draw(layouts(lines))


def _opened_index(directory: Path):
    try:
        store = Store(directory)
    except StoreError as exc:
        return "refused", str(exc)
    try:
        # Open keeps where each line starts, and the file ends after the
        # last; read each line back from there.
        data = (directory / POLICY_FILE).read_bytes()
        index = policy_index(store)
        ends = [offset for _, _, offset in index[1:]] + [len(data)]
        return "opened", [
            (seq, version, data[offset:end], row + 1)
            for row, ((seq, version, offset), end) in enumerate(zip(index, ends))
        ]
    finally:
        store.close()


def _reference_index(directory: Path):
    try:
        return "opened", reference_index_policy(directory / POLICY_FILE)
    except StoreError as exc:
        return "refused", str(exc)


@settings(max_examples=1500, deadline=None)
@given(policy_files())
@example(b"")
@example(("\r\n".join(POLICY_LINES[:2]) + "\r\n").encode())
@example((" " + POLICY_LINES[0] + "\x1c\n\n\u3000\n" + POLICY_LINES[1]).encode())
@example((POLICY_LINES[0][:20] + "\n" + POLICY_LINES[0][20:]).encode())
@example((POLICY_LINES[0] + "\n").encode() + b"\xff\n")
@example((POLICY_LINES[1] + "\n" + POLICY_LINES[0] + "\n").encode())
@example((POLICY_LINES[0] + "\n" + POLICY_LINES[0] + "\n").encode())
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
    with contextlib.closing(make_engine(tmp_path)) as engine:
        install_demo_fixture(engine)
    path = engine.config.data_dir / family
    lines = path.read_bytes().splitlines(keepends=True)
    lines[lineno - 1] = lines[lineno - 1].replace(b'"', b'"\xff', 1)
    path.write_bytes(b"".join(lines))
    # policy.db's pattern admits printable ASCII alone.
    cause = "not a policy record" if family == POLICY_FILE else "'utf-8' codec can't decode byte 0xff"
    message = rf"{family} line {lineno}: unreadable record \({re.escape(cause)}"
    with pytest.raises(StoreError, match=message):
        Engine.open(engine.config)
    assert main(["--data-dir", str(engine.config.data_dir), "ledger", "list-streams"]) == 1
    assert f"{family} line {lineno}: unreadable record" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the line rule
# ---------------------------------------------------------------------------

# Edits of a line (its bytes without the LF) that break the line rule.
BROKEN_LINES = {
    "blank": lambda line: b"",
    "padded-with-a-space": lambda line: b" " + line,
    "padded-with-u3000": lambda line: line + "\u3000".encode(),
    "crlf": lambda line: line + b"\r",
}


@pytest.mark.parametrize("layout", ["padded-with-u3000", "padded-with-a-space", "crlf"])
def test_a_policy_line_the_query_check_would_refuse_never_opens(demo_config, capsys, layout):
    """Open reads a policy.db line with the pattern a query checks it with,
    so a line open accepts is one the query reads as it is."""
    path = demo_config.data_dir / POLICY_FILE
    lines = path.read_bytes().splitlines(keepends=True)
    lines[-1] = BROKEN_LINES[layout](lines[-1].removesuffix(b"\n")) + b"\n"  # a lineage's latest
    path.write_bytes(b"".join(lines))
    with pytest.raises(StoreError) as raised:
        Engine.open(demo_config)
    where = f"{path} line {len(lines)}: unreadable record"
    assert str(raised.value) == f"{where} (not a policy record)"
    assert main(["--data-dir", str(demo_config.data_dir), "ledger", "list-streams"]) == 1
    assert where in capsys.readouterr().err


@pytest.mark.parametrize("family", ["credentials.db", "content.db"])
@pytest.mark.parametrize("layout", BROKEN_LINES)
def test_a_store_line_that_breaks_the_line_rule_fails_open(demo_config, family, layout):
    path = demo_config.data_dir / family
    line = path.read_bytes().removesuffix(b"\n")  # the demo's one record
    assert b"\n" not in line
    path.write_bytes(line + b"\n" + BROKEN_LINES[layout](line) + b"\n")
    with pytest.raises(StoreError) as raised:
        Engine.open(demo_config)
    assert str(raised.value) == (
        f"{path} line 2: unreadable record (a blank or padded line, or one with a CR)"
    )


# ---------------------------------------------------------------------------
# checkpoints: the same outcome with and without one
# ---------------------------------------------------------------------------


def _recording_starts(starts: list):
    """ledger._records, noting the file offset each pass starts at."""
    records = ledger_module._records

    def recording(fh, hasher=None):
        starts.append(fh.tell())
        return records(fh, hasher)

    return recording


@st.composite
def checkpointed_ledger_files(draw) -> tuple[bytes, bytes]:
    """A canonical ledger a checkpoint was taken of, and the file at the
    next open: the same records with more after them, or any generated
    ledger file."""
    count = draw(st.integers(1, len(CANONICAL)))
    before = ("\n".join(CANONICAL[:count]) + "\n").encode()
    if draw(st.booleans()):
        return before, draw(ledger_files())
    rest = CANONICAL[count:]
    if rest and draw(st.booleans()):
        rest[draw(st.integers(0, len(rest) - 1))] = draw(mutated_lines())
    return before, before + draw(layouts(rest))


@settings(max_examples=1000, deadline=None)
@given(checkpointed_ledger_files())
@example((("\n".join(CANONICAL) + "\n").encode(),) * 2)
@example(((CANONICAL[0] + "\n").encode(), ("\n".join(CANONICAL) + "\n").encode()))
@example(((CANONICAL[0] + "\n").encode(), ("\n".join(CANONICAL)).encode()))
def test_ledger_open_from_a_checkpoint_agrees_with_the_full_pass(files):
    before, data = files
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.db"
        path.write_bytes(before)
        ledger = Ledger(path)
        ledger.save_checkpoint()  # due after the full pass
        ledger.close()
        path.write_bytes(data)
        starts = []
        with mock.patch.object(ledger_module, "_records", _recording_starts(starts)):
            from_checkpoint = _opened_ledger(path)
        checkpoint_path(path).unlink()
        assert from_checkpoint == _opened_ledger(path) == _reference_ledger(path)
    # Where the checkpoint's records still begin the file, open's pass
    # starts after them.
    assert starts[0] == (len(before) if data.startswith(before) else 0)


@st.composite
def checkpointed_policy_files(draw) -> tuple[bytes, bytes]:
    """A policy.db a checkpoint was taken of, and the file at the next
    open: the same lines with later ones after them, or any generated
    file."""
    lines = draw(ordered_policy_lines())
    count = draw(st.integers(0, len(lines)))
    before = "".join(line + "\n" for line in lines[:count]).encode()
    if draw(st.booleans()):
        return before, draw(policy_files())
    return before, before + draw(layouts([draw(policy_lines(line)) for line in lines[count:]]))


def _counting_policy_lines(count: list):
    index_line = store_module._index_policy_line

    def counting(line):
        count.append(line)
        return index_line(line)

    return counting


@settings(max_examples=1000, deadline=None)
@given(checkpointed_policy_files())
@example((b"", b""))
@example(((POLICY_LINES[0] + "\n").encode(), (POLICY_LINES[0] + "\n").encode()))
@example(((POLICY_LINES[0] + "\n").encode(), (POLICY_LINES[0] + "\n\r\n" + POLICY_LINES[1]).encode()))
def test_policy_index_from_a_checkpoint_agrees_with_the_full_pass(files):
    before, data = files
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        for name in ("credentials.db", "content.db"):
            (directory / name).touch()
        path = directory / POLICY_FILE
        path.write_bytes(before)
        store = Store(directory)
        store.save_checkpoint()  # due after the full pass
        store.close()
        path.write_bytes(data)
        from_lines, full_lines = [], []
        with mock.patch.object(store_module, "_index_policy_line", _counting_policy_lines(from_lines)):
            from_checkpoint = _opened_index(directory)
        checkpoint_path(path).unlink()
        with mock.patch.object(store_module, "_index_policy_line", _counting_policy_lines(full_lines)):
            assert from_checkpoint == _opened_index(directory) == _reference_index(directory)
    # Where the checkpoint's lines still begin the file, open indexes none
    # of them again.
    skipped = before.count(b"\n") if data.startswith(before) else 0
    assert len(from_lines) == len(full_lines) - skipped


# ---------------------------------------------------------------------------
# checkpoints over a data directory
# ---------------------------------------------------------------------------

CHECKPOINTED = ("ledger.db", POLICY_FILE)


@pytest.fixture
def demo_config(tmp_path):
    with contextlib.closing(make_engine(tmp_path)) as engine:
        install_demo_fixture(engine)
    for name in CHECKPOINTED:
        assert checkpoint_path(engine.config.data_dir / name).exists()
    return engine.config


def _outcome(value):
    """Call value; its result, or the type and text of the error it raised."""
    try:
        return value()
    except (LedgerError, StoreError) as exc:
        return type(exc).__name__, str(exc)


def _opened_state(config):
    """What an open of the directory finds: its refusal, or every item,
    stream, policy index entry and latest instance, and the chain report.
    Closes without writing checkpoints."""
    try:
        engine = Engine.open(config)
    except (LedgerError, StoreError) as exc:
        return "refused", type(exc).__name__, str(exc)
    ledger, store = engine.ledger, engine.store
    try:
        report = ledger.verify_chain()
        items = [_outcome(lambda: ledger.item(seq)) for seq in range(chain_length(ledger))]
        streams = [(s.name, s.created_by, s.seqs) for s in ledger.streams()]
        # Each lineage's version at its stream's latest seq.
        latest = [
            _outcome(lambda: _latest(store, _lineage(name), seqs[-1]))
            for name, _, seqs in streams[1:]
        ]
        return "opened", report, items, streams, policy_index(store), latest
    finally:
        store.close()
        ledger.close()


def _latest(store, lineage, seq: int):
    """The lineage's version at seq as a query reads it, through the
    store's index; None where the index holds no line at seq."""
    line = indexed_line(store, seq)
    return None if line is None else store.latest_tuple_instance(lineage, seq, line)


def _lineage(stream: str) -> tuple[int, int, int]:
    """The lineage of a stream-P-A-X name."""
    return tuple(int(part) for part in stream.split("-")[1:])


def _checkpoints(config) -> dict[str, bytes]:
    return {
        name: checkpoint_path(config.data_dir / name).read_bytes() for name in CHECKPOINTED
    }


def _usable(config, name) -> bool:
    """Whether an open takes the file's index from its checkpoint, which
    covers the whole file: it then checks none of the file's records."""
    starts, lines = [], []
    with mock.patch.object(ledger_module, "_records", _recording_starts(starts)), \
            mock.patch.object(store_module, "_index_policy_line", _counting_policy_lines(lines)):
        opened = Ledger(config.data_dir / name) if name == "ledger.db" else Store(config.data_dir)
    opened.close()
    return starts != [0] if name == "ledger.db" else not lines


def _other_checker_version(data: bytes) -> bytes:
    """The checkpoint as the next checker version would have written it."""
    head = b"privledger checkpoint\n" + CHECKER_VERSION.to_bytes(4, "big")
    assert data.startswith(head)
    body = b"privledger checkpoint\n" + (CHECKER_VERSION + 1).to_bytes(4, "big")
    body += data[len(head) : -32]
    return body + hashlib.sha256(body).digest()


# The parts of each file's checkpoint, in order; the integer ones are
# arrays of 64-bit integers, but for the prefix length.
PARTS = {
    "ledger.db": ("length", "sha256", "offsets", "digests", "names", "creators",
                  "created_by", "last", "prev"),
    POLICY_FILE: ("length", "sha256", "offsets", "seq", "version"),
}
BYTE_PARTS = ("length", "sha256", "digests", "names", "creators")


def _resealed(name, edit):
    """A damage that edits the values of the file's checkpoint, given as
    {part: value}, then seals it again: its SHA-256 still holds."""

    def damage(data: bytes) -> bytes:
        head = at = len(b"privledger checkpoint\n") + 4
        parts = {}
        for part in PARTS[name]:
            size = int.from_bytes(data[at : at + 8], "big")
            value = data[at + 8 : at + 8 + size]
            parts[part] = value if part in BYTE_PARTS else array("q", value)
            at += 8 + size
        assert at == len(data) - 32, f"the checkpoint's parts are not {PARTS[name]}"
        edit(parts)
        values = [v if p in BYTE_PARTS else v.tobytes() for p, v in parts.items()]
        body = data[:head] + b"".join(len(v).to_bytes(8, "big") + v for v in values)
        return body + hashlib.sha256(body).digest()

    return damage


def _set(part, at, value):
    """An edit that sets an integer part's value at an index; value may be
    a function of the parts."""

    def edit(parts):
        parts[part][at] = value(parts) if callable(value) else value

    return edit


def _duplicate_last_stream_name(parts):
    names = parts["names"].split(b"\n")
    parts["names"] = b"\n".join([*names[:-1], names[-2]])


def _swap_offsets(first, second):
    """An edit that swaps two records' offsets, so they no longer rise."""

    def edit(parts):
        offsets = parts["offsets"]
        offsets[first], offsets[second] = offsets[second], offsets[first]

    return edit


def _swap_first_seqs(parts):
    seqs = parts["seq"]
    seqs[0], seqs[1] = seqs[1], seqs[0]


def _cut_last_version(parts):
    parts["version"] = parts["version"][:-1]


DAMAGES = {
    **{
        (name, damage): edit
        for damage, edit in {
            "truncated": lambda data: data[: len(data) // 2],
            "cut-short-by-a-byte": lambda data: data[:-1],
            "empty": lambda data: b"",
            "garbage": lambda data: bytes(range(256)) * 8,
            "flipped-byte": lambda data: data[:100] + bytes([data[100] ^ 1]) + data[101:],
            "other-checker-version": _other_checker_version,
        }.items()
        for name in CHECKPOINTED
    },
    # Whole and sealed, with values out of range.
    ("ledger.db", "negative-latest-seq"): _resealed("ledger.db", _set("last", -1, -1)),
    ("ledger.db", "negative-creator"): _resealed("ledger.db", _set("created_by", -1, -2)),
    ("ledger.db", "negative-record-offset"): _resealed("ledger.db", _set("offsets", -1, -1)),
    ("ledger.db", "duplicate-stream-name"): _resealed("ledger.db", _duplicate_last_stream_name),
    ("ledger.db", "swapped-record-offsets"): _resealed("ledger.db", _swap_offsets(-2, -1)),
    (POLICY_FILE, "negative-line-offset"): _resealed(POLICY_FILE, _set("offsets", -2, -1)),
    (POLICY_FILE, "negative-version"): _resealed(POLICY_FILE, _set("version", -1, -1)),
    (POLICY_FILE, "line-past-the-prefix"): _resealed(
        POLICY_FILE, _set("offsets", -1, lambda parts: int.from_bytes(parts["length"], "big") + 1)
    ),
    (POLICY_FILE, "falling-seqs"): _resealed(POLICY_FILE, _swap_first_seqs),
    (POLICY_FILE, "short-column"): _resealed(POLICY_FILE, _cut_last_version),
}


@pytest.mark.parametrize("name, damage", DAMAGES, ids=[f"{d}-{n}" for n, d in DAMAGES])
def test_damaged_checkpoint_is_ignored(demo_config, name, damage):
    path = checkpoint_path(demo_config.data_dir / name)
    path.write_bytes(DAMAGES[name, damage](path.read_bytes()))
    assert not _usable(demo_config, name)
    damaged = _opened_state(demo_config)
    path.unlink()
    assert damaged == _opened_state(demo_config)
    assert damaged[0] == "opened"
    # The full pass it ran makes the next close write a usable one.
    Engine.open(demo_config).close()
    assert _usable(demo_config, name)


def _seq_of_record_2(data: bytes) -> bytes:
    lines = data.split(b"\n")
    lines[2] = b"9" + lines[2][1:]
    return b"\n".join(lines)


def _payload_digit_of_record_1(data: bytes) -> bytes:
    lines = data.split(b"\n")
    fields = lines[1].split(b"\t")
    fields[5] = (b"1" if fields[5][:1] == b"0" else b"0") + fields[5][1:]
    lines[1] = b"\t".join(fields)
    return b"\n".join(lines)


def _next_version(data: bytes) -> bytes:
    at = data.index(b'"version": 1}}')
    return data[:at] + b'"version": 7}}' + data[at + 14 :]


CHANGES = {
    # open refuses it
    ("ledger.db", "seq"): _seq_of_record_2,
    # open accepts; the first read of that record fails
    ("ledger.db", "payload"): _payload_digit_of_record_1,
    ("ledger.db", "last-record-dropped"): lambda data: data[: data.rindex(b"\n", 0, -1) + 1],
    ("ledger.db", "record-appended-twice"): lambda data: data + data[data.rindex(b"\n", 0, -1) + 1 :],
    ("policy.db", "version"): _next_version,
    ("policy.db", "last-line-dropped"): lambda data: data[: data.rindex(b"\n", 0, -1) + 1],
    ("policy.db", "line-appended-twice"): lambda data: data + data[data.rindex(b"\n", 0, -1) + 1 :],
    ("policy.db", "blank-line-inserted"): lambda data: data.replace(b"\n", b"\n\n", 1),
}


@pytest.mark.parametrize("name, change", CHANGES, ids=[f"{n}-{c}" for n, c in CHANGES])
def test_checkpoint_over_a_changed_file_gives_the_full_pass_outcome(demo_config, name, change):
    path = demo_config.data_dir / name
    path.write_bytes(CHANGES[name, change](path.read_bytes()))
    from_checkpoint = _opened_state(demo_config)
    for other in CHECKPOINTED:
        checkpoint_path(demo_config.data_dir / other).unlink()
    assert from_checkpoint == _opened_state(demo_config)


def test_open_from_a_valid_checkpoint_checks_no_record_of_its_prefix(demo_config):
    starts, lines = [], []
    with mock.patch.object(ledger_module, "_records", _recording_starts(starts)), \
            mock.patch.object(store_module, "_index_policy_line", _counting_policy_lines(lines)):
        engine = Engine.open(demo_config)
    with contextlib.closing(engine):
        size = (demo_config.data_dir / "ledger.db").stat().st_size
        assert (starts, lines) == ([size], [])
        seq = engine.ledger.latest_seq("stream-4-5-3")
        lineage = (DEMO_PROVIDER_ID, 5, DEMO_ACCESSOR_ID)
        line = policy_line(demo_config.data_dir, seq)
        assert engine.store.latest_tuple_instance(lineage, seq, line).version == 3
        before = _checkpoints(demo_config)
    # Nothing appended, no full pass, no tail: the close wrote nothing.
    assert _checkpoints(demo_config) == before


def test_set_policy_writes_no_checkpoint_and_close_does(demo_config):
    before = _checkpoints(demo_config)
    with contextlib.closing(Engine.open(demo_config)) as engine:
        publication = engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5))
        assert _checkpoints(demo_config) == before
    after = _checkpoints(demo_config)
    assert all(after[name] != before[name] for name in CHECKPOINTED)
    assert all(_usable(demo_config, name) for name in CHECKPOINTED)
    starts = []
    with mock.patch.object(ledger_module, "_records", _recording_starts(starts)):
        engine = Engine.open(demo_config)
    with contextlib.closing(engine):
        assert starts == [(demo_config.data_dir / "ledger.db").stat().st_size]
        assert engine.ledger.latest_item("stream-4-5-3").seq == publication.seq
        lineage = (DEMO_PROVIDER_ID, 5, DEMO_ACCESSOR_ID)
        line = policy_line(demo_config.data_dir, publication.seq)
        assert engine.store.latest_tuple_instance(lineage, publication.seq, line).version == 4


def test_a_tail_past_the_checkpoint_is_checked_and_checkpointed_when_long(demo_config, monkeypatch):
    stale = _checkpoints(demo_config)
    with contextlib.closing(Engine.open(demo_config)) as engine:
        engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5))
    for name, data in stale.items():  # as if the close had not written them
        checkpoint_path(demo_config.data_dir / name).write_bytes(data)
    tail = _opened_state(demo_config)
    Engine.open(demo_config).close()  # a short tail: no new checkpoint
    assert _checkpoints(demo_config) == stale
    monkeypatch.setattr(files_module, "CHECKPOINT_TAIL_BYTES", 1)  # for both files
    Engine.open(demo_config).close()
    assert all(_checkpoints(demo_config)[name] != stale[name] for name in CHECKPOINTED)
    assert _opened_state(demo_config) == tail


@pytest.mark.parametrize("name", CHECKPOINTED)
def test_an_unterminated_file_is_checkpointed_once_an_append_ends_it(demo_config, name):
    """A file whose last line lacks its newline gets no checkpoint, not even
    after the full pass; the append that writes the newline makes one due,
    and the next open takes it and answers as the full pass does."""
    path = demo_config.data_dir / name
    path.write_bytes(path.read_bytes().removesuffix(b"\n"))
    checkpoint_path(path).unlink()  # so the open runs the full pass
    Engine.open(demo_config).close()
    assert not checkpoint_path(path).exists()
    with contextlib.closing(Engine.open(demo_config)) as engine:
        engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5))
    assert _usable(demo_config, name)  # checks no record of its prefix
    from_checkpoint = _opened_state(demo_config)
    assert from_checkpoint[0] == "opened"
    for other in CHECKPOINTED:
        checkpoint_path(demo_config.data_dir / other).unlink()
    assert _opened_state(demo_config) == from_checkpoint


def test_close_after_a_checkpointed_open_writes_what_the_full_pass_writes(demo_config):
    starts = []
    with mock.patch.object(ledger_module, "_records", _recording_starts(starts)):
        engine = Engine.open(demo_config)
    with contextlib.closing(engine):
        assert starts == [(demo_config.data_dir / "ledger.db").stat().st_size]
        for attribute_id in (5, 6, 1, 5):  # a new lineage among those the checkpoint holds
            engine.set_policy(
                DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(attribute_id), attribute_id
            )
    written = _checkpoints(demo_config)
    for name in CHECKPOINTED:
        checkpoint_path(demo_config.data_dir / name).unlink()
    Engine.open(demo_config).close()  # the full pass
    assert _checkpoints(demo_config) == written


# A data directory with both checkpoints, as the code before the index was
# kept in the checkpoint's columns alone wrote it (checker version 1, with
# a policy.db index per lineage): the demo plus a fourth version of its
# street_name lineage, so the two lineage streams interleave.  Its data
# files were since brought to data format 4 (a nonce in each policy.db
# line, commitments as ledger payloads, the chain re-derived); its
# checkpoints are byte for byte the ones checker version 1 wrote.
EARLIER_CHECKPOINTED = Path(__file__).resolve().parent.parent / "fixtures" / "checkpointed"


def _copy_earlier_checkpointed(data_dir: Path):
    """Copy the fixture with the modes init gives: a checkout leaves its
    directory 0755 and its files 0644, which every command refuses."""
    shutil.copytree(EARLIER_CHECKPOINTED, data_dir)
    data_dir.chmod(0o700)
    for path in data_dir.iterdir():
        path.chmod(0o600)


def _checker_version(checkpoint: bytes) -> int:
    head = len(b"privledger checkpoint\n")
    return int.from_bytes(checkpoint[head : head + 4], "big")


def test_a_checker_version_1_directory_is_ignored_once_and_rewritten(tmp_path):
    config = EngineConfig(data_dir=tmp_path / "data", hash_cost=8)
    _copy_earlier_checkpointed(config.data_dir)
    earlier = _checkpoints(config)
    assert {_checker_version(data) for data in earlier.values()} == {1}
    assert not any(_usable(config, name) for name in CHECKPOINTED)
    ignored = _opened_state(config)
    assert ignored[0] == "opened"
    streams = ignored[3]
    assert [(name, seqs) for name, _, seqs in streams] == [
        ("root", []), ("stream-4-5-3", [1, 2, 3, 8]), ("stream-4-1-3", [4, 5, 6, 7])
    ]
    bare = EngineConfig(data_dir=tmp_path / "bare", hash_cost=8)
    _copy_earlier_checkpointed(bare.data_dir)
    for name in CHECKPOINTED:
        checkpoint_path(bare.data_dir / name).unlink()
    assert _opened_state(bare) == ignored  # as the full pass answers
    # The first close writes both checkpoints again, at this checker
    # version, and the next open takes them.
    Engine.open(config).close()
    rewritten = _checkpoints(config)
    assert {_checker_version(data) for data in rewritten.values()} == {CHECKER_VERSION} == {3}
    assert all(_usable(config, name) for name in CHECKPOINTED)
    assert _opened_state(config) == ignored
    Engine.open(bare).close()
    assert _checkpoints(bare) == rewritten


def test_a_query_over_swapped_record_offsets_answers_as_the_full_pass(tmp_path, capsys):
    config = EngineConfig(data_dir=tmp_path / "data", hash_cost=8)
    _copy_earlier_checkpointed(config.data_dir)
    Engine.open(config).close()  # checkpoints of this checker version
    path = checkpoint_path(config.data_dir / "ledger.db")
    path.write_bytes(_resealed("ledger.db", _swap_offsets(7, 8))(path.read_bytes()))
    query = [
        "--data-dir", str(config.data_dir), "--json", "query",
        "--login", DEMO_ACCESSOR_LOGIN, "--password", DEMO_ACCESSOR_PASSWORD,
        "--purpose", "care-delivery", "--attributes", "first_name,street_name",
        "--now", "2021-07-01",
    ]
    assert main(query) == 0
    swapped = capsys.readouterr()
    assert swapped.err == ""
    path.unlink()
    assert main(query) == 0
    assert _without_timing(swapped.out) == _without_timing(capsys.readouterr().out)


TOO_LARGE = "a seq, id or version is 2**63 or more"


@pytest.mark.parametrize("accessor_id, opens", [(2**63 - 1, True), (2**63, False)])
def test_a_policy_line_number_beyond_64_bits_is_unreadable(demo_config, accessor_id, opens):
    path = demo_config.data_dir / POLICY_FILE
    lines = path.read_bytes().splitlines(keepends=True)
    assert b'"seq": 7, ' in lines[-1]
    lines.append(
        lines[-1]
        .replace(b'"seq": 7, ', b'"seq": 8, ')
        .replace(b"stream-4-1-3", f"stream-4-1-{accessor_id}".encode())
    )
    path.write_bytes(b"".join(lines))
    checkpoint_path(path).unlink()  # so that open runs the full pass and close writes one
    if not opens:
        message = f"{path} line {len(lines)}: unreadable record ({TOO_LARGE})"
        with pytest.raises(StoreError) as raised:
            Store(demo_config.data_dir)
        assert str(raised.value) == message
        return
    store = Store(demo_config.data_dir)
    assert policy_index(store)[-1][:2] == (8, 4)  # its seq and version
    store.save_checkpoint()
    store.close()
    assert _usable(demo_config, POLICY_FILE)


def _temporaries(data_dir) -> list[str]:
    return sorted(p.name for p in data_dir.iterdir() if f"{CHECKPOINT_SUFFIX}." in p.name)


def test_leftover_temporary_file_changes_nothing(demo_config):
    data_dir = demo_config.data_dir
    clean = _opened_state(demo_config)
    for name in CHECKPOINTED:
        (data_dir / f"{name}{CHECKPOINT_SUFFIX}.x1y2z3").write_bytes(b"half a checkpoint")
    assert _opened_state(demo_config) == clean
    with contextlib.closing(Engine.open(demo_config)) as engine:
        engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5))
    assert all(_usable(demo_config, name) for name in CHECKPOINTED)
    assert _temporaries(data_dir) == [
        f"{name}{CHECKPOINT_SUFFIX}.x1y2z3" for name in CHECKPOINTED
    ]


def test_failed_checkpoint_write_leaves_no_temporary_file(demo_config, monkeypatch):
    before = _checkpoints(demo_config)
    with contextlib.closing(Engine.open(demo_config)) as engine:
        engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5))

        def full_disk(*args):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(files_module.os, "replace", full_disk)
    # The close raised nothing.
    monkeypatch.undo()
    assert _checkpoints(demo_config) == before
    assert _temporaries(demo_config.data_dir) == []
    assert _opened_state(demo_config)[0] == "opened"


def _without_timing(out: str) -> list[str]:
    return [line for line in out.splitlines() if '"record": "timing"' not in line]


def test_read_only_data_directory_still_answers(demo_config, monkeypatch, capsys):
    data_dir = demo_config.data_dir
    query = [
        "--data-dir", str(data_dir), "--json", "query",
        "--login", DEMO_ACCESSOR_LOGIN, "--password", DEMO_ACCESSOR_PASSWORD,
        "--purpose", "care-delivery", "--attributes", "street_name,first_name",
        "--provider", str(DEMO_PROVIDER_ID), "--now", "2021-07-01",
    ]
    assert main(query) == 0  # takes the lock file, so the next query needs no new file
    answer = capsys.readouterr().out
    for name in CHECKPOINTED:
        checkpoint_path(data_dir / name).unlink()  # so close has one to write
    files = sorted(p.name for p in data_dir.iterdir())

    def read_only(file, mode="r", *args, **kwargs):  # also where the permission bits do not bind
        if "x" in mode:  # creates a file
            raise PermissionError(errno.EACCES, "Permission denied")
        return open(file, mode, *args, **kwargs)

    monkeypatch.setattr(files_module, "open", read_only, raising=False)
    data_dir.chmod(0o500)  # no write permission; the group and others have none
    try:
        assert main(query) == 0
    finally:
        data_dir.chmod(0o700)
    assert _without_timing(capsys.readouterr().out) == _without_timing(answer)
    assert sorted(p.name for p in data_dir.iterdir()) == files
