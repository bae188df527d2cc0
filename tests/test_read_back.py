"""What open keeps and what a first read finds: open holds offsets and
digests, not file text, so a record is read back from disk on first
touch.  A record that changed or vanished on disk since open fails that
read with the store's CorruptRecord or a LedgerError that says to run
chain verification, and a query touching it aborts; nothing escapes as
a bare ValueError, IndexError or UnicodeDecodeError.  Also bounds the
memory Engine.open keeps per lineage.  Every test runs on both open
paths: from the checkpoints the last close wrote, and the full pass."""

from __future__ import annotations

import datetime as dt
import errno
import gc
import os
import re
import tracemalloc

import pytest

from helpers import (
    DEMO_ACCESSOR_ID,
    DEMO_PROVIDER_ID,
    both_open_paths,
    install_archetype_fixture,
    install_demo_fixture,
    make_engine,
    policy_index,
)
from privledger.engine import Engine
from privledger.ledger import LedgerError
from privledger.mediator import INTEGRITY_ABORT, MediationStatus, QueryRequest
from privledger.store import POLICY_FILE, CorruptRecord

NOW = dt.date(2021, 7, 1)
LINEAGE = (DEMO_PROVIDER_ID, 5, DEMO_ACCESSOR_ID)  # street_name
STREAM = "stream-4-5-3"


@pytest.fixture
def engines(tmp_path):
    """The demo opened from the checkpoints its close wrote, and opened by
    the full pass."""
    engine = make_engine(tmp_path, hash_cost=8)
    install_demo_fixture(engine)
    engines = [Engine.open(config) for config in both_open_paths(engine)]
    yield engines
    for engine in engines:
        engine.close()


def _line_span(path, is_target) -> tuple[int, int]:
    """Start and end (after its newline) of the last line is_target picks."""
    data = path.read_bytes()
    start, span = 0, None
    for line in data.splitlines(keepends=True):
        if is_target(line):
            span = (start, start + len(line))
        start += len(line)
    return span


def _rewrite(path, start, end, replacement: bytes):
    data = path.read_bytes()
    path.write_bytes(data[:start] + replacement + data[end:])


def _change(path, span, how, rewrite):
    start, end = span
    line = path.read_bytes()[start:end]
    if how == "rewrite":
        _rewrite(path, start, end, rewrite(line))
    elif how == "truncate":
        path.write_bytes(path.read_bytes()[: start + len(line) // 2])
    else:  # drop
        _rewrite(path, start, end, b"")


def _assert_query_aborts(engine, seq):
    result = engine.mediate(
        QueryRequest(
            accessor_id=DEMO_ACCESSOR_ID,
            requested_purpose="care-delivery",
            attributes=("street_name", "first_name"),
            provider_id=DEMO_PROVIDER_ID,
        ),
        now=NOW,
    )
    assert result.status is MediationStatus.ABORTED
    assert result.rows == ()
    assert result.denials == (
        ("street_name", INTEGRITY_ABORT),
        ("first_name", INTEGRITY_ABORT),
    )
    entries = {entry.lineage: entry for entry in result.verification}
    assert (entries[LINEAGE].note, entries[LINEAGE].seq) == ("mismatch", seq)
    assert result.ops.selects == 0


def _flip_payload_digit(line: bytes) -> bytes:
    fields = line.split(b"\t")
    fields[5] = fields[5][:-1] + (b"0" if fields[5][-1:] != b"0" else b"1")
    return b"\t".join(fields)


@pytest.mark.parametrize("how", ["rewrite", "truncate", "drop"])
def test_ledger_record_changed_after_open_fails_its_first_read(engines, how):
    for opened in engines:
        seq = opened.ledger.stream(STREAM).seqs[-1]
        path = opened.ledger.path
        span = _line_span(path, lambda line: line.startswith(f"{seq}\t".encode()))
        _change(path, span, how, _flip_payload_digit)
        # Rewritten, the fields no longer give the digest open kept; cut
        # short, they fail the field check; dropped, the next record is read
        # over it, which fails one or the other.
        expected = {
            "rewrite": rf"ledger record at seq {seq} does not match its digest",
            "truncate": rf"corrupt ledger record at seq {seq}: .+",
            "drop": rf"(corrupt )?ledger record at seq {seq}\b.+",
        }[how]
        with pytest.raises(LedgerError, match=f"^{expected}; run chain verification$"):
            opened.ledger.latest_item(STREAM)
        _assert_query_aborts(opened, seq)
        # A failed read is not cached: the next one fails again.
        with pytest.raises(LedgerError, match="run chain verification"):
            opened.ledger.item(seq)


def test_a_ledger_read_the_system_refuses_fails_as_a_read_back(engines, monkeypatch):
    def refused(fd, length, offset):
        raise OSError(errno.EIO, "Input/output error")

    for opened in engines:
        seq = opened.ledger.stream(STREAM).seqs[-1]
        for lineage in (LINEAGE, (DEMO_PROVIDER_ID, 1, DEMO_ACCESSOR_ID)):
            opened.store.latest_tuple_instance(lineage)  # read before reads fail
        with monkeypatch.context() as patch:
            patch.setattr(os, "pread", refused)
            with pytest.raises(
                LedgerError,
                match=rf"^corrupt ledger record at seq {seq}: \[Errno 5\] .+; run chain verification$",
            ):
                opened.ledger.latest_item(STREAM)
            _assert_query_aborts(opened, seq)


def _next_version(line: bytes) -> bytes:
    # Same length, so the read back decodes; the version no longer agrees.
    version = re.search(rb'"version": ([0-9])\}\}', line)
    digit = str((int(version[1]) + 1) % 10).encode()
    return line[: version.start(1)] + digit + line[version.end(1) :]


@pytest.mark.parametrize("how", ["rewrite", "truncate", "drop"])
def test_policy_record_changed_after_open_fails_its_first_read(engines, how):
    for opened in engines:
        seq = opened.ledger.stream(STREAM).seqs[-1]
        path = opened.config.data_dir / POLICY_FILE
        span = _line_span(path, lambda line: f'"seq": {seq},'.encode() in line)
        _change(path, span, how, _next_version)
        disagrees = "tuple disagrees with its stream, seq or version"
        undecodable = r"undecodable policy record \(.+\)"
        expected = {
            "rewrite": disagrees,
            "truncate": undecodable,
            "drop": f"({disagrees}|{undecodable})",
        }[how]
        where = re.escape(f"{path} line ")
        with pytest.raises(CorruptRecord, match=rf"^{where}\d+: {expected}$"):
            opened.store.latest_tuple_instance(LINEAGE)
        _assert_query_aborts(opened, seq)


def test_untouched_lineages_still_answer_after_a_change(engines):
    for opened in engines:
        seq = opened.ledger.stream(STREAM).seqs[-1]
        path = opened.ledger.path
        span = _line_span(path, lambda line: line.startswith(f"{seq}\t".encode()))
        _change(path, span, "rewrite", _flip_payload_digit)
        result = opened.mediate(
            QueryRequest(
                accessor_id=DEMO_ACCESSOR_ID,
                requested_purpose="care-delivery",
                attributes=("first_name",),
                provider_id=DEMO_PROVIDER_ID,
            ),
            now=NOW,
        )
        assert result.status is MediationStatus.COMPLETED
        assert opened.ledger.verify_chain().first_bad_seq == seq


# ---------------------------------------------------------------------------
# memory open keeps
# ---------------------------------------------------------------------------

# Open holds, per lineage, where its latest policy line is and, per ledger
# record, an offset and a 32-byte digest: no line of either file.  Both
# open paths keep the same packed columns, about 0.62 KB per lineage here
# (Python 3.11); the bound leaves a fifth of that as headroom.
MAX_KEPT_PER_LINEAGE = 768


def test_open_keeps_no_file_text(tmp_path):
    engine = make_engine(tmp_path, hash_cost=8)
    install_archetype_fixture(engine, 20, seed=3)
    for config in both_open_paths(engine):
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            engine = Engine.open(config)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        lineages = len(policy_index(engine.store))
        engine.close()
        assert lineages == 20 * 18
        assert kept / lineages <= MAX_KEPT_PER_LINEAGE, f"{kept / lineages:.0f} B per lineage"
