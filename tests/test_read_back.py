"""What open keeps and what a read finds: open holds offsets and digests,
not file text, so a policy record and a ledger record are read back from
disk on every read.  A record that changed or vanished on disk since
open, or since its last read, or a read the system refuses, fails that
read with the store's CorruptRecord or a LedgerError that says to run
chain verification, and a query touching it aborts; nothing escapes as a
bare OSError, ValueError, IndexError or UnicodeDecodeError.  A query
reads each run of back-to-back records with one read, and a fault under
one record of a run fails only that record's lineage.  Also bounds the
memory Engine.open keeps per lineage, what a query adds to it, what a
warm query holds while it runs, and what a publish adds.  Every test on
an opened engine runs on both open paths: from the checkpoints the last
close wrote, and the full pass."""

from __future__ import annotations

import contextlib
import datetime as dt
import errno
import gc
import json
import os
import re
import tracemalloc

import pytest

from helpers import (
    ARCHETYPE_ATTRIBUTES,
    BENCH_ACCESSOR_ID,
    BENCH_PURPOSE,
    DEMO_ACCESSOR_ID,
    DEMO_PROVIDER_ID,
    both_open_paths,
    demo_preferences,
    indexed_line,
    install_archetype_fixture,
    install_demo_fixture,
    make_engine,
    policy_index,
    policy_line,
    record_spans,
)
from privledger.config import LEDGER_FILE
from privledger.engine import Engine
from privledger.ledger import LedgerError
from privledger.mediator import INTEGRITY_ABORT, MediationStatus, QueryRequest
from privledger.policy import Sensitivity
from privledger.store import POLICY_FILE, CorruptRecord
from privledger.tuples import PrivacyTuple, canonical_encode

NOW = dt.date(2021, 7, 1)
LINEAGE = (DEMO_PROVIDER_ID, 5, DEMO_ACCESSOR_ID)  # street_name
STREAM = "stream-4-5-3"


@pytest.fixture
def engines(tmp_path):
    """The demo opened from the checkpoints its close wrote, and opened by
    the full pass."""
    engine = make_engine(tmp_path, hash_cost=8)
    install_demo_fixture(engine)
    checkpointed, full_pass = both_open_paths(engine)
    with contextlib.closing(Engine.open(checkpointed)) as first, \
            contextlib.closing(Engine.open(full_pass)) as second:
        yield [first, second]


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


def _assert_query_aborts(engine, seq, lineage=LINEAGE):
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
    assert (entries[lineage].note, entries[lineage].seq) == ("mismatch", seq)
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


def test_a_ledger_record_changed_after_a_read_fails_the_next(engines):
    for opened in engines:
        seq = opened.ledger.stream(STREAM).seqs[-1]
        assert opened.ledger.item(seq).seq == seq
        assert opened.ledger.latest_item(STREAM).seq == seq
        path = opened.ledger.path
        span = _line_span(path, lambda line: line.startswith(f"{seq}\t".encode()))
        _change(path, span, "rewrite", _flip_payload_digit)
        expected = rf"^ledger record at seq {seq} does not match its digest; run chain"
        with pytest.raises(LedgerError, match=expected):
            opened.ledger.item(seq)
        with pytest.raises(LedgerError, match=expected):
            opened.ledger.latest_item(STREAM)
        _assert_query_aborts(opened, seq)


def test_a_ledger_read_the_system_refuses_fails_as_a_read_back(engines, monkeypatch):
    def refused(fd, length, offset):
        raise OSError(errno.EIO, "Input/output error")

    for opened in engines:
        seq = opened.ledger.stream(STREAM).seqs[-1]
        with monkeypatch.context() as patch:
            patch.setattr(os, "pread", refused)
            with pytest.raises(
                LedgerError,
                match=rf"^corrupt ledger record at seq {seq}: \[Errno 5\] .+; run chain verification$",
            ):
                opened.ledger.latest_item(STREAM)
            _assert_query_aborts(opened, seq)


def _refusing(path, span):
    """An os.pread that refuses every read of the file at path whose range
    covers any byte of span, as a bad sector under those bytes would."""
    original = os.pread
    bad_start, bad_end = span

    def pread(fd, length, offset):
        if offset < bad_end and bad_start < offset + length and os.path.samestat(
            os.fstat(fd), os.stat(path)
        ):
            raise OSError(errno.EIO, "Input/output error")
        return original(fd, length, offset)

    return pread


def _first_name_only(opened):
    untouched = opened.mediate(
        QueryRequest(
            accessor_id=DEMO_ACCESSOR_ID,
            requested_purpose="care-delivery",
            attributes=("first_name",),
            provider_id=DEMO_PROVIDER_ID,
        ),
        now=NOW,
    )
    assert untouched.status is MediationStatus.COMPLETED
    assert [entry.note for entry in untouched.verification] == ["ok"]


def test_a_policy_read_the_system_refuses_aborts_its_lineage(engines, monkeypatch):
    for opened in engines:
        seq = opened.ledger.stream(STREAM).seqs[-1]
        path = opened.config.data_dir / POLICY_FILE
        span = _line_span(path, lambda line: f'"seq": {seq},'.encode() in line)
        with monkeypatch.context() as patch:
            patch.setattr(os, "pread", _refusing(path, span))
            refused = indexed_line(opened.store, seq)
            assert isinstance(refused, OSError) and refused.errno == errno.EIO
            _assert_query_aborts(opened, seq)
            _first_name_only(opened)


def test_a_ledger_read_the_system_refuses_aborts_its_lineage(engines, monkeypatch):
    for opened in engines:
        seq = opened.ledger.stream(STREAM).seqs[-1]
        path = opened.ledger.path
        span = _line_span(path, lambda line: line.startswith(f"{seq}\t".encode()))
        with monkeypatch.context() as patch:
            patch.setattr(os, "pread", _refusing(path, span))
            with pytest.raises(
                LedgerError,
                match=rf"^corrupt ledger record at seq {seq}: \[Errno 5\] .+; run chain verification$",
            ):
                opened.ledger.latest_item(STREAM)
            _assert_query_aborts(opened, seq)
            _first_name_only(opened)


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
            opened.store.latest_tuple_instance(LINEAGE, seq, indexed_line(opened.store, seq))
        _assert_query_aborts(opened, seq)


def _stored_tuple(path, span) -> PrivacyTuple:
    start, end = span
    return PrivacyTuple.from_dict(json.loads(path.read_bytes()[start:end])["tuple"])


@pytest.mark.parametrize(
    "lineage, stored, rewritten",
    [
        # Another sensitivity hint, padded to the same length.
        (
            LINEAGE,
            '"sensitivity_hint": "Level3Confidential"',
            '"sensitivity_hint":   "Level4Restricted"',
        ),
        # The attribute id as JSON true: equal to 1 in Python, written apart.
        (
            (DEMO_PROVIDER_ID, 1, DEMO_ACCESSOR_ID),
            '"attribute": {"attribute_id": 1, "category": "Biographical"',
            '"attribute": {"attribute_id":true,"category":"Biographical"',
        ),
    ],
    ids=["other-value", "other-type"],
)
def test_a_stored_attribute_unlike_the_catalogs_is_kept_and_aborts(
    engines, lineage, stored, rewritten
):
    assert len(stored) == len(rewritten)
    stream = "stream-{}-{}-{}".format(*lineage)
    for opened in engines:
        seq = opened.ledger.stream(stream).seqs[-1]
        path = opened.config.data_dir / POLICY_FILE
        span = _line_span(path, lambda line: f'"seq": {seq},'.encode() in line)
        before, after = stored.encode(), rewritten.encode()
        _change(path, span, "rewrite", lambda line: line.replace(before, after))
        read = opened.store.latest_tuple_instance(lineage, seq, policy_line(path.parent, seq))
        attribute = _stored_tuple(path, span).attribute
        if lineage == LINEAGE:
            assert attribute.sensitivity_hint is Sensitivity.LEVEL4_RESTRICTED
        else:
            assert attribute.attribute_id is True
        # The bytes checked are the stored ones, verbatim: no catalog value
        # is put back and nothing is re-encoded, so they no longer give the
        # published commitment, and no re-seal is made.
        assert after in read.encoded
        assert read.encoded != canonical_encode(_stored_tuple(path, span))
        _assert_query_aborts(opened, seq, lineage)


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
# runs of back-to-back records
# ---------------------------------------------------------------------------

# One provider's six Demographic attributes: the fixture publishes them one
# after another, so their records lie back to back in both files and a
# query reads each file's six with one read.
RUN_REQUEST = QueryRequest(
    accessor_id=BENCH_ACCESSOR_ID,
    requested_purpose=BENCH_PURPOSE,
    attributes=ARCHETYPE_ATTRIBUTES["Demographic"],
    provider_id=2,
)


@pytest.fixture
def warm_engines(tmp_path):
    """The archetype fixture opened by both paths, each warmed by one
    RUN_REQUEST, with that query's verification entries."""
    engine = make_engine(tmp_path, hash_cost=8)
    install_archetype_fixture(engine, 3, seed=3)
    checkpointed, full_pass = both_open_paths(engine)
    with contextlib.closing(Engine.open(checkpointed)) as first, \
            contextlib.closing(Engine.open(full_pass)) as second:
        warmed = []
        for opened in (first, second):
            result = opened.mediate(RUN_REQUEST, now=NOW)
            assert result.status is MediationStatus.COMPLETED
            assert [entry.note for entry in result.verification] == ["ok"] * 6
            seqs = [entry.seq for entry in result.verification]
            for name, gap in ((POLICY_FILE, 1), (LEDGER_FILE, 0)):
                spans = record_spans(opened.config.data_dir, name, seqs)
                assert all(end + gap == start for (_, end), (start, _) in zip(spans, spans[1:]))
            warmed.append((opened, result.verification))
        yield warmed


def _assert_aborts_only(result, lineage):
    assert result.status is MediationStatus.ABORTED
    assert result.rows == () and result.ops.selects == 0
    assert [entry.lineage for entry in result.verification if entry.note != "ok"] == [lineage]


def _edit_in_place(path, at: int):
    """Change the byte at offset at of the file in place, to "0", or "1"
    where it is "0"."""
    with open(path, "r+b") as fh:
        fh.seek(at)
        old = fh.read(1)
        fh.seek(at)
        fh.write(b"1" if old == b"0" else b"0")


@pytest.mark.parametrize("fault", ["refused-read", "same-length-edit"])
@pytest.mark.parametrize("name", [POLICY_FILE, LEDGER_FILE])
def test_a_bad_record_inside_a_run_aborts_only_its_lineage(
    warm_engines, monkeypatch, name, fault
):
    for opened, entries in warm_engines:
        middle = entries[3]
        path = opened.config.data_dir / name
        start, end = record_spans(opened.config.data_dir, name, [middle.seq])[0]
        with monkeypatch.context() as patch:
            if fault == "refused-read":
                # Every read whose range covers the record fails, so the
                # run's one read does; each record is then read alone.
                patch.setattr(os, "pread", _refusing(path, (start, end)))
            elif name == POLICY_FILE:
                # The version's last digit: the line still decodes.
                _edit_in_place(path, end - len(b"}}") - 1)
            else:
                # The payload's last hex digit: the record no longer gives
                # its digest.
                record = path.read_bytes()[start:end]
                payload_end = len(b"\t".join(record.split(b"\t")[:6]))
                _edit_in_place(path, start + payload_end - 1)
            _assert_aborts_only(opened.mediate(RUN_REQUEST, now=NOW), middle.lineage)


@pytest.mark.parametrize("name", [POLICY_FILE, LEDGER_FILE])
def test_a_file_cut_inside_the_last_record_of_a_run_aborts_only_its_lineage(warm_engines, name):
    for opened, entries in warm_engines:
        last = entries[-1]
        path = opened.config.data_dir / name
        start, end = record_spans(opened.config.data_dir, name, [last.seq])[0]
        # The run's read comes back short: the records wholly inside it
        # still check, and the one it ends inside fails.
        os.truncate(path, start + (end - start) // 2)
        _assert_aborts_only(opened.mediate(RUN_REQUEST, now=NOW), last.lineage)


# ---------------------------------------------------------------------------
# memory open keeps
# ---------------------------------------------------------------------------

# Open holds, per policy.db line, its seq, version and where it is and, per
# ledger record, an offset and a 32-byte digest: no line of either file.
# Both open paths keep the same packed columns, about 0.46 KB per lineage
# here, one line each (Python 3.11; 0.61 KB while the store also kept a
# dict entry per lineage); the bound leaves a quarter of that as headroom.
MAX_KEPT_PER_LINEAGE = 576


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
        with contextlib.closing(engine):
            lineages = len(engine.ledger.streams()) - 1  # each lineage's stream, and root
            assert len(policy_index(engine.store)) == lineages == 20 * 18
        assert kept / lineages <= MAX_KEPT_PER_LINEAGE, f"{kept / lineages:.0f} B per lineage"


# A query adds, per lineage it touches, the mediator's one entry: its
# VerificationEntry, its stream's ledger row, a 32-byte fingerprint of
# the two records' bytes and the preferences, and per run of several
# lineages its digest and each lineage's entry, about 780 B per lineage
# here (Python 3.11.7; 772 B on 3.12.1 and 3.13.0), which leaves the bound
# about 20 B of headroom.  While the entry held the bare seq in place of
# a VerificationEntry and a run was keyed by its first and last seq, this
# was about 670 B; with no run digests, 660 B; with a 16-byte fingerprint,
# 645 B.  While the entry also kept the canonical encoding and the parse
# of the latest hash record, about 1.44 KB; while the store also kept the
# decoded tuple instance, about 1.73 KB; an engine that kept every ledger
# item it read, and a copy of the catalog's attribute and the accessor's
# profile in every tuple, kept about 3.35 KB.
MAX_WARM_PER_LINEAGE = 800


def test_a_query_keeps_each_lineage_once(tmp_path):
    engine = make_engine(tmp_path, hash_cost=8)
    install_archetype_fixture(engine, 20, seed=3)
    request = QueryRequest(
        accessor_id=BENCH_ACCESSOR_ID,
        requested_purpose=BENCH_PURPOSE,
        attributes=tuple(name for names in ARCHETYPE_ATTRIBUTES.values() for name in names),
    )
    for config in both_open_paths(engine):
        with contextlib.closing(Engine.open(config)) as engine:
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = engine.mediate(request, now=NOW)
                lineages = len(result.verification)
                assert result.status is MediationStatus.COMPLETED
                assert result.ops.hash_verifications == lineages == 20 * 18
                del result
                gc.collect()
                kept = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert kept / lineages <= MAX_WARM_PER_LINEAGE, f"{kept / lineages:.0f} B per lineage"


# What a warm all-provider query holds at its peak beyond what was held
# before it, per lineage: about 270 B here (Python 3.11.7; 267 B on 3.12.1
# and 3.13.0), mostly the result it returns; one provider's 18 policy.db
# lines, about 14 KB, fit one run, which stands whole on its digest and
# hands out the entries it kept.  Building a fresh entry per lineage of a
# run that stood, about 359 B; slicing every run into records, about
# 402 B; reading each record with a pread of its own, about 365 B.  A
# query that read every record of both files before checking any would
# hold about 1.5 KB more.  The bound leaves a quarter of 270 B as headroom.
MAX_PEAK_PER_LINEAGE = 338


def test_a_warm_query_holds_one_run_at_a_time(tmp_path):
    engine = make_engine(tmp_path, hash_cost=8)
    install_archetype_fixture(engine, 20, seed=3)
    request = QueryRequest(
        accessor_id=BENCH_ACCESSOR_ID,
        requested_purpose=BENCH_PURPOSE,
        attributes=tuple(name for names in ARCHETYPE_ATTRIBUTES.values() for name in names),
    )
    for config in both_open_paths(engine):
        with contextlib.closing(Engine.open(config)) as engine:
            assert engine.mediate(request, now=NOW).status is MediationStatus.COMPLETED
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                result = engine.mediate(request, now=NOW)
                peak = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
            lineages = len(result.verification)
            assert result.status is MediationStatus.COMPLETED and lineages == 20 * 18
        assert peak / lineages <= MAX_PEAK_PER_LINEAGE, f"{peak / lineages:.0f} B per lineage"


# A republish adds a ledger record's offset, digest and stream link, and a
# policy.db row: about 130 B here (Python 3.11), the arrays' spare room
# included.  Keeping each appended ledger item added about 0.6 KB.
MAX_KEPT_PER_PUBLISH = 160


def test_publishing_keeps_no_ledger_item(tmp_path):
    prefs = demo_preferences(5)
    with contextlib.closing(make_engine(tmp_path, hash_cost=8)) as engine:
        install_demo_fixture(engine)
        for _ in range(20):  # the first publish reads the last record's time once
            engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, prefs)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(200):
                engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, prefs)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert kept / 200 <= MAX_KEPT_PER_PUBLISH, f"{kept / 200:.0f} B per publish"
