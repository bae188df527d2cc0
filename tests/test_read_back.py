"""What open keeps and what a read finds: open holds offsets and digests,
not file text, so a policy record and a ledger record are read back from
disk on every read.  A record that changed or vanished on disk since
open, or since its last read, or a read the system refuses, fails that
read with the store's CorruptRecord or a LedgerError that says to run
chain verification, and a query touching it aborts; nothing escapes as a
bare OSError, ValueError, IndexError or UnicodeDecodeError.  Also bounds
the memory Engine.open keeps per lineage, what a query adds to it, and
what a publish adds.  Every test on an opened engine runs on both open
paths: from the checkpoints the last close wrote, and the full pass."""

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
    install_archetype_fixture,
    install_demo_fixture,
    make_engine,
    policy_index,
)
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


def test_a_policy_read_the_system_refuses_aborts_its_lineage(engines, monkeypatch):
    original = os.pread
    for opened in engines:
        seq = opened.ledger.stream(STREAM).seqs[-1]
        path = opened.config.data_dir / POLICY_FILE
        start, _ = _line_span(path, lambda line: f'"seq": {seq},'.encode() in line)

        def refused(fd, length, offset):
            # A bad sector under that one policy.db line.
            if offset == start and os.path.samestat(os.fstat(fd), os.stat(path)):
                raise OSError(errno.EIO, "Input/output error")
            return original(fd, length, offset)

        with monkeypatch.context() as patch:
            patch.setattr(os, "pread", refused)
            where = re.escape(f"{path} line ")
            with pytest.raises(
                CorruptRecord, match=rf"^{where}\d+: unreadable policy record \(\[Errno 5\] .+\)$"
            ):
                opened.store.latest_tuple_instance(LINEAGE, seq)
            _assert_query_aborts(opened, seq)
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
            opened.store.latest_tuple_instance(LINEAGE, seq)
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
        instance = opened.store.latest_tuple_instance(lineage, seq)
        attribute = instance.privacy_tuple.attribute
        assert attribute == _stored_tuple(path, span).attribute
        if lineage == LINEAGE:
            assert attribute.sensitivity_hint is Sensitivity.LEVEL4_RESTRICTED
        else:
            assert attribute.attribute_id is True
        # The encoding is of the stored values, so it no longer gives the
        # published hash, and no re-seal is made.
        assert canonical_encode(instance.privacy_tuple) == canonical_encode(
            _stored_tuple(path, span)
        )
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


# A query adds, per lineage it touches, the mediator's one entry: the seq,
# a 16-byte fingerprint of the two records' bytes and the preferences,
# about 645 B per lineage here (Python 3.11).  The bound leaves about a
# quarter of that as headroom.  While the entry also kept the canonical encoding and
# the parse of the latest hash record, this was about 1.44 KB; while the
# store also kept the decoded tuple instance, about 1.73 KB; an engine that
# kept every ledger item it read, and a copy of the catalog's attribute
# and the accessor's profile in every tuple, kept about 3.35 KB.
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
