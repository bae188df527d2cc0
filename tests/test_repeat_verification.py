"""Repeat verification: every query reads both records of each published
lineage it touches back from disk, the policy.db line and the ledger
record at the stream's latest seq, and compares their bytes with the
fingerprint the mediator keeps of the bytes a check passed on.  The
commitment is checked, and the preferences decoded, only where they
differ: once per lineage version per engine, and again after any change
on disk, so a new version, a record tampered between two queries, or one
restored, decides the very next query, and a mismatch is checked again
by every query.  A run of back-to-back
lineages stands whole on one digest of its bytes in both files while
each of its lineages keeps its entry.  Each test runs on both open
paths: from the checkpoints the last close wrote, and the full pass."""

from __future__ import annotations

import datetime as dt
import json
import os
import re
from collections import Counter
from contextlib import closing
from pathlib import Path

import pytest

from helpers import (
    ARCHETYPE_ATTRIBUTES,
    BENCH_ACCESSOR_ID,
    BENCH_PURPOSE,
    both_open_paths,
    install_archetype_fixture,
    kept_seq,
    make_engine,
    make_prefs,
    policy_line,
    record_spans,
    run_keys,
    stored_instance,
)
from privledger import mediator, store, tuples
from privledger.config import LEDGER_FILE
from privledger.engine import Engine
from privledger.ledger import Ledger
from privledger.mediator import INTEGRITY_ABORT, WITHHELD, MediationStatus, QueryRequest
from privledger.policy import PurposeMode
from privledger.store import POLICY_FILE
from privledger.tuples import canonical_encode

NOW = dt.date(2021, 7, 1)
CITY = 6  # a Demographic attribute, granted Specific
LINEAGE = (2, CITY, BENCH_ACCESSOR_ID)
STREAM = "stream-{}-{}-{}".format(*LINEAGE)
# first_name has no published policy; city and chart_number have one.
REQUEST = QueryRequest(
    accessor_id=BENCH_ACCESSOR_ID,
    requested_purpose=BENCH_PURPOSE,
    attributes=("first_name", "city", "chart_number"),
)


@pytest.fixture
def configs(tmp_path):
    engine = make_engine(tmp_path, hash_cost=8)
    install_archetype_fixture(engine, 3, seed=7)
    return both_open_paths(engine)


@pytest.fixture
def hashed(monkeypatch):
    """The tuple bytes of every commitment the mediator checks."""
    inputs = []

    def counting(nonce, encoded):
        inputs.append(encoded)
        return tuples.commit(nonce, encoded)

    monkeypatch.setattr(mediator, "commit", counting)
    return inputs


@pytest.fixture
def parsed(monkeypatch):
    """The payload of every ledger item the mediator builds to check it."""
    payloads = []
    original = Ledger.latest_item

    def counting(self, name, record=None):
        item = original(self, name, record)
        payloads.append(item.payload)
        return item

    monkeypatch.setattr(Ledger, "latest_item", counting)
    return payloads


@pytest.fixture
def decodes(monkeypatch):
    """Lineages of every stored tuple whose preferences are decoded."""
    lineages = []
    original = store.Store.preferences

    def counting(self, lineage, seq, encoded):
        lineages.append(lineage)
        return original(self, lineage, seq, encoded)

    monkeypatch.setattr(store.Store, "preferences", counting)
    return lineages


def published(result):
    return [e for e in result.verification if e.seq is not None]


def payloads(engine, entries):
    return [engine.ledger.item(e.seq).payload for e in entries]


def stored_encodings(engine, entries):
    """The canonical encoding of each entry's whole stored tuple."""
    data_dir = engine.config.data_dir
    return [canonical_encode(stored_instance(data_dir, e.seq).privacy_tuple) for e in entries]


def disclosed(result):
    return sum(cell != WITHHELD for row in result.rows for cell in row.cells)


def assert_aborts_on(result, lineage):
    assert result.status is MediationStatus.ABORTED
    assert result.rows == () and disclosed(result) == 0
    assert result.denials == tuple((name, INTEGRITY_ABORT) for name in REQUEST.attributes)
    assert [e.lineage for e in result.verification if e.note == "mismatch"] == [lineage]
    assert result.ops.selects == 0


def _change_byte(path: Path, at: int) -> bytes:
    """Change the byte at offset at of the file in place, to "0", or "1"
    where it is "0"; returns the byte it replaced."""
    with open(path, "r+b") as fh:
        fh.seek(at)
        old = fh.read(1)
        fh.seek(at)
        fh.write(b"1" if old == b"0" else b"0")
    return old


def _restore_byte(path: Path, at: int, old: bytes):
    with open(path, "r+b") as fh:
        fh.seek(at)
        fh.write(old)


def declared_purpose_byte(engine, seq) -> int:
    """Offset in policy.db of the first byte of the declared purpose on the
    line at seq."""
    path = engine.config.data_dir / "policy.db"
    field = b'"declared_purpose": "'
    at = 0
    for line in path.read_bytes().splitlines(keepends=True):
        if f'"seq": {seq}, '.encode() in line:
            return at + line.index(field) + len(field)
        at += len(line)
    raise AssertionError(f"no policy.db line at seq {seq}")


def payload_digit(engine, seq) -> int:
    """Offset in ledger.db of the last hex digit of the payload of the
    record at seq."""
    at = 0
    for line in engine.ledger.path.read_bytes().splitlines(keepends=True):
        fields = line.split(b"\t")
        if fields[0] == str(seq).encode():
            assert re.fullmatch(rb"[0-9a-f]{64}", fields[5])
            return at + len(b"\t".join(fields[:6])) - 1
        at += len(line)
    raise AssertionError(f"no ledger record at seq {seq}")


def test_a_repeat_rehashes_no_lineage_whose_records_are_unchanged(
    configs, hashed, decodes, parsed
):
    for config in configs:
        with closing(Engine.open(config)) as engine:
            hashed.clear()
            decodes.clear()
            parsed.clear()
            first = engine.mediate(REQUEST, now=NOW)
            assert first.status is MediationStatus.COMPLETED
            entries = published(first)
            assert len(entries) == 6 and len(first.verification) == 9
            assert first.ops.hash_verifications == len(hashed) == len(entries)
            # The bytes verified are the decoded instance's canonical encoding.
            assert hashed == stored_encodings(engine, entries)
            assert sorted(decodes) == sorted(e.lineage for e in entries)
            assert parsed == payloads(engine, entries)

            hashed.clear()
            decodes.clear()
            parsed.clear()
            second = engine.mediate(REQUEST, now=NOW)
            # Both records of every lineage are read again and are the bytes
            # verified, so nothing is decoded, parsed or hashed.
            assert second.ops == first.ops
            assert hashed == []
            assert decodes == []
            assert parsed == []
            assert second.verification == first.verification
            assert second.rows == first.rows


def test_every_repeat_of_a_filtered_scan_checks_and_evaluates_each_lineage(
    configs, hashed, monkeypatch
):
    evaluated = []
    original = mediator.evaluate_access

    def counting(prefs, *args):
        evaluated.append(prefs.attribute_id)
        return original(prefs, *args)

    monkeypatch.setattr(mediator, "evaluate_access", counting)
    for config in configs:
        with closing(Engine.open(config)) as engine:
            city = engine.store.select_rows(["city"])[0][1][0]
            request = QueryRequest(
                accessor_id=BENCH_ACCESSOR_ID,
                requested_purpose=BENCH_PURPOSE,
                attributes=("first_name", "city", "chart_number", "witness_city"),
                predicate={"city": city},
            )
            results = []
            for repeat in range(4):  # the first query warms the engine
                hashed.clear()
                evaluated.clear()
                result = engine.mediate(request, now=NOW)
                assert result.status is MediationStatus.COMPLETED
                entries = published(result)
                verified = [e for e in result.verification if e.verified]
                assert len(entries) == len(verified) == 9 and len(result.verification) == 12
                assert result.ops.hash_verifications == len(entries)
                # Only the first query checks commitments; repeats match
                # fingerprints.
                assert hashed == (stored_encodings(engine, entries) if repeat == 0 else [])
                assert len(evaluated) == result.ops.policy_evaluations == len(verified)
                assert evaluated == [e.lineage[1] for e in verified]  # attribute ids
                results.append(result)
            assert all(result.rows == results[0].rows != () for result in results)
            assert all(result.ops == results[0].ops for result in results)


def test_a_new_version_is_verified_by_the_next_query(configs, hashed, decodes, parsed):
    for config in configs:
        hashed.clear()
        decodes.clear()
        with closing(Engine.open(config)) as engine:
            first = engine.mediate(REQUEST, now=NOW)
            [old] = [e for e in first.verification if e.lineage == (1, CITY, BENCH_ACCESSOR_ID)]
            assert old.verified
            assert first.rows[0].provider_id == 1
            assert first.rows[0].cells[1] != WITHHELD

            # The new version selects another purpose, so it denies the accessor.
            prefs = make_prefs(
                attribute_id=CITY, mode=PurposeMode.REUSE_SELECTED, declared="research"
            )
            publication = engine.set_policy(1, BENCH_ACCESSOR_ID, prefs)
            assert publication.seq > old.seq
            hashed.clear()
            decodes.clear()
            parsed.clear()
            second = engine.mediate(REQUEST, now=NOW)
            # The new version is read back from disk, decoded and hashed, as a
            # fresh process would; every other lineage's records are the
            # bytes verified before, and nothing of them is decoded.
            assert decodes == [old.lineage]
            assert parsed == [engine.ledger.item(publication.seq).payload]
            [new] = [e for e in second.verification if e.lineage == old.lineage]
            assert (new.seq, new.verified, new.note) == (publication.seq, True, "ok")
            assert second.ops.hash_verifications == first.ops.hash_verifications == 6
            # The bytes verified are the freshly published instance's encoding.
            line = policy_line(config.data_dir, publication.seq)
            instance = engine.store.latest_tuple_instance(old.lineage, publication.seq, line)
            assert instance.version == publication.version
            assert hashed == stored_encodings(engine, [new])
            assert kept_seq(engine, old.lineage) == publication.seq
            assert second.rows[0].cells[1] == WITHHELD
            assert [row.cells[1] for row in second.rows[1:]] == [
                row.cells[1] for row in first.rows[1:]
            ]
            # What was kept is the new version's bytes as on disk: a repeat
            # hashes nothing and answers the same.
            hashed.clear()
            repeat = engine.mediate(REQUEST, now=NOW)
            assert hashed == []
            assert (repeat.rows, repeat.verification) == (second.rows, second.verification)


def test_a_tampered_record_aborts_every_query_touching_it(configs, hashed):
    for config in configs:
        # Tamper the latest city record of provider 2 as criterion 4 does.
        path = config.data_dir / "policy.db"
        lines = path.read_text().splitlines()
        target = max(
            i for i, line in enumerate(lines) if json.loads(line)["stream"] == STREAM
        )
        record = json.loads(lines[target])
        record["tuple"]["prefs"]["purpose"]["declared_purpose"] += "-tampered"
        lines[target] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")

        with closing(Engine.open(config)) as engine:
            results = []
            for repeat in range(3):
                hashed.clear()
                result = engine.mediate(REQUEST, now=NOW)
                results.append(result)
                assert_aborts_on(result, LINEAGE)
                assert result.ops.hash_verifications == 6
                # The first query hashes every published lineage; a repeat
                # hashes the mismatch again, and no other.
                assert len(hashed) == (6 if repeat == 0 else 1)
                assert LINEAGE not in engine.mediator._kept
            assert results[2].verification == results[1].verification == results[0].verification
            assert results[2].ops == results[1].ops == results[0].ops

            untouched = engine.mediate(
                QueryRequest(
                    accessor_id=BENCH_ACCESSOR_ID,
                    requested_purpose=BENCH_PURPOSE,
                    attributes=("city",),
                    provider_id=1,
                ),
                now=NOW,
            )
            assert untouched.status is MediationStatus.COMPLETED
            assert disclosed(untouched) == 1


@pytest.mark.parametrize("record", ["policy-line", "ledger-payload"])
def test_a_record_changed_between_two_warm_queries_aborts_the_second(configs, hashed, record):
    for config in configs:
        with closing(Engine.open(config)) as engine:
            first = engine.mediate(REQUEST, now=NOW)
            assert first.status is MediationStatus.COMPLETED
            [entry] = [e for e in first.verification if e.lineage == LINEAGE]
            if record == "policy-line":
                # One byte of the declared purpose: the line still decodes.
                path, at = config.data_dir / "policy.db", declared_purpose_byte(engine, entry.seq)
            else:
                # One hex digit of the commitment payload: the record no longer
                # gives its digest.
                path, at = engine.ledger.path, payload_digit(engine, entry.seq)
            old = _change_byte(path, at)
            hashed.clear()
            changed = engine.mediate(REQUEST, now=NOW)
            assert_aborts_on(changed, LINEAGE)
            # A changed line is decoded and hashed again; a changed ledger
            # record fails its read back before any hash.
            assert len(hashed) == (1 if record == "policy-line" else 0)
            assert LINEAGE not in engine.mediator._kept

            # The original bytes back: the lineage is verified once more.
            _restore_byte(path, at, old)
            hashed.clear()
            restored = engine.mediate(REQUEST, now=NOW)
            assert restored.status is MediationStatus.COMPLETED
            assert hashed == stored_encodings(engine, [entry])
            assert (restored.rows, restored.verification, restored.ops) == (
                first.rows,
                first.verification,
                first.ops,
            )

            # A new version: the next query hashes it, and no other lineage.
            prefs = make_prefs(attribute_id=CITY, declared="triage")
            publication = engine.set_policy(2, BENCH_ACCESSOR_ID, prefs)
            hashed.clear()
            republished = engine.mediate(REQUEST, now=NOW)
            assert republished.status is MediationStatus.COMPLETED
            [new] = [e for e in republished.verification if e.lineage == LINEAGE]
            assert (new.seq, new.verified) == (publication.seq, True)
            assert hashed == stored_encodings(engine, [new])

            # Nothing changed: no hash, and the same answer.
            hashed.clear()
            repeat = engine.mediate(REQUEST, now=NOW)
            assert hashed == []
            assert (repeat.rows, repeat.verification, repeat.ops) == (
                republished.rows,
                republished.verification,
                republished.ops,
            )


# One provider's six Demographic attributes, whose records the fixture
# wrote back to back in both files.
BACK_TO_BACK = QueryRequest(
    accessor_id=BENCH_ACCESSOR_ID,
    requested_purpose=BENCH_PURPOSE,
    attributes=ARCHETYPE_ATTRIBUTES["Demographic"],
    provider_id=2,
)


def test_ledger_reads_counts_the_ledger_records_a_warm_query_reads(configs, monkeypatch):
    original = os.pread
    for config in configs:
        with closing(Engine.open(config)) as engine:
            files = {name: config.data_dir / name for name in (LEDGER_FILE, POLICY_FILE)}
            for request in (REQUEST, BACK_TO_BACK):
                first = engine.mediate(request, now=NOW)
                reads = {name: [] for name in files}  # (offset, bytes returned) per read

                def counting(fd, length, offset):
                    data = original(fd, length, offset)
                    for name, path in files.items():
                        if os.path.samestat(os.fstat(fd), os.stat(path)):
                            reads[name].append((offset, len(data)))
                    return data

                with monkeypatch.context() as patch:
                    patch.setattr(os, "pread", counting)
                    repeat = engine.mediate(request, now=NOW)
                assert repeat.ops == first.ops
                seqs = [e.seq for e in published(repeat)]
                assert len(seqs) == (6 if request is REQUEST else len(request.attributes))
                for name in files:
                    # Every byte of each published lineage's two records is
                    # read exactly once.
                    times = Counter(
                        at for offset, size in reads[name] for at in range(offset, offset + size)
                    )
                    for start, end in record_spans(config.data_dir, name, seqs):
                        assert all(times[at] == 1 for at in range(start, end))
                whole = [
                    any(offset <= start and end <= offset + size
                        for offset, size in reads[LEDGER_FILE])
                    for start, end in record_spans(config.data_dir, LEDGER_FILE, seqs)
                ]
                assert repeat.ops.ledger_reads == sum(whole) == len(seqs)
                # REQUEST's records lie apart, one read each; back to back,
                # each file's records are read with one read.
                assert len(reads[LEDGER_FILE]) == len(reads[POLICY_FILE]) == (
                    6 if request is REQUEST else 1
                )


def test_republishing_a_lineage_keeps_one_parsed_record_for_it(configs, hashed):
    for config in configs:
        with closing(Engine.open(config)) as engine:
            lineage = (1, CITY, BENCH_ACCESSOR_ID)
            for declared in ("care-delivery", "research", "billing", "triage", "audit"):
                prefs = make_prefs(
                    attribute_id=CITY, mode=PurposeMode.REUSE_SELECTED, declared=declared
                )
                publication = engine.set_policy(1, BENCH_ACCESSOR_ID, prefs)
                result = engine.mediate(REQUEST, now=NOW)
                assert result.status is MediationStatus.COMPLETED
                assert len(engine.mediator._kept) == 6
                # One entry per lineage, at its latest seq; the new version's
                # preferences decide its cell.
                assert kept_seq(engine, lineage) == publication.seq
                for e in published(result):
                    assert kept_seq(engine, e.lineage) == e.seq
                assert (result.rows[0].cells[1] != WITHHELD) == (declared == BENCH_PURPOSE)
                # Each entry is of both records' bytes as on disk: a repeat
                # hashes nothing and answers the same.
                hashed.clear()
                repeat = engine.mediate(REQUEST, now=NOW)
                assert hashed == []
                assert (repeat.rows, repeat.verification) == (result.rows, result.verification)


def test_a_malformed_ledger_payload_aborts_every_query(tmp_path, hashed, parsed):
    engine = make_engine(tmp_path, hash_cost=8)
    install_archetype_fixture(engine, 3, seed=7)
    latest = stored_instance(engine.config.data_dir, engine.ledger.latest_seq(STREAM))
    # A payload that is no commitment: not 64 lowercase hex digits.
    bad = engine.ledger.publish(STREAM, "key-bad", b"$pbkdf2$8$not-a-salt")
    # A next version stored at its seq, so that verification reaches the payload.
    t = latest.privacy_tuple
    bound = tuples.bind_tuple(2, t.attribute, t.prefs, t.accessor, t.version)
    engine.store.put_tuple_instance(STREAM, bad.seq, latest.nonce, canonical_encode(bound))
    for config in both_open_paths(engine):
        with closing(Engine.open(config)) as engine:
            for repeat in range(3):
                hashed.clear()
                parsed.clear()
                result = engine.mediate(REQUEST, now=NOW)
                assert_aborts_on(result, LINEAGE)
                mismatches = [e for e in result.verification if e.note == "mismatch"]
                assert [e.seq for e in mismatches] == [bad.seq]
                assert parsed.count(bad.payload) == 1  # read again by every query
                # Every lineage's commitment is checked once; the five that
                # pass by the first query only, the malformed one, which
                # fails as any other mismatch, by every query.
                assert result.ops.hash_verifications == 6
                assert len(hashed) == (6 if repeat == 0 else 1)
            assert LINEAGE not in engine.mediator._kept


# ---------------------------------------------------------------------------
# runs of back-to-back lineages
# ---------------------------------------------------------------------------


@pytest.fixture
def digests(monkeypatch):
    """The bytes each SHA-256 object the mediator builds was first fed."""
    fed = []
    original = mediator.sha256

    def counting(data=b""):
        fed.append(bytes(data))
        return original(data)

    monkeypatch.setattr(mediator, "sha256", counting)
    return fed


def run_key(entries):
    """The key of the run digest of entries, back-to-back lineages."""
    return entries[0].seq, entries[-1].seq


def test_a_warm_run_of_back_to_back_lineages_is_hashed_once(configs, hashed, digests):
    for config in configs:
        with closing(Engine.open(config)) as engine:
            hashed.clear()
            digests.clear()
            first = engine.mediate(BACK_TO_BACK, now=NOW)
            assert first.status is MediationStatus.COMPLETED
            entries = published(first)
            assert [e.seq for e in entries] == list(range(entries[0].seq, entries[0].seq + 6))
            # The cold query checks each lineage and keeps the run's digest.
            assert len(hashed) == 6
            assert len(digests) == 1 + 6
            assert list(run_keys(engine)) == [run_key(entries)]

            hashed.clear()
            digests.clear()
            repeat = engine.mediate(BACK_TO_BACK, now=NOW)
            # One digest over the run's bytes in both files vouches for all
            # six lineages: no record is fingerprinted, decoded or hashed.
            assert len(digests) == 1
            assert hashed == []
            assert (repeat.rows, repeat.verification, repeat.ops) == (
                first.rows,
                first.verification,
                first.ops,
            )


def test_republishing_a_lineage_inside_a_run_rehashes_it_alone(configs, hashed, decodes, digests):
    for config in configs:
        with closing(Engine.open(config)) as engine:
            first = engine.mediate(BACK_TO_BACK, now=NOW)
            entries = published(first)
            middle = entries[3]
            prefs = stored_instance(engine.config.data_dir, middle.seq).privacy_tuple.prefs
            publication = engine.set_policy(2, BENCH_ACCESSOR_ID, prefs)

            hashed.clear()
            decodes.clear()
            digests.clear()
            second = engine.mediate(BACK_TO_BACK, now=NOW)
            # The new version lies alone at the end of both files, so the
            # run splits in three, none of them kept: each other lineage
            # passes on its own fingerprint, and only the new version has
            # its commitment checked.
            assert decodes == [middle.lineage]
            [new] = [e for e in second.verification if e.lineage == middle.lineage]
            assert (new.seq, new.verified, new.note) == (publication.seq, True, "ok")
            assert hashed == stored_encodings(engine, [new])
            assert len(digests) == (1 + 3) + 1 + (1 + 2)
            assert second.rows == first.rows and second.ops == first.ops
            assert second.verification == tuple(
                new if e.lineage == middle.lineage else e for e in first.verification
            )
            # The first part's digest replaced the old run's, kept at the
            # same first seq; the lone version keeps none.
            assert set(run_keys(engine)) == {run_key(entries[:3]), run_key(entries[4:])}

            # Both parts of the run now stand whole, and the lone version on
            # its fingerprint.
            hashed.clear()
            digests.clear()
            third = engine.mediate(BACK_TO_BACK, now=NOW)
            assert hashed == [] and len(digests) == 3
            assert (third.rows, third.verification, third.ops) == (
                second.rows,
                second.verification,
                second.ops,
            )


def test_a_run_digest_stands_only_while_each_lineage_keeps_its_entry(configs, hashed):
    for config in configs:
        with closing(Engine.open(config)) as engine:
            first = engine.mediate(BACK_TO_BACK, now=NOW)
            entries = published(first)
            middle = entries[3]
            kept_digest = run_keys(engine)[run_key(entries)]
            alone = QueryRequest(
                accessor_id=BACK_TO_BACK.accessor_id,
                requested_purpose=BACK_TO_BACK.requested_purpose,
                attributes=(engine.store.catalog.by_id(middle.lineage[1]).name,),
                provider_id=2,
            )

            # A same-length edit of the middle line, seen by a query of that
            # attribute alone: it aborts and drops the lineage's entry, and
            # leaves the run's digest, which it did not read, as it was.
            path, at = config.data_dir / POLICY_FILE, declared_purpose_byte(engine, middle.seq)
            old = _change_byte(path, at)
            hashed.clear()
            changed = engine.mediate(alone, now=NOW)
            assert changed.status is MediationStatus.ABORTED and disclosed(changed) == 0
            assert [e.lineage for e in changed.verification if e.note == "mismatch"] == [
                middle.lineage
            ]
            assert len(hashed) == 1
            assert middle.lineage not in engine.mediator._kept
            assert run_keys(engine)[run_key(entries)] == kept_digest

            # The bytes restored: the run's digest matches again, but the
            # middle lineage holds no entry, so the run does not stand
            # whole; that lineage alone has its commitment checked.
            _restore_byte(path, at, old)
            hashed.clear()
            restored = engine.mediate(BACK_TO_BACK, now=NOW)
            assert restored.status is MediationStatus.COMPLETED
            assert hashed == stored_encodings(engine, [middle])
            assert (restored.rows, restored.verification, restored.ops) == (
                first.rows,
                first.verification,
                first.ops,
            )
            assert run_keys(engine)[run_key(entries)] == kept_digest


def test_alternating_scan_shapes_read_no_line_once_each_ran_twice(configs, monkeypatch):
    """The two shapes perfbench's scan-where alternates, over every provider
    and filtered on a city: once each has run twice, a query reads no
    policy.db line through the pattern and decodes no preferences, and the
    runs kept stay as they are."""
    calls = []
    for name in ("latest_tuple_instance", "preferences"):

        def counting(self, *args, _name=name, _original=getattr(store.Store, name)):
            calls.append(_name)
            return _original(self, *args)

        monkeypatch.setattr(store.Store, name, counting)
    demographic = ARCHETYPE_ATTRIBUTES["Demographic"]
    shapes = [
        QueryRequest(
            BENCH_ACCESSOR_ID,
            BENCH_PURPOSE,
            demographic + ARCHETYPE_ATTRIBUTES[extra],
            predicate={"city": "Red Deer"},
        )
        for extra in ("Healthcare", "ConsentWitness")
    ]

    def answer(engine, request):
        result = engine.mediate(request, now=NOW)
        return result.status, result.rows, result.denials, result.verification

    for config in configs:
        with closing(Engine.open(config)) as engine:
            first = [answer(engine, request) for request in shapes * 2]
            assert calls and all(status is MediationStatus.COMPLETED for status, *_ in first)
            kept = run_keys(engine)
            assert kept
            calls.clear()
            for request, expected in zip(shapes * 2, first * 2):
                assert answer(engine, request) == expected
                assert calls == []
                assert run_keys(engine) == kept


def test_run_digests_never_outnumber_the_kept_lineages(configs, hashed):
    for config in configs:
        with closing(Engine.open(config)) as engine:
            first = engine.mediate(BACK_TO_BACK, now=NOW)
            entries = published(first)
            for entry in entries:
                # Each republish splits the runs again; the digest of a run
                # no query forms again goes with the entry it began at.
                prefs = stored_instance(engine.config.data_dir, entry.seq).privacy_tuple.prefs
                engine.set_policy(2, BENCH_ACCESSOR_ID, prefs)
                for _ in range(2):
                    hashed.clear()
                    result = engine.mediate(BACK_TO_BACK, now=NOW)
                    assert result.status is MediationStatus.COMPLETED
                    assert result.rows == first.rows
                    kept = {kept_seq(engine, e.lineage) for e in entries} - {None}
                    assert len(kept) == 6 == len(engine.mediator._kept)
                    # Every run is keyed at the seq of a kept entry.
                    assert 0 < len(run_keys(engine))
                    assert {key[0] for key in run_keys(engine)} <= kept
                assert hashed == []  # the repeat checked no commitment


@pytest.mark.parametrize("name", [POLICY_FILE, LEDGER_FILE])
def test_a_same_length_edit_to_any_record_of_a_warm_run_aborts_only_its_lineage(configs, name):
    for config in configs:
        with closing(Engine.open(config)) as engine:
            first = engine.mediate(BACK_TO_BACK, now=NOW)
            entries = published(first)
            assert engine.mediate(BACK_TO_BACK, now=NOW).verification == first.verification
            for entry in entries:
                if name == POLICY_FILE:
                    path, at = config.data_dir / name, declared_purpose_byte(engine, entry.seq)
                else:
                    path, at = engine.ledger.path, payload_digit(engine, entry.seq)
                old = _change_byte(path, at)
                result = engine.mediate(BACK_TO_BACK, now=NOW)
                assert result.status is MediationStatus.ABORTED and result.rows == ()
                assert [e.lineage for e in result.verification if e.note != "ok"] == [
                    entry.lineage
                ]
                assert run_key(entries) not in run_keys(engine)
                _restore_byte(path, at, old)
                restored = engine.mediate(BACK_TO_BACK, now=NOW)
                assert (restored.rows, restored.verification) == (first.rows, first.verification)
