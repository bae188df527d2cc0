"""Repeat verification: every query reads both records of each published
lineage it touches back from disk, the policy.db line and the ledger
record at the stream's latest seq, and compares their bytes with the
fingerprint the mediator keeps of the bytes a check passed on.  The KDF
runs only where they differ: once per lineage version per engine, and
again after any change on disk, so a new version, a record tampered
between two queries, or one restored, decides the very next query, and a
mismatch is checked again by every query.  Each test runs on both open
paths: from the checkpoints the last close wrote, and the full pass."""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os
from contextlib import closing
from pathlib import Path

import pytest

from helpers import (
    BENCH_ACCESSOR_ID,
    BENCH_PURPOSE,
    both_open_paths,
    install_archetype_fixture,
    make_engine,
    make_prefs,
)
from privledger import mediator, store, tuples
from privledger.engine import Engine
from privledger.mediator import INTEGRITY_ABORT, WITHHELD, MediationStatus, QueryRequest
from privledger.policy import PurposeMode
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
    """The data of every salted PBKDF2 digest computed."""
    inputs = []
    original = tuples._pbkdf2

    def counting(salt, data, cost):
        inputs.append(data)
        return original(salt, data, cost)

    monkeypatch.setattr(tuples, "_pbkdf2", counting)
    return inputs


@pytest.fixture
def parsed(monkeypatch):
    """The text of every hash record parsed."""
    texts = []
    original = tuples.HashRecord.from_string

    def counting(cls, text):
        texts.append(text)
        return original(text)

    monkeypatch.setattr(tuples.HashRecord, "from_string", classmethod(counting))
    return texts


@pytest.fixture
def encodes(monkeypatch):
    """Lineages of every tuple the mediator encodes canonically."""
    lineages = []

    def counting(t):
        lineages.append(t.lineage)
        return canonical_encode(t)

    monkeypatch.setattr(mediator, "canonical_encode", counting)
    return lineages


def published(result):
    return [e for e in result.verification if e.seq is not None]


def payloads(engine, entries):
    return [engine.ledger.item(e.seq).payload for e in entries]


def stored_encodings(engine, entries):
    return [
        canonical_encode(engine.store.latest_tuple_instance(e.lineage, e.seq).privacy_tuple)
        for e in entries
    ]


def fingerprint(engine, seq):
    """The fingerprint of both records at seq as they are on disk."""
    line = engine.store.policy_line(seq)
    return hashlib.blake2b(line + engine.ledger.record(seq), digest_size=16).digest()


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
        if line.startswith(f'{{"seq": {seq}, '.encode()):
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
            assert fields[5].startswith(b"$pbkdf2$")
            return at + len(b"\t".join(fields[:6])) - 1
        at += len(line)
    raise AssertionError(f"no ledger record at seq {seq}")


def test_a_repeat_rehashes_no_lineage_whose_records_are_unchanged(
    configs, hashed, encodes, parsed
):
    for config in configs:
        with closing(Engine.open(config)) as engine:
            hashed.clear()
            encodes.clear()
            parsed.clear()
            first = engine.mediate(REQUEST, now=NOW)
            assert first.status is MediationStatus.COMPLETED
            entries = published(first)
            assert len(entries) == 6 and len(first.verification) == 9
            assert first.ops.hash_verifications == len(hashed) == len(entries)
            # The bytes verified are the decoded instance's canonical encoding.
            assert hashed == stored_encodings(engine, entries)
            assert sorted(encodes) == sorted(e.lineage for e in entries)
            assert parsed == payloads(engine, entries)

            hashed.clear()
            encodes.clear()
            parsed.clear()
            second = engine.mediate(REQUEST, now=NOW)
            # Both records of every lineage are read again and are the bytes
            # verified, so nothing is decoded, parsed or hashed.
            assert second.ops == first.ops
            assert hashed == []
            assert encodes == []
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
                # Only the first query runs the KDF; repeats match fingerprints.
                assert hashed == (stored_encodings(engine, entries) if repeat == 0 else [])
                assert len(evaluated) == result.ops.policy_evaluations == len(verified)
                assert evaluated == [e.lineage[1] for e in verified]  # attribute ids
                results.append(result)
            assert all(result.rows == results[0].rows != () for result in results)
            assert all(result.ops == results[0].ops for result in results)


def test_a_new_version_is_verified_by_the_next_query(configs, hashed, encodes, parsed):
    for config in configs:
        hashed.clear()
        encodes.clear()
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
            encodes.clear()
            parsed.clear()
            second = engine.mediate(REQUEST, now=NOW)
            # The new version is read back from disk, decoded and hashed, as a
            # fresh process would; every other lineage's records are the
            # bytes verified before, and nothing of them is decoded.
            assert encodes == [old.lineage]
            assert parsed == [engine.ledger.item(publication.seq).payload]
            [new] = [e for e in second.verification if e.lineage == old.lineage]
            assert (new.seq, new.verified, new.note) == (publication.seq, True, "ok")
            assert second.ops.hash_verifications == first.ops.hash_verifications == 6
            # The bytes verified are the freshly published instance's encoding.
            instance = engine.store.latest_tuple_instance(old.lineage, publication.seq)
            assert instance.version == publication.version
            assert hashed == stored_encodings(engine, [new])
            assert engine.mediator._kept[old.lineage] == (
                publication.seq,
                fingerprint(engine, publication.seq),
                instance.privacy_tuple.prefs,
            )
            assert second.rows[0].cells[1] == WITHHELD
            assert [row.cells[1] for row in second.rows[1:]] == [
                row.cells[1] for row in first.rows[1:]
            ]


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
                # One hex digit of the $pbkdf2$ payload: the record no longer
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


def test_ledger_reads_counts_the_ledger_records_a_warm_query_reads(configs, monkeypatch):
    original = os.pread
    for config in configs:
        with closing(Engine.open(config)) as engine:
            first = engine.mediate(REQUEST, now=NOW)
            files = {"ledger": engine.ledger.path, "policy": config.data_dir / "policy.db"}
            reads = {name: 0 for name in files}

            def counting(fd, length, offset):
                for name, path in files.items():
                    reads[name] += os.path.samestat(os.fstat(fd), os.stat(path))
                return original(fd, length, offset)

            with monkeypatch.context() as patch:
                patch.setattr(os, "pread", counting)
                repeat = engine.mediate(REQUEST, now=NOW)
            assert repeat.ops == first.ops
            # Each published lineage's two records are read once each.
            assert reads["ledger"] == repeat.ops.ledger_reads == len(published(repeat)) == 6
            assert reads["policy"] == 6


def test_republishing_a_lineage_keeps_one_parsed_record_for_it(configs):
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
                kept = engine.mediator._kept
                assert len(kept) == 6
                # One entry per lineage: its seq, the fingerprint of both
                # records' bytes there, and its preferences.
                seq = publication.seq
                assert kept[lineage] == (seq, fingerprint(engine, seq), prefs)
                for e in published(result):
                    assert kept[e.lineage][:2] == (e.seq, fingerprint(engine, e.seq))


def test_a_malformed_ledger_payload_aborts_every_query(tmp_path, hashed, parsed):
    engine = make_engine(tmp_path, hash_cost=8)
    install_archetype_fixture(engine, 3, seed=7)
    latest = engine.store.latest_tuple_instance(LINEAGE, engine.ledger.latest_seq(STREAM))
    bad = engine.ledger.publish(STREAM, "key-bad", b"$pbkdf2$8$not-a-salt")
    # A next version stored at its seq, so that verification reaches the payload.
    t = latest.privacy_tuple
    bound = tuples.bind_tuple(2, t.attribute, t.prefs, t.accessor, t.version)
    engine.store.put_tuple_instance(store.TupleInstance(bound, STREAM, bad.seq))
    for config in both_open_paths(engine):
        with closing(Engine.open(config)) as engine:
            for repeat in range(3):
                hashed.clear()
                parsed.clear()
                result = engine.mediate(REQUEST, now=NOW)
                assert_aborts_on(result, LINEAGE)
                mismatches = [e for e in result.verification if e.note == "mismatch"]
                assert [e.seq for e in mismatches] == [bad.seq]
                assert parsed.count(bad.payload) == 1  # parsed again by every query
                # The lineages whose records parse are each counted once, and
                # hashed by the first query only.
                assert result.ops.hash_verifications == 5
                assert len(hashed) == (5 if repeat == 0 else 0)
            assert LINEAGE not in engine.mediator._kept
