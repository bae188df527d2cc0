"""Repeat verification: a lineage's latest stored version is decoded and
encoded canonically, and its ledger hash record parsed, once per version,
and the mediator keeps the results in one entry per lineage; but every
query re-hashes every published lineage it touches, so a new version or a
tampered record decides the very next query.  Each test runs on both open
paths: from the checkpoints the last close wrote, and the full pass."""

from __future__ import annotations

import datetime as dt
import json
from contextlib import closing

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


def disclosed(result):
    return sum(cell != WITHHELD for row in result.rows for cell in row.cells)


def test_every_query_rehashes_every_published_lineage(configs, hashed, encodes, parsed):
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
            assert second.ops.hash_verifications == first.ops.hash_verifications
            assert hashed == stored_encodings(engine, entries)
            assert encodes == []  # each stored version is encoded once
            assert parsed == []  # and each latest hash record parsed once
            assert second.verification == first.verification
            assert second.rows == first.rows


def test_every_repeat_of_a_filtered_scan_hashes_and_evaluates_each_lineage(
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
            for _ in range(4):  # the first query warms the engine
                hashed.clear()
                evaluated.clear()
                result = engine.mediate(request, now=NOW)
                assert result.status is MediationStatus.COMPLETED
                entries = published(result)
                verified = [e for e in result.verification if e.verified]
                assert len(entries) == len(verified) == 9 and len(result.verification) == 12
                assert len(hashed) == result.ops.hash_verifications == len(entries)
                assert hashed == stored_encodings(engine, entries)
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
            # The new version is read back from disk and encoded, as a fresh
            # process would; every other lineage reads nothing.
            assert encodes == [old.lineage]
            assert parsed == [engine.ledger.item(publication.seq).payload]
            [new] = [e for e in second.verification if e.lineage == old.lineage]
            assert (new.seq, new.verified, new.note) == (publication.seq, True, "ok")
            assert second.ops.hash_verifications == first.ops.hash_verifications == len(hashed)
            # The bytes verified are the freshly published instance's encoding.
            instance = engine.store.latest_tuple_instance(old.lineage, publication.seq)
            assert instance.version == publication.version
            assert hashed == stored_encodings(engine, published(second))
            seq, encoded, prefs, _ = engine.mediator._kept[old.lineage]
            assert (seq, encoded, prefs) == (
                publication.seq,
                canonical_encode(instance.privacy_tuple),
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
            i
            for i, line in enumerate(lines)
            if json.loads(line)["stream"] == f"stream-2-{CITY}-{BENCH_ACCESSOR_ID}"
        )
        record = json.loads(lines[target])
        record["tuple"]["prefs"]["purpose"]["declared_purpose"] += "-tampered"
        lines[target] = json.dumps(record, sort_keys=True)
        path.write_text("\n".join(lines) + "\n")

        with closing(Engine.open(config)) as engine:
            results = []
            for _ in range(2):
                hashed.clear()
                result = engine.mediate(REQUEST, now=NOW)
                results.append(result)
                assert result.status is MediationStatus.ABORTED
                assert result.rows == () and disclosed(result) == 0
                assert result.denials == tuple(
                    (name, INTEGRITY_ABORT) for name in REQUEST.attributes
                )
                assert [e.lineage for e in result.verification if e.note == "mismatch"] == [
                    (2, CITY, BENCH_ACCESSOR_ID)
                ]
                assert result.ops.hash_verifications == len(hashed) == 6
                assert result.ops.selects == 0
            assert results[1].verification == results[0].verification

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
                seq, encoded, kept_prefs, record = kept[lineage]
                assert seq == publication.seq
                assert kept_prefs == prefs
                instance = engine.store.latest_tuple_instance(lineage, seq)
                assert encoded == canonical_encode(instance.privacy_tuple)
                assert record == tuples.HashRecord.from_string(engine.ledger.item(seq).payload)


def test_a_malformed_ledger_payload_aborts_every_query(tmp_path, hashed, parsed):
    engine = make_engine(tmp_path, hash_cost=8)
    install_archetype_fixture(engine, 3, seed=7)
    lineage = (2, CITY, BENCH_ACCESSOR_ID)
    stream = f"stream-2-{CITY}-{BENCH_ACCESSOR_ID}"
    latest = engine.store.latest_tuple_instance(lineage, engine.ledger.latest_seq(stream))
    bad = engine.ledger.publish(stream, "key-bad", b"$pbkdf2$8$not-a-salt")
    # A next version stored at its seq, so that verification reaches the payload.
    t = latest.privacy_tuple
    bound = tuples.bind_tuple(2, t.attribute, t.prefs, t.accessor, t.version)
    engine.store.put_tuple_instance(store.TupleInstance(bound, stream, bad.seq))
    for config in both_open_paths(engine):
        with closing(Engine.open(config)) as engine:
            for _ in range(3):
                hashed.clear()
                parsed.clear()
                result = engine.mediate(REQUEST, now=NOW)
                assert result.status is MediationStatus.ABORTED
                assert result.rows == () and disclosed(result) == 0
                mismatches = [e for e in result.verification if e.note == "mismatch"]
                assert [(e.lineage, e.seq) for e in mismatches] == [
                    ((2, CITY, BENCH_ACCESSOR_ID), bad.seq)
                ]
                assert parsed.count(bad.payload) == 1  # parsed again by every query
                # the lineages whose records parse, each hashed and counted once
                assert result.ops.hash_verifications == len(hashed) == 5
            assert lineage not in engine.mediator._kept
