"""Repeat verification: a stored version's canonical encoding is derived
once, but every query re-hashes every published lineage it touches, so a
new version or a tampered record decides the very next query."""

from __future__ import annotations

import datetime as dt
import json

import pytest

from helpers import (
    BENCH_ACCESSOR_ID,
    BENCH_PURPOSE,
    install_archetype_fixture,
    make_engine,
    make_prefs,
)
from privledger import store, tuples
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
def config(tmp_path):
    engine = make_engine(tmp_path, hash_cost=8)
    install_archetype_fixture(engine, 3, seed=7)
    engine.close()
    return engine.config


@pytest.fixture
def hashed(monkeypatch):
    """The data of every salted iterated digest computed."""
    inputs = []
    original = tuples._iterate_digest

    def counting(salt, data, cost):
        inputs.append(data)
        return original(salt, data, cost)

    monkeypatch.setattr(tuples, "_iterate_digest", counting)
    return inputs


@pytest.fixture
def encodes(monkeypatch):
    """Lineages of every tuple the store encodes canonically."""
    lineages = []

    def counting(t):
        lineages.append(t.lineage)
        return canonical_encode(t)

    monkeypatch.setattr(store, "canonical_encode", counting)
    return lineages


def published(result):
    return [e for e in result.verification if e.seq is not None]


def stored_encodings(engine, entries):
    return [
        canonical_encode(engine.store.latest_tuple_instance(e.lineage.key).privacy_tuple)
        for e in entries
    ]


def disclosed(result):
    return sum(cell != WITHHELD for row in result.rows for cell in row.cells)


def test_every_query_rehashes_every_published_lineage(config, hashed, encodes):
    engine = Engine.open(config)
    first = engine.mediate(REQUEST, now=NOW)
    assert first.status is MediationStatus.COMPLETED
    entries = published(first)
    assert len(entries) == 6 and len(first.verification) == 9
    assert first.ops.hash_verifications == len(hashed) == len(entries)
    # The bytes verified are the decoded instance's canonical encoding.
    assert hashed == stored_encodings(engine, entries)
    assert sorted(encodes) == sorted(e.lineage.key for e in entries)

    hashed.clear()
    encodes.clear()
    second = engine.mediate(REQUEST, now=NOW)
    assert second.ops.hash_verifications == first.ops.hash_verifications
    assert hashed == stored_encodings(engine, entries)
    assert encodes == []  # each stored version is encoded once
    assert second.verification == first.verification
    assert second.rows == first.rows
    engine.close()


def test_a_new_version_is_verified_by_the_next_query(config, hashed, encodes):
    engine = Engine.open(config)
    first = engine.mediate(REQUEST, now=NOW)
    [old] = [e for e in first.verification if e.lineage.key == (1, CITY, BENCH_ACCESSOR_ID)]
    assert old.verified
    assert first.rows[0].provider_id == 1
    assert first.rows[0].cells[1] != WITHHELD

    # The new version selects another purpose, so it denies the accessor.
    prefs = make_prefs(attribute_id=CITY, mode=PurposeMode.REUSE_SELECTED, declared="research")
    publication = engine.set_policy(1, BENCH_ACCESSOR_ID, prefs)
    assert publication.seq > old.seq
    hashed.clear()
    encodes.clear()
    second = engine.mediate(REQUEST, now=NOW)
    assert encodes == []  # the published version keeps the bytes it was hashed from
    [new] = [e for e in second.verification if e.lineage.key == old.lineage.key]
    assert (new.seq, new.verified, new.note) == (publication.seq, True, "ok")
    assert second.ops.hash_verifications == first.ops.hash_verifications == len(hashed)
    # The bytes verified are the freshly published instance's encoding.
    instance = engine.store.latest_tuple_instance(old.lineage.key)
    assert instance.version == publication.version
    assert hashed == stored_encodings(engine, published(second))
    assert instance.encoded == canonical_encode(instance.privacy_tuple)
    assert second.rows[0].cells[1] == WITHHELD
    assert [row.cells[1] for row in second.rows[1:]] == [
        row.cells[1] for row in first.rows[1:]
    ]
    engine.close()


def test_a_tampered_record_aborts_every_query_touching_it(config, hashed):
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

    engine = Engine.open(config)
    results = []
    for _ in range(2):
        hashed.clear()
        result = engine.mediate(REQUEST, now=NOW)
        results.append(result)
        assert result.status is MediationStatus.ABORTED
        assert result.rows == () and disclosed(result) == 0
        assert result.denials == tuple((name, INTEGRITY_ABORT) for name in REQUEST.attributes)
        assert [e.lineage.key for e in result.verification if e.note == "mismatch"] == [
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
    engine.close()
