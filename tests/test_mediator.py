"""Mediated queries: verification gate, policy rewrite, transforms."""

from __future__ import annotations

import contextlib
import datetime as dt
import json

import pytest

from helpers import (
    BENCH_ACCESSOR_ID,
    DEMO_ACCESSOR_ID,
    DEMO_PROVIDER_ID,
    install_archetype_fixture,
    install_demo_fixture,
    make_engine,
    stored_instance,
)
from privledger.engine import Engine
from privledger.ledger import LINEAGE_STREAM
from privledger.mediator import (
    INTEGRITY_ABORT,
    NO_PUBLISHED_POLICY,
    WITHHELD,
    MediationStatus,
    QueryRequest,
    ResultRow,
)
from privledger.store import UnknownAccessor, UnknownAttribute, UnknownProvider
from privledger.tuples import bind_tuple, canonical_encode

NOW = dt.date(2021, 7, 1)


@pytest.fixture
def demo(tmp_path):
    with contextlib.closing(make_engine(tmp_path, hash_cost=8)) as engine:
        install_demo_fixture(engine)
        yield engine


@pytest.fixture
def population(tmp_path):
    with contextlib.closing(make_engine(tmp_path, hash_cost=8)) as engine:
        install_archetype_fixture(engine, 3, seed=7)
        yield engine


def demo_request(*attributes, purpose="care-delivery", provider=DEMO_PROVIDER_ID):
    return QueryRequest(
        accessor_id=DEMO_ACCESSOR_ID,
        requested_purpose=purpose,
        attributes=tuple(attributes),
        provider_id=provider,
    )


def bench_request(*attributes, purpose="care-delivery", provider=None):
    return QueryRequest(
        accessor_id=BENCH_ACCESSOR_ID,
        requested_purpose=purpose,
        attributes=tuple(attributes),
        provider_id=provider,
    )


# ---------------------------------------------------------------------------
# request validation and analysis
# ---------------------------------------------------------------------------


def test_request_requires_distinct_attributes():
    with pytest.raises(ValueError):
        QueryRequest(1, "p", attributes=())
    with pytest.raises(ValueError):
        QueryRequest(1, "p", attributes=("city", "city"))


def test_analyze_orders_lineages(demo):
    lineages = demo.mediator.analyze(demo_request("street_name", "first_name"))
    assert lineages == [
        (4, 1, DEMO_ACCESSOR_ID),
        (4, 5, DEMO_ACCESSOR_ID),
    ]
    assert LINEAGE_STREAM.format(*lineages[0]) == "stream-4-1-3"

    # Filtered attributes are lineages too, one per attribute however often
    # it is named; a provider_id conjunct is not an attribute.
    filtered = QueryRequest(
        accessor_id=DEMO_ACCESSOR_ID,
        requested_purpose="care-delivery",
        attributes=("street_name", "first_name"),
        predicate={"street_name": "x", "last_name": "y", "provider_id": 4},
        provider_id=DEMO_PROVIDER_ID,
    )
    assert [attribute_id for _, attribute_id, _ in demo.mediator.analyze(filtered)] == [1, 2, 5]


def test_analyze_expands_all_providers(population):
    lineages = population.mediator.analyze(bench_request("city", "gender"))
    assert [provider_id for provider_id, _, _ in lineages] == [1, 1, 2, 2, 3, 3]
    assert [attribute_id for _, attribute_id, _ in lineages] == [4, 6] * 3  # ascending per provider


def test_analyze_rejects_unknowns(demo):
    with pytest.raises(UnknownProvider):
        demo.mediator.analyze(demo_request("city", provider=99))
    with pytest.raises(UnknownAttribute):
        demo.mediator.analyze(demo_request("shoe_size"))
    with pytest.raises(UnknownAttribute):
        demo.mediator.analyze(
            QueryRequest(DEMO_ACCESSOR_ID, "p", ("city",), predicate={"shoe_size": 9})
        )
    with pytest.raises(UnknownAccessor):
        demo.mediator.analyze(
            QueryRequest(accessor_id=99, requested_purpose="p", attributes=("city",))
        )


# ---------------------------------------------------------------------------
# happy paths
# ---------------------------------------------------------------------------


def test_allowed_specific_query_discloses_plaintext(demo):
    result = demo.mediate(demo_request("street_name", "first_name"), now=NOW)
    assert result.status is MediationStatus.COMPLETED
    assert result.columns == ("street_name", "first_name")
    assert result.rows == (ResultRow(DEMO_PROVIDER_ID, ("5202 50 Ave", "Avery")),)
    assert result.denials == ()
    assert all(entry.verified for entry in result.verification)
    assert [entry.note for entry in result.verification] == ["ok", "ok"]


def test_partial_policy_masks_cells(population):
    result = population.mediate(bench_request("chart_number", provider=1), now=NOW)
    assert result.status is MediationStatus.COMPLETED
    (row,) = result.rows
    cell = row.cells[0]
    stored = population.store.get_provider_record(1).attributes["chart_number"]
    assert cell != stored
    assert cell[0] == stored[0]
    assert set(cell[1:]) <= {"*", "-", " "}


def test_existential_policy_discloses_only_presence(population):
    result = population.mediate(bench_request("witness_city"), now=NOW)
    assert result.status is MediationStatus.COMPLETED
    assert {row.cells[0] for row in result.rows} == {"EXISTS"}


def test_scope_all_returns_one_row_per_provider(population):
    result = population.mediate(bench_request("city"), now=NOW)
    assert [row.provider_id for row in result.rows] == [1, 2, 3]


def test_predicate_filters_rows(population):
    want = population.store.get_provider_record(2).attributes["city"]
    request = QueryRequest(
        accessor_id=BENCH_ACCESSOR_ID,
        requested_purpose="care-delivery",
        attributes=("city",),
        predicate={"city": want},
    )
    result = population.mediate(request, now=NOW)
    assert result.status is MediationStatus.COMPLETED
    assert all(row.cells == (want,) for row in result.rows)
    assert 2 in [row.provider_id for row in result.rows]

    # A provider_id conjunct compares the row's id, granted or not.
    for predicate in ({"provider_id": 2}, {"provider_id": 2, "city": want}):
        by_id = population.mediate(
            QueryRequest(BENCH_ACCESSOR_ID, "care-delivery", ("city",), predicate=predicate),
            now=NOW,
        )
        assert [row.provider_id for row in by_id.rows] == [2]
        assert len(by_id.verification) == 3  # one city lineage per provider


# ---------------------------------------------------------------------------
# denials
# ---------------------------------------------------------------------------


def test_purpose_mismatch_denies_attribute(population):
    result = population.mediate(
        bench_request("chart_number", purpose="research"), now=NOW
    )
    assert result.status is MediationStatus.COMPLETED
    assert result.rows == ()
    assert result.denials == (("chart_number", "PurposeMismatch"),)


def test_mixed_allow_and_deny_withholds_cells(population):
    result = population.mediate(
        bench_request("city", "chart_number", "witness_city", purpose="research"),
        now=NOW,
    )
    assert result.status is MediationStatus.COMPLETED
    assert result.denials == (
        ("chart_number", "PurposeMismatch"),
        ("witness_city", "PurposeMismatch"),
    )
    for row in result.rows:
        city, chart, witness = row.cells
        assert chart == WITHHELD
        assert witness == WITHHELD
        assert city not in (WITHHELD, None)


def test_unpublished_policy_is_denied_not_aborted(population):
    result = population.mediate(bench_request("carrier_name"), now=NOW)
    assert result.status is MediationStatus.COMPLETED
    assert result.rows == ()
    assert result.denials == (("carrier_name", NO_PUBLISHED_POLICY),)
    assert [e.note for e in result.verification] == ["no-policy"] * 3
    assert not any(e.verified for e in result.verification)
    assert result.ops.selects == 0


def test_retention_window_denies_outside_dates(population):
    # Policies become effective 2021-01-01; a query dated before that is
    # outside the retention window.
    result = population.mediate(
        bench_request("city", provider=1), now=dt.date(2020, 12, 31)
    )
    assert result.rows == ()
    assert result.denials == (("city", "RetentionExpired"),)


def test_every_requested_attribute_is_accounted_for(population):
    result = population.mediate(
        bench_request("city", "carrier_name", "chart_number", purpose="research"),
        now=NOW,
    )
    denied = {name for name, _ in result.denials}
    assert set(result.columns) == {"city", "carrier_name", "chart_number"}
    disclosed = set()
    for row in result.rows:
        for name, cell in zip(result.columns, row.cells):
            if cell != WITHHELD:
                disclosed.add(name)
    assert disclosed | denied == set(result.columns)
    assert disclosed & denied == set()


# ---------------------------------------------------------------------------
# integrity aborts
# ---------------------------------------------------------------------------


def test_out_of_band_policy_edit_aborts_queries(tmp_path):
    with contextlib.closing(make_engine(tmp_path, hash_cost=8)) as engine:
        install_demo_fixture(engine)
        config = engine.config

    policy_path = config.data_dir / "policy.db"
    lines = policy_path.read_text().splitlines()
    target = max(
        i
        for i, line in enumerate(lines)
        if json.loads(line)["tuple"]["attribute"]["attribute_id"] == 5
    )
    record = json.loads(lines[target])
    record["tuple"]["prefs"]["purpose"]["declared_purpose"] = "exfiltration"
    lines[target] = json.dumps(record, sort_keys=True)
    policy_path.write_text("\n".join(lines) + "\n")

    with contextlib.closing(Engine.open(config)) as engine:
        result = engine.mediate(demo_request("street_name", "first_name"), now=NOW)
        assert result.status is MediationStatus.ABORTED
        assert result.rows == ()
        assert result.denials == (
            ("street_name", INTEGRITY_ABORT),
            ("first_name", INTEGRITY_ABORT),
        )
        mismatches = [e for e in result.verification if e.note == "mismatch"]
        assert len(mismatches) == 1
        assert mismatches[0].lineage[1] == 5  # its attribute id
        assert result.ops.selects == 0
        assert result.timing.native_ms == 0.0

        # A filter on the tampered lineage aborts a query that requests only
        # the untouched one.
        filtered = engine.mediate(
            QueryRequest(
                DEMO_ACCESSOR_ID,
                "care-delivery",
                ("first_name",),
                predicate={"street_name": "5202 50 Ave"},
                provider_id=DEMO_PROVIDER_ID,
            ),
            now=NOW,
        )
        assert filtered.status is MediationStatus.ABORTED
        assert filtered.rows == ()
        assert filtered.denials == (("first_name", INTEGRITY_ABORT),)

        # The untouched lineage still serves on its own.
        clean = engine.mediate(demo_request("first_name"), now=NOW)
        assert clean.status is MediationStatus.COMPLETED


def test_tampered_ledger_payload_aborts(tmp_path):
    with contextlib.closing(make_engine(tmp_path, hash_cost=8)) as engine:
        install_demo_fixture(engine)
        config = engine.config
        ledger_path = engine.ledger.path

    # Repoint the newest published hash at a different digest; the line
    # still parses, so the tamper surfaces as a verification mismatch.
    # Mediation only consults the latest item per lineage, older versions
    # are the chain verification's concern.
    data = ledger_path.read_text().splitlines()
    target = max(
        index
        for index, line in enumerate(data)
        if line.split("\t")[1] == "stream-4-1-3"
    )
    fields = data[target].split("\t")
    fields[5] = fields[5][:-1] + ("1" if fields[5][-1] == "0" else "0")
    data[target] = "\t".join(fields)
    ledger_path.write_text("\n".join(data) + "\n")

    with contextlib.closing(Engine.open(config)) as engine:
        result = engine.mediate(demo_request("first_name"), now=NOW)
        assert result.status is MediationStatus.ABORTED
        assert result.rows == ()


def test_store_version_ahead_of_ledger_is_ignored(demo):
    # Craft a next-version instance that was never published, stored past
    # every ledger seq: the ledger names the published version, which answers.
    lineage = (4, 5, 3)
    latest = stored_instance(demo.config.data_dir, demo.ledger.latest_seq("stream-4-5-3"))
    ahead = bind_tuple(
        4,
        demo.store.catalog.by_id(5),
        latest.privacy_tuple.prefs,
        latest.privacy_tuple.accessor,
        prior_version=latest.version,
    )
    demo.store.put_tuple_instance(
        latest.stream, latest.seq + 100, latest.nonce, canonical_encode(ahead)
    )
    result = demo.mediate(demo_request("street_name"), now=NOW)
    assert result.status is MediationStatus.COMPLETED
    assert [(e.seq, e.note) for e in result.verification] == [(latest.seq, "ok")]


def test_published_hash_without_stored_plaintext_aborts(demo):
    # Ledger knows a lineage the store has never seen.
    demo.ledger.create_stream("stream-4-2-3", "key17", b"0" * 64)
    result = demo.mediate(demo_request("last_name"), now=NOW)
    assert result.status is MediationStatus.ABORTED
    assert result.denials == (("last_name", INTEGRITY_ABORT),)


def test_garbage_ledger_payload_is_a_mismatch(demo):
    stream = "stream-4-5-3"
    demo.ledger.publish(stream, "key18", b"not-a-hash-record")
    result = demo.mediate(demo_request("street_name"), now=NOW)
    assert result.status is MediationStatus.ABORTED


# ---------------------------------------------------------------------------
# accounting and determinism
# ---------------------------------------------------------------------------


def test_operation_counters(population):
    result = population.mediate(bench_request("city", "province"), now=NOW)
    # 3 providers x 2 attributes
    assert result.ops.ledger_reads == 6
    assert result.ops.hash_verifications == 6
    assert result.ops.policy_evaluations == 6
    assert result.ops.selects == 1

    # A lineage without a published policy is denied up front; it never
    # costs a ledger read, a verification or an evaluation.
    sparse = population.mediate(bench_request("city", "gender"), now=NOW)
    assert sparse.ops.ledger_reads == 3
    assert sparse.ops.hash_verifications == 3
    assert sparse.ops.policy_evaluations == 3

    native = population.native_query(bench_request("city", "province"))
    assert native.ops.ledger_reads == 0
    assert native.ops.hash_verifications == 0
    assert native.ops.policy_evaluations == 0
    assert native.ops.selects == 1


def test_timing_shape(population):
    result = population.mediate(bench_request("city"), now=NOW)
    assert result.timing.total_ms >= result.timing.native_ms >= 0.0


def test_native_query_skips_all_mediation(population):
    native = population.native_query(bench_request("chart_number", provider=1))
    stored = population.store.get_provider_record(1).attributes["chart_number"]
    assert native.rows[0].cells == (stored,)  # no masking applied


def test_mediation_is_deterministic(population):
    request = bench_request("city", "chart_number", "carrier_name")
    first = population.mediate(request, now=NOW)
    second = population.mediate(request, now=NOW)
    assert first.status == second.status
    assert first.columns == second.columns
    assert first.rows == second.rows
    assert first.denials == second.denials
    assert first.verification == second.verification
    assert first.ops == second.ops
