"""Lazy open: what Engine.open decodes, what a first touch decodes, how a
corrupt record surfaces, and the cost of a failed login.  The engine
tests run on both open paths: from the checkpoints the last close wrote,
and the full pass."""

from __future__ import annotations

import datetime as dt
import json
from contextlib import closing

import pytest

from helpers import (
    BENCH_ACCESSOR_ID,
    DEMO_ACCESSOR_ID,
    DEMO_PROVIDER_ID,
    both_open_paths,
    install_archetype_fixture,
    install_demo_fixture,
    make_accessor,
    make_engine,
    make_prefs,
)
from privledger import tuples
from privledger.engine import Engine
from privledger.ledger import LINEAGE_STREAM
from privledger.mediator import INTEGRITY_ABORT, MediationStatus, QueryRequest
from privledger.store import (
    AuthenticationFailed,
    CorruptRecord,
    Store,
    StoreError,
    TupleInstance,
)

NOW = dt.date(2021, 7, 1)


@pytest.fixture
def decodes(monkeypatch):
    """Streams of every tuple instance decoded from its stored record."""
    streams = []
    original = TupleInstance.from_dict.__func__

    def counting(cls, data):
        streams.append(data["stream"])
        return original(cls, data)

    monkeypatch.setattr(TupleInstance, "from_dict", classmethod(counting))
    return streams


@pytest.fixture
def population_configs(tmp_path):
    engine = make_engine(tmp_path, hash_cost=8)
    install_archetype_fixture(engine, 3, seed=7)
    return both_open_paths(engine)


def point_request(provider, *attributes):
    return QueryRequest(
        accessor_id=BENCH_ACCESSOR_ID,
        requested_purpose="care-delivery",
        attributes=attributes,
        provider_id=provider,
    )


# ---------------------------------------------------------------------------
# laziness
# ---------------------------------------------------------------------------


def test_open_decodes_no_tuple(population_configs, decodes):
    for config in population_configs:
        with closing(Engine.open(config)) as engine:
            assert decodes == []


def test_point_query_decodes_each_touched_lineage_once(population_configs, decodes):
    for config in population_configs:
        with closing(Engine.open(config)) as engine:
            request = point_request(2, "city", "province", "postal_code")
            first = engine.mediate(request, now=NOW)
            assert first.status is MediationStatus.COMPLETED
            assert sorted(decodes) == sorted(
                LINEAGE_STREAM.format(*e.lineage) for e in first.verification
            )
            assert len(decodes) == 3
            decodes.clear()
            second = engine.mediate(request, now=NOW)
            assert decodes == []
            assert second.rows == first.rows


def test_publish_on_untouched_lineage_decodes_nothing(population_configs, decodes):
    for config in population_configs:
        with closing(Engine.open(config)) as engine:
            lineage = (2, 6, BENCH_ACCESSOR_ID)
            prior = engine.store.lineage_version(lineage)
            assert prior >= 1
            publication = engine.set_policy(
                2, BENCH_ACCESSOR_ID, make_prefs(attribute_id=6)
            )
            assert publication.version == prior + 1
            assert decodes == []
            assert engine.store.latest_tuple_instance(lineage).version == prior + 1
            assert decodes == []  # the published instance was kept, not re-read


def test_history_is_read_from_disk(population_configs):
    for config in population_configs:
        with closing(Engine.open(config)) as engine:
            lineage = (1, 6, BENCH_ACCESSOR_ID)
            for _ in range(2):
                engine.set_policy(1, BENCH_ACCESSOR_ID, make_prefs(attribute_id=6))
        policy_lines = (config.data_dir / "policy.db").read_text().splitlines()
        history = [
            record
            for record in map(json.loads, policy_lines)
            if record["stream"] == f"stream-1-6-{BENCH_ACCESSOR_ID}"
        ]
        assert [record["tuple"]["version"] for record in history] == [1, 2, 3]
        with closing(Engine.open(config)) as engine:
            latest = engine.store.latest_tuple_instance(lineage)
            assert latest == TupleInstance.from_dict(history[-1])


# ---------------------------------------------------------------------------
# corrupt records
# ---------------------------------------------------------------------------


def _demo_configs(tmp_path):
    engine = make_engine(tmp_path, hash_cost=8)
    install_demo_fixture(engine)
    return both_open_paths(engine)


def _rewrite_latest(config, attribute_id, edit):
    """Apply edit to the JSON record of a lineage's latest policy line."""
    path = config.data_dir / "policy.db"
    lines = path.read_text().splitlines()
    target = max(
        i
        for i, line in enumerate(lines)
        if json.loads(line)["tuple"]["attribute"]["attribute_id"] == attribute_id
    )
    record = json.loads(lines[target])
    edit(record)
    lines[target] = json.dumps(record, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")


def _bad_purpose_mode(record):
    record["tuple"]["prefs"]["purpose"]["mode"] = "NoSuchMode"


def _missing_accessor(record):
    del record["tuple"]["accessor"]


def _extra_norm_key(record):
    record["tuple"]["prefs"]["purpose"]["norms"]["whom"] = "anyone"


@pytest.mark.parametrize("edit", [_bad_purpose_mode, _missing_accessor, _extra_norm_key])
def test_undecodable_latest_record_aborts_only_queries_touching_it(tmp_path, edit):
    for config in _demo_configs(tmp_path):
        _rewrite_latest(config, 5, edit)

        with closing(Engine.open(config)) as engine:  # the record is not read yet
            request = QueryRequest(
                accessor_id=DEMO_ACCESSOR_ID,
                requested_purpose="care-delivery",
                attributes=("street_name", "first_name"),
                provider_id=DEMO_PROVIDER_ID,
            )
            result = engine.mediate(request, now=NOW)
            assert result.status is MediationStatus.ABORTED
            assert result.rows == ()
            assert result.denials == (
                ("street_name", INTEGRITY_ABORT),
                ("first_name", INTEGRITY_ABORT),
            )
            [mismatch] = [e for e in result.verification if e.note == "mismatch"]
            assert mismatch.lineage[1] == 5  # its attribute id
            assert mismatch.seq == engine.ledger.latest_item("stream-4-5-3").seq
            assert result.ops.selects == 0

            # A failed decode is not cached as a pass: the next touch fails again.
            with pytest.raises(CorruptRecord, match=r"policy\.db line 3"):
                engine.store.latest_tuple_instance((4, 5, 3))
            clean = engine.mediate(
                QueryRequest(
                    accessor_id=DEMO_ACCESSOR_ID,
                    requested_purpose="care-delivery",
                    attributes=("first_name",),
                    provider_id=DEMO_PROVIDER_ID,
                ),
                now=NOW,
            )
            assert clean.status is MediationStatus.COMPLETED
            assert clean.rows[0].cells != ()


def test_record_filed_under_another_stream_is_corrupt(tmp_path):
    for config in _demo_configs(tmp_path):

        def restream(record):
            record["stream"] = "stream-4-5-3"

        _rewrite_latest(config, 1, restream)  # a first_name record claims street_name
        with closing(Engine.open(config)) as engine:
            with pytest.raises(CorruptRecord, match="disagrees"):
                engine.store.latest_tuple_instance((4, 5, 3))


def test_corrupt_record_without_a_stream_is_a_mismatch(tmp_path):
    for config in _demo_configs(tmp_path):

        def restream(record):
            record["stream"] = "stream-4-9-3"  # original_province: never published

        _rewrite_latest(config, 5, restream)
        with closing(Engine.open(config)) as engine:
            result = engine.mediate(
                QueryRequest(
                    accessor_id=DEMO_ACCESSOR_ID,
                    requested_purpose="care-delivery",
                    attributes=("original_province",),
                    provider_id=DEMO_PROVIDER_ID,
                ),
                now=NOW,
            )
            assert result.status is MediationStatus.ABORTED
            assert [(e.seq, e.note) for e in result.verification] == [(None, "mismatch")]


@pytest.mark.parametrize("family", ["policy.db", "content.db"])
def test_torn_final_line_fails_open_naming_file_and_line(tmp_path, family):
    for config in _demo_configs(tmp_path):
        path = config.data_dir / family
        lines = path.read_text().splitlines()
        torn = "\n".join(lines[:-1] + [lines[-1][: len(lines[-1]) // 2]])
        path.write_text(torn)
        with pytest.raises(StoreError, match=rf"{family} line {len(lines)}: unreadable record"):
            Engine.open(config)


# ---------------------------------------------------------------------------
# login timing
# ---------------------------------------------------------------------------


def test_unknown_login_costs_as_much_as_a_wrong_password(tmp_path, monkeypatch):
    store = Store(tmp_path, hash_cost=2048, create=True)
    store.add_accessor("physician3", "physician3-secret", make_accessor())
    costs = []
    original = tuples._pbkdf2

    def counting(salt, data, cost):
        costs.append(cost)
        return original(salt, data, cost)

    monkeypatch.setattr(tuples, "_pbkdf2", counting)
    with closing(Store(tmp_path, hash_cost=2048)) as reopened:
        assert costs == []  # opening hashes nothing
        for login in ("physician3", "nobody"):
            with pytest.raises(AuthenticationFailed):
                reopened.authenticate(login, "wrong-password")
    assert costs == [2048, 2048]
