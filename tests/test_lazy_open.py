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
    as_stored,
    both_open_paths,
    decode_instance,
    install_archetype_fixture,
    install_demo_fixture,
    make_accessor,
    make_engine,
    make_prefs,
    policy_line,
)
from privledger import tuples
from privledger.engine import Engine
from privledger.ledger import LINEAGE_STREAM
from privledger.mediator import INTEGRITY_ABORT, MediationStatus, QueryRequest
from privledger.tuples import commit
from privledger.store import (
    AuthenticationFailed,
    CorruptRecord,
    Store,
    StoreError,
)

NOW = dt.date(2021, 7, 1)


@pytest.fixture
def decodes(monkeypatch):
    """Streams of every stored tuple whose preferences were decoded."""
    streams = []
    original = Store.preferences

    def counting(self, lineage, seq, encoded):
        streams.append(LINEAGE_STREAM.format(*lineage))
        return original(self, lineage, seq, encoded)

    monkeypatch.setattr(Store, "preferences", counting)
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
            prior = engine.ledger.stream(LINEAGE_STREAM.format(*lineage)).item_count
            assert prior >= 1
            publication = engine.set_policy(
                2, BENCH_ACCESSOR_ID, make_prefs(attribute_id=6)
            )
            assert publication.version == prior + 1
            assert decodes == []
            line = policy_line(config.data_dir, publication.seq)
            latest = engine.store.latest_tuple_instance(lineage, publication.seq, line)
            assert latest.version == prior + 1
            assert decodes == []  # reading a line decodes nothing
            # Nothing of the published version was kept: the next query
            # reads it back from disk and decodes it, and the one after
            # keeps what that one checked.
            stream = LINEAGE_STREAM.format(*lineage)
            for expected in ([stream], []):
                decodes.clear()
                result = engine.mediate(point_request(2, "city"), now=NOW)
                [entry] = result.verification
                assert (entry.seq, entry.verified) == (publication.seq, True)
                assert decodes == expected


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
            seq = engine.ledger.latest_seq(LINEAGE_STREAM.format(*lineage))
            line = policy_line(config.data_dir, seq)
            latest = engine.store.latest_tuple_instance(lineage, seq, line)
            assert latest == as_stored(decode_instance(json.dumps(history[-1])))


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

            # The edit fails the commitment, before any decode, and a
            # failed check is not cached as a pass: the next touch fails
            # again.
            line = policy_line(engine.config.data_dir, mismatch.seq)
            stored = engine.store.latest_tuple_instance((4, 5, 3), mismatch.seq, line)
            published = engine.ledger.latest_item("stream-4-5-3").payload
            assert commit(stored.nonce, stored.encoded) != published
            assert engine.mediate(request, now=NOW).verification == result.verification
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


def _demo_query(engine, attribute):
    return engine.mediate(
        QueryRequest(
            accessor_id=DEMO_ACCESSOR_ID,
            requested_purpose="care-delivery",
            attributes=(attribute,),
            provider_id=DEMO_PROVIDER_ID,
        ),
        now=NOW,
    )


def test_record_filed_under_another_stream_is_corrupt(tmp_path):
    for config in _demo_configs(tmp_path):

        def restream(record):
            record["stream"] = "stream-4-5-3"

        _rewrite_latest(config, 1, restream)  # a first_name record claims street_name
        with closing(Engine.open(config)) as engine:
            # It is caught on the lineage whose ledger seq names its line.
            seq = engine.ledger.latest_seq("stream-4-1-3")
            line = policy_line(config.data_dir, seq)
            with pytest.raises(CorruptRecord, match="disagrees"):
                engine.store.latest_tuple_instance((4, 1, 3), seq, line)
            result = _demo_query(engine, "first_name")
            assert result.status is MediationStatus.ABORTED
            assert [(e.seq, e.note) for e in result.verification] == [(seq, "mismatch")]
            assert _demo_query(engine, "street_name").status is MediationStatus.COMPLETED


def test_corrupt_record_without_a_stream_is_a_mismatch(tmp_path):
    for config in _demo_configs(tmp_path):

        def restream(record):
            record["stream"] = "stream-4-9-3"  # original_province: never published

        _rewrite_latest(config, 5, restream)
        with closing(Engine.open(config)) as engine:
            # The ledger names the line for street_name, whose query aborts;
            # original_province has no stream, so nothing is read for it.
            seq = engine.ledger.latest_seq("stream-4-5-3")
            result = _demo_query(engine, "street_name")
            assert result.status is MediationStatus.ABORTED
            assert [(e.seq, e.note) for e in result.verification] == [(seq, "mismatch")]
            result = _demo_query(engine, "original_province")
            assert result.status is MediationStatus.COMPLETED
            assert [(e.seq, e.note) for e in result.verification] == [(None, "no-policy")]


def test_a_stored_version_never_published_is_never_read(tmp_path, decodes):
    for config in _demo_configs(tmp_path):
        # A next street_name version stored past every ledger seq, as if
        # its publish never reached the ledger.
        path = config.data_dir / "policy.db"
        record = json.loads(path.read_text().splitlines()[2])
        assert (record["stream"], record["tuple"]["version"]) == ("stream-4-5-3", 3)
        record["seq"], record["tuple"]["version"] = 99, 4
        with open(path, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
        with closing(Engine.open(config)) as engine:
            result = _demo_query(engine, "street_name")
            assert result.status is MediationStatus.COMPLETED
            assert [(e.seq, e.note) for e in result.verification] == [(3, "ok")]
            assert decodes == ["stream-4-5-3"]  # the published line alone
        decodes.clear()


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
    with closing(Store(tmp_path, hash_cost=2048, create=True)) as store:
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
