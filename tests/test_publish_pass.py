"""Publishing a policy version: the bytes it writes, and what a write that
fails leaves behind.

A publication derives the tuple dict, the canonical encoding, the hash
record text and the ledger line once each; the files must hold what they
always held.  The digests below are of the files this module's build
writes under a fixed salt source and clock.  A store write that fails
must leave memory as the file is, and an open or create that fails must
leave no file open.
"""

from __future__ import annotations

import datetime as dt
import hashlib
import json
import os

import pytest

from helpers import (
    DEMO_ACCESSOR_ID,
    DEMO_LINEAGE_A,
    DEMO_PROVIDER_ID,
    TickingClock,
    demo_preferences,
    install_demo_fixture,
    make_accessor,
    make_engine,
)
from ledger_reference import reference_render_line
from privledger import ledger as ledger_module
from privledger import store as store_module
from privledger import tuples
from privledger.engine import Engine, EngineConfig
from privledger.ledger import Ledger
from privledger.mediator import MediationStatus, QueryRequest
from privledger.store import (
    AuthenticationFailed,
    ProviderRecord,
    Store,
    StoreError,
    TupleInstance,
    UnknownAccessor,
)
from privledger.tuples import canonical_encode, hash_tuple

# 23:59:59.998 at UTC-07:00, so the UTC date is the next day's.
START = dt.datetime(2024, 2, 28, 23, 59, 59, 998000, tzinfo=dt.timezone(dt.timedelta(hours=-7)))
PUBLISHER = "node-0123abcd"
FILE_DIGESTS = {
    "content.db": "2163086a404e3de4634aaf6e7be790bb6bf0519d03d267398aceb8042a53fec2",
    "credentials.db": "5528acb6c83a9590c108dd803fbcceb9215ad4ebbf5dacfc0b915068e247d43e",
    "ledger.db": "6b42ae742be807e21ba1644aa28b79aba70ca62e2a525d902acd9945466d3809",
    "policy.db": "1ab4a82f9eec2ae947228baef66b623fc77ee7fd55f1ee24741017f2a1c77c49",
}


@pytest.fixture
def fixed_salts(monkeypatch):
    """Salts 00..00, 01..01, ... in the order they are drawn."""
    drawn = []

    def token_bytes(n):
        drawn.append(bytes([len(drawn) % 256]) * n)
        return drawn[-1]

    monkeypatch.setattr(tuples.secrets, "token_bytes", token_bytes)


@pytest.fixture
def opened(monkeypatch):
    """Every file the store and the ledger open, to check all are closed."""
    handles = []

    def tracking(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    for module in (store_module, ledger_module):
        monkeypatch.setattr(module, "open", tracking, raising=False)
    return handles


def fixed_engine(data_dir) -> Engine:
    config = EngineConfig(data_dir=data_dir, hash_cost=8)
    data_dir.mkdir()
    store = Store(data_dir, hash_cost=8, create=True)
    led = Ledger(config.ledger_file, clock=TickingClock(START), publisher=PUBLISHER, create=True)
    return Engine(config, store, led)


def test_publish_writes_the_bytes_it_always_wrote(tmp_path, fixed_salts):
    engine = fixed_engine(tmp_path / "data")
    install_demo_fixture(engine)
    policy_lines = (engine.config.data_dir / "policy.db").read_text().splitlines()
    for revision in range(2):
        publication = engine.set_policy(
            DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(9, note=f"r{revision}")
        )
        instance = engine.store.latest_tuple_instance((DEMO_PROVIDER_ID, 9, DEMO_ACCESSOR_ID))
        assert (instance.seq, instance.version) == (publication.seq, publication.version)
        lines = (engine.config.data_dir / "policy.db").read_text().splitlines()
        assert lines[:-1] == policy_lines
        assert lines[-1] == json.dumps(instance.to_dict(), sort_keys=True)
        assert TupleInstance.from_dict(json.loads(lines[-1])) == instance
        assert instance.encoded == canonical_encode(instance.privacy_tuple)
        policy_lines = lines
    ledger_lines = engine.config.ledger_file.read_text().splitlines()
    assert len(ledger_lines) == engine.ledger.chain_length() == 1 + 3 + 9
    for seq, line in enumerate(ledger_lines):
        assert line == reference_render_line(engine.ledger.item(seq))
    assert engine.ledger.item(0).timestamp == dt.datetime(
        2024, 2, 29, 6, 59, 59, 998000, tzinfo=dt.timezone.utc
    )
    engine.close()
    digests = {
        name: hashlib.sha256((engine.config.data_dir / name).read_bytes()).hexdigest()
        for name in FILE_DIGESTS
    }
    assert digests == FILE_DIGESTS


def refuse_year_999(path):
    # Local year 1000 is UTC year 999, which open would refuse.
    moment = dt.datetime(1000, 1, 1, 0, 30, tzinfo=dt.timezone(dt.timedelta(hours=1)))
    with pytest.raises(ValueError, match=r"invalid timestamp: '999-12-31T23:30:00\.000Z'"):
        Ledger(path, clock=lambda: moment, create=True)


def test_a_ledger_dated_before_year_1000_is_refused(tmp_path):
    refuse_year_999(tmp_path / "ledger.db")
    assert (tmp_path / "ledger.db").read_bytes() == b""


def test_failed_create_leaves_no_file_open(tmp_path, opened):
    refuse_year_999(tmp_path / "ledger.db")
    assert opened and all(handle.closed for handle in opened)


def test_failed_open_leaves_no_file_open(tmp_path, opened):
    engine = make_engine(tmp_path)
    install_demo_fixture(engine)
    engine.close()
    path = engine.config.data_dir / "credentials.db"
    path.write_bytes(path.read_bytes().replace(b'"', b'"\xff', 1))
    with pytest.raises(StoreError, match="credentials.db line 1"):
        Engine.open(engine.config)
    assert opened and all(handle.closed for handle in opened)


# ---------------------------------------------------------------------------
# A write that fails
# ---------------------------------------------------------------------------


def unwritable(path):
    """Replace a family file with a directory, so appending to it fails."""
    path.unlink()
    path.mkdir()


def sample_instance(store, version=1, seq=1) -> TupleInstance:
    bound = tuples.bind_tuple(
        DEMO_PROVIDER_ID,
        store.catalog.by_id(5),
        demo_preferences(5),
        make_accessor(DEMO_ACCESSOR_ID),
        version - 1,
    )
    record = hash_tuple(canonical_encode(bound), 2)
    return TupleInstance(bound, record, "stream-4-5-3", seq)


@pytest.fixture
def store(tmp_path):
    store = Store(tmp_path, hash_cost=4, create=True)
    store.put_provider_record(ProviderRecord(DEMO_PROVIDER_ID, {"city": "Red Deer"}))
    yield store
    store.close()


def test_failed_tuple_append_keeps_the_held_version(tmp_path, store):
    unwritable(tmp_path / "policy.db")
    with pytest.raises(IsADirectoryError):
        store.put_tuple_instance(sample_instance(store))
    assert store.lineage_version(DEMO_LINEAGE_A) == 0
    assert store.latest_tuple_instance(DEMO_LINEAGE_A) is None
    (tmp_path / "policy.db").rmdir()
    store.put_tuple_instance(sample_instance(store))
    assert store.lineage_version(DEMO_LINEAGE_A) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_failed_flush_reaches_no_later_append(tmp_path, store):
    path = tmp_path / "policy.db"
    path.unlink()
    path.symlink_to("/dev/full")
    with pytest.raises(OSError):
        store.put_tuple_instance(sample_instance(store))
    path.unlink()
    path.touch()
    second = sample_instance(store, seq=2)
    store.put_tuple_instance(second)
    assert path.read_text() == json.dumps(second.to_dict(), sort_keys=True) + "\n"
    assert store.latest_tuple_instance(DEMO_LINEAGE_A) == second


def test_failed_provider_write_keeps_the_held_record(tmp_path, store):
    unwritable(tmp_path / "content.db")
    with pytest.raises(IsADirectoryError):
        store.put_provider_record(ProviderRecord(5, {"city": "Calgary"}))
    assert not store.has_provider(5)
    with pytest.raises(IsADirectoryError):  # the replace path renames
        store.put_provider_record(ProviderRecord(DEMO_PROVIDER_ID, {"city": "Calgary"}))
    assert store.get_provider_record(DEMO_PROVIDER_ID).attributes == {"city": "Red Deer"}
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "content.db", "credentials.db", "policy.db"
    ]


def test_failed_accessor_write_registers_nobody(tmp_path, store):
    unwritable(tmp_path / "credentials.db")
    with pytest.raises(IsADirectoryError):
        store.add_accessor("physician3", "pw", make_accessor())
    with pytest.raises(AuthenticationFailed):
        store.authenticate("physician3", "pw")
    with pytest.raises(UnknownAccessor):
        store.get_accessor(DEMO_ACCESSOR_ID)
    (tmp_path / "credentials.db").rmdir()
    store.add_accessor("physician3", "pw", make_accessor())
    assert store.authenticate("physician3", "pw") == make_accessor()


def test_failed_store_write_in_set_policy_aborts_the_lineage(tmp_path):
    engine = make_engine(tmp_path)
    install_demo_fixture(engine)
    engine.close()
    request = QueryRequest(
        accessor_id=DEMO_ACCESSOR_ID,
        requested_purpose="care-delivery",
        attributes=("first_name", "street_name"),
        provider_id=DEMO_PROVIDER_ID,
    )
    engine = Engine.open(engine.config)
    assert engine.mediate(request).status is MediationStatus.COMPLETED
    policy = engine.config.data_dir / "policy.db"
    policy.rename(tmp_path / "policy.db.kept")
    policy.mkdir()
    with pytest.raises(IsADirectoryError):
        engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5, note="lost"))
    policy.rmdir()
    (tmp_path / "policy.db.kept").rename(policy)

    def mismatches(result):
        return [e.lineage.key for e in result.verification if e.note == "mismatch"]

    result = engine.mediate(request)
    assert result.status is MediationStatus.ABORTED
    assert mismatches(result) == [DEMO_LINEAGE_A]
    engine.close()
    reopened = Engine.open(engine.config)
    again = reopened.mediate(request)
    assert (again.status, again.verification) == (result.status, result.verification)
    reopened.close()
