"""Publishing a policy version: the bytes it writes, and what a write that
fails leaves behind.

A publication derives the tuple dict, the canonical encoding, the hash
record text and the ledger line once each; the files must hold data
format 2: one ledger record per publication after the genesis, each as
the reference renders it, and policy.db lines with no copy of the hash.
The digests below are of the files this module's build writes under a
fixed salt source and clock; content.db and credentials.db read as they
did in format 1.  A store write that fails
must leave memory as the file is, and an open or create that fails must
leave no file open.
"""

from __future__ import annotations

import datetime as dt
import errno
import hashlib
import json
import os
import stat

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
from privledger.ledger import CHECKPOINT_SUFFIX, Ledger
from privledger.mediator import MediationStatus, QueryRequest
from privledger.store import (
    AuthenticationFailed,
    ProviderRecord,
    Store,
    StoreError,
    TupleInstance,
    UnknownAccessor,
)
from privledger.tuples import canonical_encode

# 23:59:59.998 at UTC-07:00, so the UTC date is the next day's.
START = dt.datetime(2024, 2, 28, 23, 59, 59, 998000, tzinfo=dt.timezone(dt.timedelta(hours=-7)))
PUBLISHER = "node-0123abcd"
FILE_DIGESTS = {
    "content.db": "2163086a404e3de4634aaf6e7be790bb6bf0519d03d267398aceb8042a53fec2",
    "credentials.db": "5528acb6c83a9590c108dd803fbcceb9215ad4ebbf5dacfc0b915068e247d43e",
    "ledger.db": "fa88674104bbe13e496520a688e0893fb2bb846aadbc132228a3a4cc4762a5f1",
    "policy.db": "2e00703cfae01efb657143755b7a9411e8e7f410589b2b8443eef23de4eff40b",
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
    # The genesis, then one record per publication: 7 in the demo, 2 here.
    ledger_lines = engine.config.ledger_file.read_text().splitlines()
    assert len(policy_lines) == 9
    assert len(ledger_lines) == engine.ledger.chain_length() == 1 + 9
    for seq, line in enumerate(ledger_lines):
        assert line == reference_render_line(engine.ledger.item(seq))
    for line in policy_lines:
        record = json.loads(line)
        assert sorted(record) == ["seq", "stream", "tuple"]
        instance = TupleInstance.from_dict(record)
        item = engine.ledger.item(instance.seq)
        assert item.stream == instance.stream
        hashed = tuples.HashRecord.from_string(item.payload.decode("ascii"))
        assert tuples.verify_hash(canonical_encode(instance.privacy_tuple), hashed)
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
    return TupleInstance(bound, "stream-4-5-3", seq)


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


# ---------------------------------------------------------------------------
# An append that fails part way
# ---------------------------------------------------------------------------


class _Disk:
    """The disk the ledger and the store append to, with room for a set
    number of bytes more (None: no limit).  A write takes what fits and
    returns its count, and fails with ENOSPC once no room is left, as a
    write to a device that fills up does."""

    def __init__(self):
        self.room = None

    def open(self, path, mode="r", *args, **kwargs):
        handle = open(path, mode, *args, **kwargs)
        return _DiskHandle(self, handle) if "a" in mode else handle


class _DiskHandle:
    def __init__(self, disk, handle):
        self._disk = disk
        self._handle = handle

    def write(self, data):
        room = self._disk.room
        if room is not None:
            if room == 0:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            data = data[:room]
            self._disk.room = room - len(data)
        return self._handle.write(data)

    def fileno(self):
        return self._handle.fileno()

    @property
    def closed(self):
        return self._handle.closed

    def close(self):
        self._handle.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


@pytest.fixture
def disk(monkeypatch):
    """The disk the ledger and the store append to from here on."""
    disk = _Disk()
    for module in (store_module, ledger_module):
        monkeypatch.setattr(module, "open", disk.open, raising=False)
    return disk


def test_failed_ledger_append_leaves_no_part_of_its_record(tmp_path, disk):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    first = led.create_stream("stream-4-5-3", "key17", b"v1")
    before = path.read_bytes()
    for append in (
        lambda: led.create_stream("stream-4-1-3", "key17", b"refused"),
        lambda: led.publish("stream-4-5-3", "key18", b"refused"),
    ):
        disk.room = 40  # part of a record
        with pytest.raises(OSError) as failure:
            append()
        assert failure.value.errno == errno.ENOSPC
        assert path.read_bytes() == before
    assert (led.chain_length(), led.has_stream("stream-4-1-3")) == (2, False)
    disk.room = None
    second = led.publish("stream-4-5-3", "key18", b"v2")
    led.close()
    reopened = Ledger(path)
    assert reopened.verify_chain().intact
    assert reopened.list_items("stream-4-5-3") == [first, second]
    assert not reopened.has_stream("stream-4-1-3")
    reopened.close()


def _policy_append(store):
    store.put_tuple_instance(sample_instance(store, seq=2))


def _content_append(store):
    store.put_provider_record(ProviderRecord(5, {"city": "Calgary"}))


def _credential_append(store):
    store.add_accessor("physician3", "pw", make_accessor())


@pytest.mark.parametrize(
    "family, append",
    [
        ("policy.db", _policy_append),
        ("content.db", _content_append),
        ("credentials.db", _credential_append),
    ],
    ids=["policy", "content", "credentials"],
)
def test_failed_store_append_leaves_no_part_of_its_line(tmp_path, store, disk, family, append):
    path = tmp_path / family
    before = path.read_bytes()
    disk.room = 40  # part of a line
    with pytest.raises(OSError) as failure:
        append(store)
    assert failure.value.errno == errno.ENOSPC
    assert path.read_bytes() == before
    disk.room = None
    append(store)
    lines = path.read_bytes().splitlines()
    assert lines[:-1] == before.splitlines() and all(json.loads(line) for line in lines)
    store.close()
    reopened = Store(tmp_path, hash_cost=4)
    assert reopened.latest_tuple_instance(DEMO_LINEAGE_A) == (
        sample_instance(reopened, seq=2) if family == "policy.db" else None
    )
    assert reopened.has_provider(5) == (family == "content.db")
    if family == "credentials.db":
        assert reopened.authenticate("physician3", "pw") == make_accessor()
    reopened.close()


# ---------------------------------------------------------------------------
# An append after a file that lacks its final newline
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("family", ["ledger.db", "policy.db", "content.db", "credentials.db"])
def test_append_after_a_missing_final_newline_starts_a_new_line(tmp_path, family):
    """Open accepts a file whose last line lacks its newline; the first
    append to it writes that newline first, so it runs into no record."""
    engine = make_engine(tmp_path)
    install_demo_fixture(engine)
    engine.close()
    path = engine.config.data_dir / family
    cut = path.read_bytes().removesuffix(b"\n")
    path.write_bytes(cut)

    engine = Engine.open(engine.config)
    publication = engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5))
    engine.add_provider(5, {"city": "Calgary"})
    engine.add_accessor("nurse9", "nurse9-secret", make_accessor(9))
    engine.close()
    data = path.read_bytes()
    assert data.startswith(cut + b"\n") and data.endswith(b"\n")
    assert b"\n\n" not in data

    engine = Engine.open(engine.config)
    assert engine.ledger.verify_chain().intact
    assert engine.ledger.latest_item("stream-4-5-3").seq == publication.seq
    result = engine.mediate(
        QueryRequest(
            accessor_id=DEMO_ACCESSOR_ID,
            requested_purpose="care-delivery",
            attributes=("street_name",),
            provider_id=DEMO_PROVIDER_ID,
        ),
        now=dt.date(2021, 7, 1),
    )
    assert [(e.seq, e.note) for e in result.verification] == [(publication.seq, "ok")]
    assert result.status is MediationStatus.COMPLETED
    assert engine.store.get_provider_record(5).attributes == {"city": "Calgary"}
    assert engine.store.authenticate("nurse9", "nurse9-secret") == make_accessor(9)
    engine.close()


DATA_FILES = ("content.db", "credentials.db", "ledger.db", "policy.db")
CHECKPOINTS = tuple(name + CHECKPOINT_SUFFIX for name in ("ledger.db", "policy.db"))
UMASK = 0o026  # a umask no default shares


@pytest.fixture
def umask():
    old = os.umask(UMASK)
    try:
        yield
    finally:
        os.umask(old)


def file_modes(data_dir, names) -> dict:
    return {name: stat.S_IMODE((data_dir / name).stat().st_mode) for name in names}


def test_a_rewritten_file_keeps_its_mode(tmp_path, umask):
    """A provider update and a checkpoint replace their file through a
    temporary one, which takes the mode of the file it replaces, or where
    there is none the mode a plain open creates a file with."""
    engine = make_engine(tmp_path)
    install_demo_fixture(engine)
    engine.add_provider(DEMO_PROVIDER_ID, {"city": "Calgary"})  # rewrites content.db
    engine.close()  # writes both checkpoints, where there were none
    data_dir = engine.config.data_dir
    names = DATA_FILES + CHECKPOINTS
    assert file_modes(data_dir, names) == dict.fromkeys(names, 0o666 & ~UMASK)

    chosen = dict(zip(names, (0o644, 0o604, 0o664, 0o660, 0o644, 0o600)))
    for name, mode in chosen.items():
        (data_dir / name).chmod(mode)
    engine = Engine.open(engine.config)
    engine.add_provider(DEMO_PROVIDER_ID, {"city": "Edmonton"})
    engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5))  # both checkpoints due
    engine.close()
    assert file_modes(data_dir, names) == chosen
    assert sorted(path.name for path in data_dir.iterdir()) == sorted((*names, "format"))
    engine = Engine.open(engine.config)
    assert engine.store.get_provider_record(DEMO_PROVIDER_ID).attributes == {"city": "Edmonton"}
    engine.close()
