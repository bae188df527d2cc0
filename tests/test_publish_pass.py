"""Publishing a policy version: the bytes it writes, and what a write that
fails leaves behind.

A publication derives the canonical encoding, the commitment and the
ledger line once each; the files must hold data format 4: one ledger
record per publication after the genesis, each as the reference renders
it, its payload SHA-256 of the nonce and the encoding, and policy.db
lines that hold the nonce and the encoding verbatim, with no copy of the
commitment.  The digests below are of the files this module's build
writes under a fixed salt and nonce source and clock; content.db and
credentials.db read as they did in format 3, policy.db differs from
format 3 only in each line's nonce, and ledger.db in its payloads (and
so its digests).  A store write that fails
must leave memory as the file is, and an open or create that fails must
leave no file open.  Once closed, the ledger and the store refuse every
read and write of their files.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import errno
import hashlib
import json
import os
import re
import stat

import pytest

from helpers import (
    DEMO_ACCESSOR_ID,
    DEMO_LINEAGE_A,
    DEMO_LINEAGE_B,
    DEMO_PROVIDER_ID,
    Instance,
    TickingClock,
    as_stored,
    chain_length,
    decode_instance,
    demo_preferences,
    install_demo_fixture,
    make_accessor,
    make_engine,
    named_ledger,
    policy_index,
    policy_line,
    put_instance,
)
from ledger_reference import reference_render_line
from privledger import files as files_module
from privledger import tuples
from privledger.engine import Engine, EngineConfig
from privledger.files import CHECKPOINT_SUFFIX
from privledger.ledger import Ledger
from privledger.mediator import MediationStatus, QueryRequest
from privledger.store import (
    AuthenticationFailed,
    ProviderRecord,
    Store,
    StoreError,
    UnknownAccessor,
)
from privledger.tuples import canonical_encode

# 23:59:59.998 at UTC-07:00, so the UTC date is the next day's.
START = dt.datetime(2024, 2, 28, 23, 59, 59, 998000, tzinfo=dt.timezone(dt.timedelta(hours=-7)))
PUBLISHER = "node-0123abcd"
FILE_DIGESTS = {
    "content.db": "2163086a404e3de4634aaf6e7be790bb6bf0519d03d267398aceb8042a53fec2",
    "credentials.db": "f042b89735b345606023f3e17f8bb0757e179cacdd2c118fc580eafff33404c1",
    "ledger.db": "6ced4693d5078dafcc27ee2b31023de0c9fdeb44296a7337e1fa2561116eca0e",
    "policy.db": "b8c76687c9df8ff7928296413c8d867310f474d738f77346621072446701db4e",
}


@pytest.fixture
def fixed_salts(monkeypatch):
    """Salts and nonces 00..00, 01..01, ... in the order they are drawn."""
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

    monkeypatch.setattr(files_module, "open", tracking, raising=False)
    return handles


def fixed_engine(data_dir) -> Engine:
    config = EngineConfig(data_dir=data_dir, hash_cost=8)
    data_dir.mkdir()
    store = Store(data_dir, hash_cost=8, create=True)
    led = named_ledger(config.ledger_file, PUBLISHER, TickingClock(START))
    return Engine(config, store, led)


def test_publish_writes_the_bytes_it_always_wrote(tmp_path, fixed_salts):
    with contextlib.closing(fixed_engine(tmp_path / "data")) as engine:
        install_demo_fixture(engine)
        policy_lines = (engine.config.data_dir / "policy.db").read_text().splitlines()
        for revision in range(2):
            publication = engine.set_policy(
                DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(9, note=f"r{revision}")
            )
            line = policy_line(engine.config.data_dir, publication.seq)
            instance = decode_instance(line)
            assert (instance.seq, instance.version) == (publication.seq, publication.version)
            assert engine.store.latest_tuple_instance(
                (DEMO_PROVIDER_ID, 9, DEMO_ACCESSOR_ID), publication.seq, line
            ) == as_stored(instance)
            lines = (engine.config.data_dir / "policy.db").read_text().splitlines()
            assert lines[:-1] == policy_lines
            assert lines[-1] == instance.line() == line.decode()
            policy_lines = lines
        # The genesis, then one record per publication: 7 in the demo, 2 here.
        ledger_lines = engine.config.ledger_file.read_text().splitlines()
        assert len(policy_lines) == 9
        assert len(ledger_lines) == chain_length(engine.ledger) == 1 + 9
        for seq, line in enumerate(ledger_lines):
            assert line == reference_render_line(engine.ledger.item(seq))
        for line in policy_lines:
            record = json.loads(line)
            assert sorted(record) == ["nonce", "seq", "stream", "tuple"]
            instance = decode_instance(line)
            item = engine.ledger.item(instance.seq)
            assert item.stream == instance.stream
            encoded = canonical_encode(instance.privacy_tuple)
            assert item.payload == tuples.commit(instance.nonce, encoded)
        assert engine.ledger.item(0).timestamp == dt.datetime(
            2024, 2, 29, 6, 59, 59, 998000, tzinfo=dt.timezone.utc
        )
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
    with contextlib.closing(make_engine(tmp_path)) as engine:
        install_demo_fixture(engine)
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


def sample_instance(store, version=1, seq=1) -> Instance:
    bound = tuples.bind_tuple(
        DEMO_PROVIDER_ID,
        store.catalog.by_id(5),
        demo_preferences(5),
        make_accessor(DEMO_ACCESSOR_ID),
        version - 1,
    )
    return Instance(bound, "stream-4-5-3", seq, bytes(tuples.NONCE_BYTES))


@pytest.fixture
def store(tmp_path):
    store = Store(tmp_path, hash_cost=4, create=True)
    store.put_provider_record(ProviderRecord(DEMO_PROVIDER_ID, {"city": "Red Deer"}))
    yield store
    store.close()


def test_failed_tuple_append_keeps_the_held_version(tmp_path, store):
    unwritable(tmp_path / "policy.db")
    with pytest.raises(IsADirectoryError):
        put_instance(store, sample_instance(store))
    assert policy_index(store) == []
    assert list(store.policy_runs([1])) == [(0, 1, None, None)]
    (tmp_path / "policy.db").rmdir()
    put_instance(store, sample_instance(store))
    # The open store reads the file it opened, now gone; a fresh one finds
    # the line on disk.
    with contextlib.closing(Store(tmp_path, hash_cost=4)) as fresh:
        line = policy_line(tmp_path, 1)
        assert fresh.latest_tuple_instance(DEMO_LINEAGE_A, 1, line).version == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_failed_flush_reaches_no_later_append(tmp_path, store):
    path = tmp_path / "policy.db"
    path.unlink()
    path.symlink_to("/dev/full")
    with pytest.raises(OSError):
        put_instance(store, sample_instance(store))
    path.unlink()
    path.touch()
    second = sample_instance(store, seq=2)
    put_instance(store, second)
    assert path.read_text() == second.line() + "\n"
    with contextlib.closing(Store(tmp_path, hash_cost=4)) as fresh:
        line = policy_line(tmp_path, 2)
        assert fresh.latest_tuple_instance(DEMO_LINEAGE_A, 2, line) == as_stored(second)


def test_failed_provider_write_keeps_the_held_record(tmp_path, store):
    store.close()  # its append handle is held until close; a fresh store holds none
    store = Store(tmp_path, hash_cost=4)
    unwritable(tmp_path / "content.db")
    with pytest.raises(IsADirectoryError):
        store.put_provider_record(ProviderRecord(5, {"city": "Calgary"}))
    assert not store.has_provider(5)
    with pytest.raises(IsADirectoryError):  # the replace path renames
        store.put_provider_record(ProviderRecord(DEMO_PROVIDER_ID, {"city": "Calgary"}))
    assert store.get_provider_record(DEMO_PROVIDER_ID).attributes == {"city": "Red Deer"}
    store.close()
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
    with contextlib.closing(make_engine(tmp_path)) as engine:
        install_demo_fixture(engine)
    request = QueryRequest(
        accessor_id=DEMO_ACCESSOR_ID,
        requested_purpose="care-delivery",
        attributes=("first_name", "street_name"),
        provider_id=DEMO_PROVIDER_ID,
    )
    with contextlib.closing(Engine.open(engine.config)) as engine:
        assert engine.mediate(request).status is MediationStatus.COMPLETED
        policy = engine.config.data_dir / "policy.db"
        policy.rename(tmp_path / "policy.db.kept")
        policy.mkdir()
        with pytest.raises(IsADirectoryError):
            engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5, note="lost"))
        policy.rmdir()
        (tmp_path / "policy.db.kept").rename(policy)

        def mismatches(result):
            return [e.lineage for e in result.verification if e.note == "mismatch"]

        result = engine.mediate(request)
        assert result.status is MediationStatus.ABORTED
        assert mismatches(result) == [DEMO_LINEAGE_A]
    with contextlib.closing(Engine.open(engine.config)) as reopened:
        again = reopened.mediate(request)
        assert (again.status, again.verification) == (result.status, result.verification)


def test_an_interrupted_publish_aborts_its_lineage_until_the_next_publish(tmp_path):
    """The ledger took a version and policy.db did not: that lineage aborts
    at the ledger's seq, with no hash run for it, the others answer, and the
    next publish binds the version after the interrupted one."""
    with contextlib.closing(make_engine(tmp_path)) as engine:
        install_demo_fixture(engine)
    both, first_name = (
        QueryRequest(
            accessor_id=DEMO_ACCESSOR_ID,
            requested_purpose="care-delivery",
            attributes=attributes,
            provider_id=DEMO_PROVIDER_ID,
        )
        for attributes in (("street_name", "first_name"), ("first_name",))
    )
    policy = engine.config.data_dir / "policy.db"
    with contextlib.closing(Engine.open(engine.config)) as engine:
        policy.rename(tmp_path / "policy.db.kept")
        policy.mkdir()
        with pytest.raises(IsADirectoryError):
            engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5, note="lost"))
        policy.rmdir()
        (tmp_path / "policy.db.kept").rename(policy)
        lost = engine.ledger.latest_seq("stream-4-5-3")
        result = engine.mediate(both)
        assert result.status is MediationStatus.ABORTED
        assert [(e.lineage, e.seq, e.note) for e in result.verification] == [
            (DEMO_LINEAGE_B, engine.ledger.latest_seq("stream-4-1-3"), "ok"),
            (DEMO_LINEAGE_A, lost, "mismatch"),
        ]
        assert result.ops.hash_verifications == 1
        assert engine.mediate(first_name).status is MediationStatus.COMPLETED
        publication = engine.set_policy(
            DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5, note="found")
        )
        assert publication.version == engine.ledger.stream("stream-4-5-3").item_count == 5
        assert engine.mediate(both).status is MediationStatus.COMPLETED
    versions = [
        record["tuple"]["version"]
        for record in map(json.loads, policy.read_text().splitlines())
        if record["stream"] == "stream-4-5-3"
    ]
    assert versions == [1, 2, 3, 5]
    with contextlib.closing(Engine.open(engine.config)) as reopened:
        assert reopened.mediate(both).status is MediationStatus.COMPLETED


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
    monkeypatch.setattr(files_module, "open", disk.open, raising=False)
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
    assert (chain_length(led), led.has_stream("stream-4-1-3")) == (2, False)
    disk.room = None
    second = led.publish("stream-4-5-3", "key18", b"v2")
    led.close()
    reopened = Ledger(path)
    assert reopened.verify_chain().intact
    assert reopened.list_items("stream-4-5-3") == [first, second]
    assert not reopened.has_stream("stream-4-1-3")
    reopened.close()


def _policy_append(store):
    put_instance(store, sample_instance(store, seq=2))


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
def test_failed_store_append_leaves_no_part_of_its_line(tmp_path, disk, store, family, append):
    # disk comes first, so the append handle the store fixture's own append
    # opened and holds is the disk's.
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
    if family == "policy.db":
        line = policy_line(tmp_path, 2)
        assert reopened.latest_tuple_instance(DEMO_LINEAGE_A, 2, line) == as_stored(
            sample_instance(reopened, seq=2)
        )
    else:
        assert list(reopened.policy_runs([2])) == [(0, 1, None, None)]
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
    with contextlib.closing(make_engine(tmp_path)) as engine:
        install_demo_fixture(engine)
    path = engine.config.data_dir / family
    cut = path.read_bytes().removesuffix(b"\n")
    path.write_bytes(cut)

    with contextlib.closing(Engine.open(engine.config)) as engine:
        publication = engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5))
        engine.add_provider(5, {"city": "Calgary"})
        engine.add_accessor("nurse9", "nurse9-secret", make_accessor(9))
    data = path.read_bytes()
    assert data.startswith(cut + b"\n") and data.endswith(b"\n")
    assert b"\n\n" not in data

    with contextlib.closing(Engine.open(engine.config)) as engine:
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


DATA_FILES = ("content.db", "credentials.db", "ledger.db", "policy.db")
CHECKPOINTS = tuple(name + CHECKPOINT_SUFFIX for name in ("ledger.db", "policy.db"))


@pytest.fixture(params=[0o022, 0o026, 0o000], ids=lambda mask: f"umask-{mask:03o}")
def umask(request):
    old = os.umask(request.param)
    try:
        yield
    finally:
        os.umask(old)


def file_modes(data_dir, names) -> dict:
    return {name: stat.S_IMODE((data_dir / name).stat().st_mode) for name in names}


def test_a_written_file_is_private_whatever_the_umask(tmp_path, umask):
    """Every file the engine creates, a provider update's rewrite and each
    checkpoint included, has mode 0600, in a directory of mode 0700.  A
    rewrite does not take the mode of the file it replaces; an append
    leaves the file's mode as it is."""
    with contextlib.closing(make_engine(tmp_path)) as engine:
        install_demo_fixture(engine)
        engine.add_provider(DEMO_PROVIDER_ID, {"city": "Calgary"})  # rewrites content.db
    # Closing it wrote both checkpoints, where there were none.
    data_dir = engine.config.data_dir
    names = DATA_FILES + CHECKPOINTS + ("format",)
    assert stat.S_IMODE(data_dir.stat().st_mode) == 0o700
    assert file_modes(data_dir, names) == dict.fromkeys(names, 0o600)

    loose = dict.fromkeys(names, 0o644)
    for name, mode in loose.items():
        (data_dir / name).chmod(mode)
    with contextlib.closing(Engine.open(engine.config)) as engine:
        engine.add_provider(DEMO_PROVIDER_ID, {"city": "Edmonton"})
        engine.set_policy(DEMO_PROVIDER_ID, DEMO_ACCESSOR_ID, demo_preferences(5))  # both checkpoints due
    rewritten = ("content.db", *CHECKPOINTS)
    assert file_modes(data_dir, names) == {**loose, **dict.fromkeys(rewritten, 0o600)}
    assert sorted(path.name for path in data_dir.iterdir()) == sorted(names)
    with contextlib.closing(Engine.open(engine.config)) as engine:
        assert engine.store.get_provider_record(DEMO_PROVIDER_ID).attributes == {"city": "Edmonton"}


# ---------------------------------------------------------------------------
# Use after close
# ---------------------------------------------------------------------------


def closed_file(path) -> str:
    return rf"^I/O operation on closed file: {re.escape(str(path))}$"


def test_a_closed_ledger_refuses_every_read_and_append(tmp_path, opened):
    path = tmp_path / "ledger.db"
    led = Ledger(path, clock=TickingClock(), create=True)
    led.create_stream("stream-4-5-3", "key17", b"v1")
    led.close()
    before = path.read_bytes()
    for use in (
        lambda: led.item(0),
        lambda: led.record(1),
        lambda: led.latest_item("stream-4-5-3"),
        lambda: led.list_items("stream-4-5-3"),
        lambda: led.create_stream("stream-4-1-3", "key17", b"v1"),
        lambda: led.publish("stream-4-5-3", "key18", b"v2"),
    ):
        with pytest.raises(ValueError, match=closed_file(path)):
            use()
    assert path.read_bytes() == before
    assert opened and all(handle.closed for handle in opened)


def test_a_closed_store_refuses_to_read_or_append_a_tuple(tmp_path, opened):
    with contextlib.closing(make_engine(tmp_path)) as engine:
        install_demo_fixture(engine)
    store = Store(engine.config.data_dir, hash_cost=8)
    store.close()
    path = engine.config.data_dir / "policy.db"
    before = path.read_bytes()
    with pytest.raises(ValueError, match=closed_file(path)):
        store.policy_file.read(0, 1)  # not a CorruptRecord
    with pytest.raises(ValueError, match=closed_file(path)):
        put_instance(store, sample_instance(store, version=9, seq=99))
    assert path.read_bytes() == before
    assert opened and all(handle.closed for handle in opened)


def test_a_closed_engine_writes_no_provider_or_accessor(tmp_path):
    with contextlib.closing(make_engine(tmp_path)) as engine:
        install_demo_fixture(engine)
    data_dir = engine.config.data_dir
    before = {path.name: path.read_bytes() for path in data_dir.iterdir()}
    for name, write in (
        ("content.db", lambda: engine.add_provider(7, {"city": "Calgary"})),  # an append
        ("content.db", lambda: engine.add_provider(DEMO_PROVIDER_ID, {"city": "Calgary"})),
        ("credentials.db", lambda: engine.add_accessor("nurse9", "secret", make_accessor(9))),
    ):
        with pytest.raises(ValueError, match=closed_file(data_dir / name)):
            write()
    assert {path.name: path.read_bytes() for path in data_dir.iterdir()} == before
    assert not engine.store.has_provider(7)
    assert engine.store.get_provider_record(DEMO_PROVIDER_ID).attributes["city"] != "Calgary"


def test_a_second_close_writes_no_checkpoint(tmp_path):
    with contextlib.closing(make_engine(tmp_path)) as engine:
        install_demo_fixture(engine)
    data_dir = engine.config.data_dir

    def files():
        return {path.name: (path.stat().st_ino, path.read_bytes()) for path in data_dir.iterdir()}

    before = files()
    assert all(f"{name}{CHECKPOINT_SUFFIX}" in before for name in ("ledger.db", "policy.db"))
    engine.close()
    assert files() == before


def test_a_closed_engine_raises_rather_than_abort_a_query(tmp_path):
    with contextlib.closing(make_engine(tmp_path)) as engine:
        install_demo_fixture(engine)
    engine = Engine.open(engine.config)
    engine.close()
    request = QueryRequest(
        accessor_id=DEMO_ACCESSOR_ID,
        requested_purpose="care-delivery",
        attributes=("street_name",),
        provider_id=DEMO_PROVIDER_ID,
    )
    with pytest.raises(ValueError, match=closed_file(engine.config.data_dir / "policy.db")):
        engine.mediate(request, now=dt.date(2021, 7, 1))


def test_a_warm_engine_once_closed_raises_too(tmp_path):
    # Every query reads both records of a published lineage, so what a
    # warm engine verified before its close answers nothing after it.
    with contextlib.closing(make_engine(tmp_path)) as engine:
        install_demo_fixture(engine)
    engine = Engine.open(engine.config)
    request = QueryRequest(
        accessor_id=DEMO_ACCESSOR_ID,
        requested_purpose="care-delivery",
        attributes=("street_name",),
        provider_id=DEMO_PROVIDER_ID,
    )
    assert engine.mediate(request, now=dt.date(2021, 7, 1)).verification[0].verified
    engine.close()
    with pytest.raises(ValueError, match=closed_file(engine.config.data_dir / "policy.db")):
        engine.mediate(request, now=dt.date(2021, 7, 1))
