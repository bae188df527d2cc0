"""Engine wiring: initialization and the policy-set flow.

The engine owns one store, one ledger (``ledger.db`` inside the data
directory, so the directory's lock covers it) and one mediator.
Publishing a policy binds the tuple at the version after its stream's
item count, hashes the canonical encoding, appends the hash to the
lineage's stream and only then records the plaintext instance in the
store at that item's seq, so the ledger is never behind the store and
the store's seqs rise.  A failed store append leaves its lineage
aborting as a mismatch until the next publish.  Nothing of a published
version stays in memory: the next query on its lineage reads it back
from policy.db, as a fresh process does.

Closing writes the checkpoints that let the next open skip the checks of
what this one checked or wrote (see ledger.IndexedFile); nothing else
writes them.

The configuration, the data format check and the engine's errors are in
config.py, which imports nothing of the engine.
"""

from __future__ import annotations

import datetime as dt
from typing import NamedTuple

from .config import (
    FORMAT,
    FORMAT_FILE,
    AlreadyInitialized,
    EngineConfig,
    EngineError,
    NotInitialized,
    make_private_dir,
    private,
    require_format,
)
from .ledger import LINEAGE_STREAM, Ledger
from .mediator import MediationResult, Mediator, NativeResult, QueryRequest
from .policy import AccessorProfile, PreferenceSet
from .store import ProviderRecord, Store, TupleInstance
from .tuples import bind_tuple, canonical_encode, hash_tuple


# ---------------------------------------------------------------------------
# Publish keys
# ---------------------------------------------------------------------------


def publish_key(version: int) -> str:
    """Ledger key for a published tuple version.

    The first version of a lineage is labeled key17 and every later
    version key18, so a stream's key listing shows one creation label
    followed by update labels.
    """
    if version < 1:
        raise EngineError("version must be positive")
    return f"key{16 + min(version, 2)}"


class PolicyPublication(NamedTuple):
    stream: str
    seq: int
    version: int
    key: str


# ---------------------------------------------------------------------------
# Engine
# ---------------------------------------------------------------------------


class Engine:
    def __init__(self, config: EngineConfig, store: Store, ledger: Ledger):
        self.config = config
        self.store = store
        self.ledger = ledger
        self.mediator = Mediator(store, ledger)

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def initialize(cls, config: EngineConfig) -> Engine:
        """Create engine state in a fresh data directory."""
        data_dir = config.data_dir
        if (data_dir / "content.db").exists() or config.ledger_file.exists():
            raise AlreadyInitialized(f"engine already initialized in {data_dir}")
        make_private_dir(data_dir)
        with open(data_dir / FORMAT_FILE, "w", opener=private) as fh:
            fh.write(FORMAT)
        store = Store(data_dir, hash_cost=config.hash_cost, create=True)
        try:
            ledger = Ledger(config.ledger_file, create=True)
        except BaseException:
            store.close()
            raise
        return cls(config, store, ledger)

    @classmethod
    def open(cls, config: EngineConfig) -> Engine:
        """Open previously initialized engine state."""
        cls.require_state(config)
        store = Store(config.data_dir, hash_cost=config.hash_cost)
        try:
            ledger = Ledger(config.ledger_file)
        except BaseException:
            store.close()
            raise
        return cls(config, store, ledger)

    @staticmethod
    def require_state(config: EngineConfig):
        """Raise NotInitialized unless the data directory holds engine state,
        and UnsupportedFormat unless that state is in format 3."""
        if not (config.data_dir / "content.db").exists() or not config.ledger_file.exists():
            raise NotInitialized(f"no engine state in {config.data_dir}")
        require_format(config.data_dir)

    def close(self):
        """Close the store and the ledger, each writing its checkpoint first
        if it appended, ran a full pass or met a long tail."""
        try:
            self.store.save_checkpoint()
            self.ledger.save_checkpoint()
        finally:
            self.store.close()
            self.ledger.close()

    # -- administration -----------------------------------------------------

    def add_provider(self, provider_id: int, attributes: dict) -> ProviderRecord:
        record = ProviderRecord(provider_id=provider_id, attributes=dict(attributes))
        self.store.put_provider_record(record)
        return record

    def add_accessor(self, login: str, password: str, profile: AccessorProfile):
        return self.store.add_accessor(login, password, profile)

    # -- policy publication -------------------------------------------------

    def set_policy(
        self,
        provider_id: int,
        accessor_id: int,
        prefs: PreferenceSet,
        attribute_id: int | None = None,
    ) -> PolicyPublication:
        """Bind, hash, publish and store one policy version.

        The target attribute defaults to the one the preference record
        names; passing attribute_id pins it, and binding rejects a
        preference record that targets a different attribute.
        """
        attribute = self.store.catalog.by_id(
            prefs.attribute_id if attribute_id is None else attribute_id
        )
        profile = self.store.get_accessor(accessor_id)
        self.store.get_provider_record(provider_id)
        stream = LINEAGE_STREAM.format(provider_id, attribute.attribute_id, accessor_id)
        published = self.ledger.has_stream(stream)
        prior = self.ledger.stream(stream).item_count if published else 0
        bound = bind_tuple(provider_id, attribute, prefs, profile, prior)
        # One dict gives both the hashed bytes and the policy.db line.
        data = bound.to_dict()
        encoded = canonical_encode(bound, data)
        payload = hash_tuple(encoded, self.config.hash_cost).to_string().encode("ascii")
        key = publish_key(bound.version)
        # A stream begins with its lineage's first published version.
        if published:
            item = self.ledger.publish(stream, key, payload)
        else:
            item = self.ledger.create_stream(stream, key, payload)
        self.store.put_tuple_instance(
            TupleInstance(bound, stream, item.seq),
            {"seq": item.seq, "stream": stream, "tuple": data},
        )
        return PolicyPublication(
            stream=stream, seq=item.seq, version=bound.version, key=key
        )

    # -- queries ------------------------------------------------------------

    def mediate(self, request: QueryRequest, now: dt.date | None = None) -> MediationResult:
        return self.mediator.mediate(request, now=now)

    def native_query(self, request: QueryRequest) -> NativeResult:
        return self.mediator.native_query(request)
