"""Engine wiring: configuration, initialization and the policy-set flow.

A configuration names a data directory and the hash cost, nothing else.
The engine owns one store, one ledger (``ledger.db`` inside the data
directory, so the directory's lock covers it) and one mediator.
Publishing a policy binds the tuple at the next lineage version, hashes
the canonical encoding, appends the hash to the lineage's stream and only
then records the plaintext instance in the store, so the ledger is never
behind the store.
"""

from __future__ import annotations

import datetime as dt
from pathlib import Path
from typing import NamedTuple

from .ledger import Ledger, stream_name_for
from .mediator import MediationResult, Mediator, NativeResult, QueryRequest
from .policy import AccessorProfile, PreferenceSet, Record, parse_decimal
from .store import ProviderRecord, Store, TupleInstance
from .tuples import (
    DEFAULT_COST,
    MAX_COST,
    MIN_COST,
    bind_tuple,
    canonical_encode,
    hash_tuple,
)


class EngineError(Exception):
    pass


class AlreadyInitialized(EngineError):
    pass


class NotInitialized(EngineError):
    pass


class ConfigError(EngineError):
    pass


DATA_DIR_ENV = "PRIVLEDGER_DATA_DIR"
LEDGER_FILE = "ledger.db"

_CONFIG_KEYS = {"data_dir", "hash_cost"}


class EngineConfig(Record):
    _fields = ("data_dir", "hash_cost")

    def __init__(self, data_dir, hash_cost: int = DEFAULT_COST):
        data_dir = Path(data_dir)
        if not MIN_COST <= hash_cost <= MAX_COST:
            raise ConfigError(f"hash_cost out of range: {hash_cost}")
        self._set(data_dir, hash_cost)

    @property
    def ledger_file(self) -> Path:
        return self.data_dir / LEDGER_FILE

    @classmethod
    def from_file(cls, path) -> EngineConfig:
        """Load 'key = value' configuration text."""
        values: dict[str, str] = {}
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            if key not in _CONFIG_KEYS:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            values[key] = value.strip()
        if "data_dir" not in values:
            raise ConfigError("config must set data_dir")
        cost = DEFAULT_COST
        if "hash_cost" in values:
            cost = parse_decimal(values["hash_cost"])
            if cost is None:
                raise ConfigError(
                    f"hash_cost must be an integer, got {values['hash_cost']!r}"
                )
        return cls(values["data_dir"], cost)


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
        data_dir.mkdir(parents=True, exist_ok=True)
        store = Store(data_dir, hash_cost=config.hash_cost, create=True)
        ledger = Ledger(config.ledger_file, create=True)
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
        """Raise NotInitialized unless the data directory holds engine state."""
        if not (config.data_dir / "content.db").exists() or not config.ledger_file.exists():
            raise NotInitialized(f"no engine state in {config.data_dir}")

    def close(self):
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
        lineage = (provider_id, attribute.attribute_id, accessor_id)
        prior = self.store.lineage_version(lineage)
        bound = bind_tuple(provider_id, attribute, prefs, profile, prior)
        # One dict gives both the hashed bytes and the policy.db line.
        data = bound.to_dict()
        encoded = canonical_encode(bound, data)
        record = hash_tuple(encoded, self.config.hash_cost)
        hash_text = record.to_string()
        stream = stream_name_for(*lineage)
        if not self.ledger.has_stream(stream):
            self.ledger.create_stream(stream)
        key = publish_key(bound.version)
        item = self.ledger.publish(stream, key, hash_text.encode("ascii"))
        self.store.put_tuple_instance(
            TupleInstance(bound, record, stream, item.seq, encoded),
            {"tuple": data, "hash": hash_text, "stream": stream, "seq": item.seq},
        )
        return PolicyPublication(
            stream=stream, seq=item.seq, version=bound.version, key=key
        )

    # -- queries ------------------------------------------------------------

    def mediate(self, request: QueryRequest, now: dt.date | None = None) -> MediationResult:
        return self.mediator.mediate(request, now=now)

    def native_query(self, request: QueryRequest) -> NativeResult:
        return self.mediator.native_query(request)
