"""Shared builders, seeded populations and independent reference
implementations.

The reference functions here deliberately re-derive expected behavior
with different code shapes than the package so they can serve as
oracles: the masker walks characters with explicit branching, and the
access oracle collects every failed check before picking the reported
one by fixed priority.
"""

from __future__ import annotations

import datetime as dt
import json
import random
import shutil
from pathlib import Path
from typing import NamedTuple
from unittest import mock

from privledger import ledger as ledger_module
from privledger.config import LEDGER_FILE
from privledger.engine import Engine, EngineConfig
from privledger.files import CHECKPOINT_SUFFIX
from privledger.ledger import Ledger
from privledger.policy import (
    AccessorProfile,
    AccessorRole,
    ContextualNorms,
    GranularityMode,
    GranularityPolicy,
    PreferenceSet,
    PurposeMode,
    PurposePolicy,
    RetentionPolicy,
    Sensitivity,
    VisibilityPolicy,
    VisibilityScope,
)
from privledger.store import POLICY_FILE, StoredTuple
from privledger.tuples import AttributeCategory, AttributeMeta, PrivacyTuple, canonical_encode

HOUSE_SAFE_ROLES = [
    role for role in AccessorRole.TOKENS if role != AccessorRole.THIRD_PARTY_ALLIED
]

WORDS = (
    "care-delivery",
    "research",
    "billing",
    "qa-review",
    "triage",
    "audit",
    "referral",
)


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------


def make_prefs(
    attribute_id: int = 8,
    sensitivity: Sensitivity = Sensitivity.LEVEL3_CONFIDENTIAL,
    mode: PurposeMode = PurposeMode.REUSE_SAME,
    declared: str = "care-delivery",
    scope: VisibilityScope = VisibilityScope.HOUSE,
    roles=None,
    granularity: GranularityMode = GranularityMode.SPECIFIC,
    effective: dt.date = dt.date(2021, 1, 1),
    duration: int = 0,
    third_party=frozenset(),
    norms: ContextualNorms | None = None,
) -> PreferenceSet:
    if roles is None:
        roles = frozenset(
            {AccessorRole.CLINICAL_NURSE, AccessorRole.CLINICAL_PHYSICIAN}
        )
    return PreferenceSet(
        attribute_id=attribute_id,
        sensitivity=sensitivity,
        purpose=PurposePolicy(
            mode=mode, declared_purpose=declared, norms=norms or ContextualNorms()
        ),
        visibility=VisibilityPolicy(scope=scope, allowed_roles=frozenset(roles)),
        granularity=GranularityPolicy(granularity),
        retention=RetentionPolicy(effective_date=effective, duration_days=duration),
        third_party_accessors=frozenset(third_party),
    )


def make_accessor(
    accessor_id: int = 3,
    role: AccessorRole = AccessorRole.CLINICAL_PHYSICIAN,
    permission: Sensitivity = Sensitivity.LEVEL4_RESTRICTED,
) -> AccessorProfile:
    return AccessorProfile(
        accessor_id=accessor_id, role=role, permission_level=permission
    )


class TickingClock:
    """Deterministic ledger clock: fixed start, one millisecond per call."""

    def __init__(self, start: dt.datetime | None = None):
        self._moment = start or dt.datetime(
            2021, 6, 1, 12, 0, 0, tzinfo=dt.timezone.utc
        )

    def __call__(self) -> dt.datetime:
        moment = self._moment
        self._moment = moment + dt.timedelta(milliseconds=1)
        return moment


def named_ledger(path, publisher: str, clock) -> Ledger:
    """A new ledger whose node name, which create draws at random, is
    publisher ("node-" and the drawn hex)."""
    drawn = publisher.removeprefix("node-")
    with mock.patch.object(ledger_module.secrets, "token_hex", lambda n: drawn):
        return Ledger(path, clock=clock, create=True)


def make_engine(tmp_path, hash_cost: int = 8) -> Engine:
    return Engine.initialize(EngineConfig(data_dir=tmp_path / "data", hash_cost=hash_cost))


def reopen_engine(engine: Engine) -> Engine:
    engine.close()
    return Engine.open(engine.config)


def policy_index(store) -> list[tuple[int, int, int, int, int]]:
    """(seq, version, offset, length, line number) of every policy.db line
    the store indexed, in file order."""
    return list(zip(*store._columns))


def policy_line(data_dir, seq: int) -> bytes | None:
    """The bytes, without the line end, of the policy.db line under
    data_dir that holds the ledger seq, found by scanning the file, apart
    from any store's index; None where no line that decodes holds it."""
    field = b'"seq": %d, ' % seq
    for line in (Path(data_dir) / POLICY_FILE).read_bytes().splitlines():
        if field in line:
            try:
                if json.loads(line)["seq"] == seq:
                    return line
            except (ValueError, KeyError, TypeError):
                pass
    return None


def indexed_line(store, seq: int):
    """The bytes of the policy.db line at the ledger seq as a query reads
    them, at the offset and length the store's index holds
    (Store.policy_runs): None where the index holds no line at seq, the
    OSError of a read the system refuses."""
    [(_, _, _, line)] = store.policy_runs([seq])
    return line


class Instance(NamedTuple):
    """A policy.db record decoded whole: the tuple, the stream and seq of
    its commitment on the ledger, and the nonce the commitment is under."""

    privacy_tuple: PrivacyTuple
    stream: str
    seq: int
    nonce: bytes

    @property
    def version(self) -> int:
        return self.privacy_tuple.version

    def line(self) -> str:
        """The record's sorted JSON, as policy.db holds it."""
        record = {
            "nonce": self.nonce.hex(),
            "seq": self.seq,
            "stream": self.stream,
            "tuple": self.privacy_tuple.to_dict(),
        }
        return json.dumps(record, sort_keys=True)


def decode_instance(line) -> Instance:
    """The record of a policy.db line, decoded whole; a line of other keys,
    or one that does not decode, raises ValueError, KeyError or TypeError."""
    record = json.loads(line)
    if sorted(record) != ["nonce", "seq", "stream", "tuple"]:
        raise KeyError("a policy record holds nonce, seq, stream and tuple")
    return Instance(
        PrivacyTuple.from_dict(record["tuple"]),
        record["stream"],
        record["seq"],
        bytes.fromhex(record["nonce"]),
    )


def stored_instance(data_dir, seq: int) -> Instance:
    """The record of the policy.db line under data_dir at the ledger seq,
    read back from the file."""
    return decode_instance(policy_line(data_dir, seq))


def put_instance(store, instance: Instance):
    """Store instance as Engine.set_policy does: the nonce and the tuple's
    canonical encoding at its stream and seq."""
    encoded = canonical_encode(instance.privacy_tuple)
    store.put_tuple_instance(instance.stream, instance.seq, instance.nonce, encoded)


def as_stored(instance: Instance) -> StoredTuple:
    """What Store.latest_tuple_instance reads from the line of instance."""
    return StoredTuple(instance.version, instance.nonce, canonical_encode(instance.privacy_tuple))


def kept_seq(engine: Engine, lineage) -> int | None:
    """The seq of the lineage's version whose passed check the engine's
    mediator keeps, or None where it keeps none."""
    held = engine.mediator._kept.get(lineage)
    return None if held is None else held.entry.seq


def run_keys(engine: Engine) -> dict[tuple[int, int], bytes]:
    """(first seq, last seq) of each run of lineages whose digest the
    engine's mediator keeps, to that digest."""
    return {(first, run.last): run.digest for first, run in engine.mediator._runs.items()}


def record_spans(data_dir, name: str, seqs) -> list[tuple[int, int]]:
    """Start and end, read from the file itself, of the record at each
    ledger seq in the file name (ledger.db or policy.db) under data_dir: a
    ledger.db record with its newline, a policy.db line without it."""
    spans = {}
    at = 0
    for line in (data_dir / name).read_bytes().splitlines(keepends=True):
        if name == LEDGER_FILE:
            spans[int(line.split(b"\t", 1)[0])] = (at, at + len(line))
        else:
            spans[json.loads(line)["seq"]] = (at, at + len(line.rstrip(b"\n")))
        at += len(line)
    return [spans[seq] for seq in seqs]


def both_open_paths(engine: Engine) -> list[EngineConfig]:
    """Close the engine and return two configs over its data: its own
    directory, where its close wrote checkpoints, so an open starts from
    them, and a copy without them, where an open runs the full pass."""
    engine.close()
    config = engine.config
    names = sorted(path.name for path in config.data_dir.glob("*" + CHECKPOINT_SUFFIX))
    assert names == ["ledger.db" + CHECKPOINT_SUFFIX, "policy.db" + CHECKPOINT_SUFFIX]
    bare = config.data_dir.with_name(config.data_dir.name + "-no-checkpoint")
    shutil.copytree(config.data_dir, bare)
    for name in names:
        (bare / name).unlink()
    return [config, EngineConfig(data_dir=bare, hash_cost=config.hash_cost)]


# ---------------------------------------------------------------------------
# Demo population
# ---------------------------------------------------------------------------

DEMO_PROVIDER_ID = 4
DEMO_ACCESSOR_ID = 3
DEMO_ACCESSOR_LOGIN = "physician3"
DEMO_ACCESSOR_PASSWORD = "physician3-secret"
DEMO_PURPOSE = "care-delivery"

# Lineages shown by the demo: attribute 5 published three times, attribute 1
# published four times, both toward accessor 3.
DEMO_LINEAGE_A = (DEMO_PROVIDER_ID, 5, DEMO_ACCESSOR_ID)
DEMO_LINEAGE_B = (DEMO_PROVIDER_ID, 1, DEMO_ACCESSOR_ID)

DEMO_PROVIDER_ATTRIBUTES = {
    "first_name": "Avery",
    "last_name": "Quinn",
    "street_name": "5202 50 Ave",
    "city": "Red Deer",
    "province": "AB",
    "postal_code": "T2N 1N4",
    "original_province": "SK",
    "phone_number": "403-555-0187",
}


def demo_preferences(attribute_id: int, note: str | None = None) -> PreferenceSet:
    return PreferenceSet(
        attribute_id=attribute_id,
        sensitivity=Sensitivity.LEVEL4_RESTRICTED,
        purpose=PurposePolicy(
            mode=PurposeMode.REUSE_SAME,
            declared_purpose=DEMO_PURPOSE,
            norms=ContextualNorms(why=note),
        ),
        visibility=VisibilityPolicy(
            scope=VisibilityScope.THIRD_PARTY_ALLIED_HEALTH,
            allowed_roles=frozenset(
                {AccessorRole.CLINICAL_PHYSICIAN, AccessorRole.THIRD_PARTY_ALLIED}
            ),
        ),
        granularity=GranularityPolicy(GranularityMode.SPECIFIC),
        retention=RetentionPolicy(
            effective_date=dt.date(2021, 1, 1), duration_days=0
        ),
    )


def install_demo_fixture(engine: Engine) -> None:
    """Provider 4, accessor 3, three versions on one lineage and four on
    another."""
    engine.add_provider(DEMO_PROVIDER_ID, DEMO_PROVIDER_ATTRIBUTES)
    engine.add_accessor(
        DEMO_ACCESSOR_LOGIN,
        DEMO_ACCESSOR_PASSWORD,
        AccessorProfile(
            accessor_id=DEMO_ACCESSOR_ID,
            role=AccessorRole.CLINICAL_PHYSICIAN,
            permission_level=Sensitivity.LEVEL4_RESTRICTED,
        ),
    )
    for lineage, versions in ((DEMO_LINEAGE_A, 3), (DEMO_LINEAGE_B, 4)):
        for revision in range(versions):
            engine.set_policy(
                DEMO_PROVIDER_ID,
                DEMO_ACCESSOR_ID,
                demo_preferences(lineage[1], note=f"revision {revision + 1}"),
            )


# ---------------------------------------------------------------------------
# Archetype population
# ---------------------------------------------------------------------------

BENCH_ACCESSOR_ID = 1
BENCH_ACCESSOR_LOGIN = "bench"
BENCH_ACCESSOR_PASSWORD = "bench-secret"
BENCH_PURPOSE = "care-delivery"

# Attribute sets queried by each of the paper's three query archetypes.
ARCHETYPE_ATTRIBUTES = {
    "Demographic": (
        "street_name",
        "city",
        "province",
        "postal_code",
        "original_province",
        "phone_number",
    ),
    "Healthcare": (
        "personal_health_number",
        "medical_record_number",
        "chart_number",
        "personal_care_physician_name",
        "dentist_physician_name",
    ),
    "ConsentWitness": (
        "witness_last_name",
        "witness_first_name",
        "witness_phone_number",
        "witness_street",
        "witness_city",
        "witness_province",
        "witness_postal_code",
    ),
}

_HOUSE_ROLES = frozenset(
    {
        AccessorRole.CLINICAL_NURSE,
        AccessorRole.LABORATORY_ANALYST,
        AccessorRole.CLINICAL_PHYSICIAN,
    }
)
_ALLIED_ROLES = frozenset(
    {AccessorRole.CLINICAL_PHYSICIAN, AccessorRole.THIRD_PARTY_ALLIED}
)

# (sensitivity, granularity, scope, roles, purpose mode) per archetype.
_ARCHETYPE_POLICY = {
    "Demographic": (
        Sensitivity.LEVEL4_RESTRICTED,
        GranularityMode.SPECIFIC,
        VisibilityScope.THIRD_PARTY_ALLIED_HEALTH,
        _ALLIED_ROLES,
        PurposeMode.REUSE_SAME,
    ),
    "Healthcare": (
        Sensitivity.LEVEL3_CONFIDENTIAL,
        GranularityMode.PARTIAL,
        VisibilityScope.THIRD_PARTY_ALLIED_HEALTH,
        _ALLIED_ROLES,
        PurposeMode.REUSE_SELECTED,
    ),
    "ConsentWitness": (
        Sensitivity.LEVEL2_INTERNAL_USE,
        GranularityMode.EXISTENTIAL,
        VisibilityScope.HOUSE,
        _HOUSE_ROLES,
        PurposeMode.REUSE_SELECTED,
    ),
}


def archetype_preferences(archetype: str, attribute_id: int) -> PreferenceSet:
    sensitivity, granularity, scope, roles, mode = _ARCHETYPE_POLICY[archetype]
    return PreferenceSet(
        attribute_id=attribute_id,
        sensitivity=sensitivity,
        purpose=PurposePolicy(mode=mode, declared_purpose=BENCH_PURPOSE),
        visibility=VisibilityPolicy(scope=scope, allowed_roles=roles),
        granularity=GranularityPolicy(granularity),
        retention=RetentionPolicy(
            effective_date=dt.date(2021, 1, 1), duration_days=0
        ),
    )


_FIRST_NAMES = ("Avery", "Blake", "Casey", "Devon", "Emery", "Finley", "Harper", "Jordan")
_LAST_NAMES = ("Quinn", "Reyes", "Singh", "Tremblay", "Walsh", "Yamada", "Okafor", "Larsen")
_CITIES = ("Red Deer", "Calgary", "Edmonton", "Lethbridge", "Camrose", "Leduc")
_PROVINCES = ("AB", "BC", "SK", "MB", "ON")
_STREET_SUFFIXES = ("Ave", "St", "Blvd", "Cres")


def _postal_code(rng: random.Random) -> str:
    letters = "ABCEGHJKLMNPRSTVXY"
    return (
        f"{rng.choice(letters)}{rng.randrange(10)}{rng.choice(letters)} "
        f"{rng.randrange(10)}{rng.choice(letters)}{rng.randrange(10)}"
    )


def _phone(rng: random.Random) -> str:
    return f"403-555-{rng.randrange(10000):04d}"


def _street(rng: random.Random) -> str:
    return f"{rng.randrange(100, 9999)} {rng.randrange(1, 99)} {rng.choice(_STREET_SUFFIXES)}"


def _provider_attributes(rng: random.Random) -> dict:
    return {
        "first_name": rng.choice(_FIRST_NAMES),
        "last_name": rng.choice(_LAST_NAMES),
        "date_of_birth": f"19{rng.randrange(40, 100):02d}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
        "gender": rng.choice(("F", "M", "X")),
        "street_name": _street(rng),
        "city": rng.choice(_CITIES),
        "province": rng.choice(_PROVINCES),
        "postal_code": _postal_code(rng),
        "original_province": rng.choice(_PROVINCES),
        "phone_number": _phone(rng),
        "personal_health_number": f"{rng.randrange(10**8, 10**9)}",
        "medical_record_number": f"MRN-{rng.randrange(10**6):06d}",
        "chart_number": f"CH-{rng.randrange(10**5):05d}",
        "personal_care_physician_name": f"Dr. {rng.choice(_LAST_NAMES)}",
        "dentist_physician_name": f"Dr. {rng.choice(_LAST_NAMES)}",
        "witness_last_name": rng.choice(_LAST_NAMES),
        "witness_first_name": rng.choice(_FIRST_NAMES),
        "witness_phone_number": _phone(rng),
        "witness_street": _street(rng),
        "witness_city": rng.choice(_CITIES),
        "witness_province": rng.choice(_PROVINCES),
        "witness_postal_code": _postal_code(rng),
    }


def install_archetype_fixture(engine: Engine, provider_count: int, seed: int = 0) -> list[int]:
    """Populate providers plus one benchmark accessor and publish archetype
    policies for every (provider, attribute) lineage toward that accessor.

    Returns the provider ids.  Deterministic for a given seed.
    """
    rng = random.Random(f"fixture:{seed}")
    engine.add_accessor(
        BENCH_ACCESSOR_LOGIN,
        BENCH_ACCESSOR_PASSWORD,
        AccessorProfile(
            accessor_id=BENCH_ACCESSOR_ID,
            role=AccessorRole.CLINICAL_PHYSICIAN,
            permission_level=Sensitivity.LEVEL4_RESTRICTED,
        ),
    )
    provider_ids = list(range(1, provider_count + 1))
    catalog = engine.store.catalog
    for provider_id in provider_ids:
        engine.add_provider(provider_id, _provider_attributes(rng))
        for archetype, names in ARCHETYPE_ATTRIBUTES.items():
            for name in names:
                engine.set_policy(
                    provider_id,
                    BENCH_ACCESSOR_ID,
                    archetype_preferences(archetype, catalog.by_name(name).attribute_id),
                )
    return provider_ids


# ---------------------------------------------------------------------------
# Random structures
# ---------------------------------------------------------------------------


def random_norms(rng: random.Random) -> ContextualNorms:
    def maybe():
        return rng.choice(WORDS) if rng.random() < 0.5 else None

    return ContextualNorms(
        who=maybe(), when=maybe(), why=maybe(), where=maybe(), how=maybe()
    )


def random_prefs(rng: random.Random, attribute_id: int | None = None) -> PreferenceSet:
    scope = rng.choice(VisibilityScope.TOKENS)
    pool = HOUSE_SAFE_ROLES if scope == VisibilityScope.HOUSE else AccessorRole.TOKENS
    roles = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
    return make_prefs(
        attribute_id=attribute_id or rng.randint(1, 25),
        sensitivity=rng.choice(Sensitivity.TOKENS),
        mode=rng.choice(PurposeMode.TOKENS),
        declared=rng.choice(WORDS),
        scope=scope,
        roles=roles,
        granularity=rng.choice(GranularityMode.TOKENS),
        effective=dt.date(2020, 1, 1) + dt.timedelta(days=rng.randint(0, 1500)),
        # Indefinite, a window of days, or one that ends past 9999-12-31.
        duration=rng.choice([0, rng.randint(1, 2000), rng.randint(3_000_000, 4_000_000)]),
        third_party=frozenset(
            rng.sample(AccessorRole.TOKENS, rng.randint(0, 2))
        ),
        norms=random_norms(rng),
    )


def policy_document(records: list[PreferenceSet]) -> str:
    """The policy document text that parse_policy_document reads as
    records, one block of fields per record."""
    blocks = []
    for prefs in records:
        fields = {
            "attribute_id": prefs.attribute_id,
            "sensitivity": prefs.sensitivity,
            "purpose_mode": prefs.purpose.mode,
            "declared_purpose": prefs.purpose.declared_purpose,
            **{
                f"norm_{key}": value
                for key, value in prefs.purpose.norms.to_dict().items()
                if value is not None
            },
            "visibility_scope": prefs.visibility.scope,
            "allowed_roles": ", ".join(sorted(prefs.visibility.allowed_roles)),
            "granularity": prefs.granularity.mode,
            "effective_date": prefs.retention.effective_date.isoformat(),
            "duration_days": prefs.retention.duration_days,
        }
        if prefs.third_party_accessors:
            fields["third_party_accessors"] = ", ".join(sorted(prefs.third_party_accessors))
        blocks.append("\n".join(f"{name} = {value}" for name, value in fields.items()))
    return "\n\n".join(blocks) + "\n"


def random_attribute(rng: random.Random, attribute_id: int | None = None) -> AttributeMeta:
    return AttributeMeta(
        attribute_id=attribute_id or rng.randint(1, 25),
        name=rng.choice(
            ("postal_code", "first_name", "chart_number", "witness_city", "gender")
        ),
        category=rng.choice(AttributeCategory.TOKENS),
        sensitivity_hint=rng.choice(Sensitivity.TOKENS),
    )


def random_tuple(rng: random.Random) -> PrivacyTuple:
    attribute_id = rng.randint(1, 25)
    return PrivacyTuple(
        provider_id=rng.randint(1, 500),
        attribute=random_attribute(rng, attribute_id),
        prefs=random_prefs(rng, attribute_id),
        accessor=make_accessor(
            accessor_id=rng.randint(1, 50),
            role=rng.choice(AccessorRole.TOKENS),
            permission=rng.choice(Sensitivity.TOKENS),
        ),
        version=rng.randint(1, 9),
    )


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def reference_mask(value, mode: str):
    """Character-by-character reference for granularity transforms."""
    if mode == GranularityMode.EXISTENTIAL:
        if value is None:
            return "ABSENT"
        return "EXISTS"
    if value is None:
        return None
    if mode == GranularityMode.SPECIFIC:
        return value
    text = value if isinstance(value, str) else str(value)
    out = ""
    for position in range(len(text)):
        ch = text[position]
        if position == 0:
            out = out + ch
        elif ch == " ":
            out = out + ch
        elif ch == "-":
            out = out + ch
        else:
            out = out + "*"
    return out


# Sensitivity levels by number, written out apart from the package's order.
LEVEL_NUMBER = {
    "Level1Public": 1,
    "Level2InternalUse": 2,
    "Level3Confidential": 3,
    "Level4Restricted": 4,
}


def reference_decision(
    prefs: PreferenceSet,
    accessor: AccessorProfile,
    requested_purpose: str,
    now: dt.date,
):
    """Collect every failed check, then report by fixed priority.

    Returns ("allow", granularity mode) or ("deny", reason token).
    """
    failures = set()
    permitted = set(prefs.visibility.allowed_roles) | set(prefs.third_party_accessors)
    if accessor.role not in permitted:
        failures.add("visibility")
    if LEVEL_NUMBER[prefs.sensitivity] > LEVEL_NUMBER[accessor.permission_level]:
        failures.add("sensitivity")
    if prefs.purpose.mode == PurposeMode.REUSE_SELECTED:
        if requested_purpose != prefs.purpose.declared_purpose:
            failures.add("purpose")
    # Day numbers, not dates: a window may end past the last calendar date.
    window_open = now >= prefs.retention.effective_date
    if window_open and prefs.retention.duration_days > 0:
        closes = prefs.retention.effective_date.toordinal() + prefs.retention.duration_days
        window_open = now.toordinal() < closes
    if not window_open:
        failures.add("retention")
    priority = (
        ("visibility", "VisibilityViolation"),
        ("sensitivity", "SensitivityExceeded"),
        ("purpose", "PurposeMismatch"),
        ("retention", "RetentionExpired"),
    )
    for check, token in priority:
        if check in failures:
            return ("deny", token)
    return ("allow", prefs.granularity.mode)


def chain_length(ledger) -> int:
    """The ledger's record count from its public stream item counts: the
    genesis, which is on no stream's item list, plus every stream's items."""
    return 1 + sum(stream.item_count for stream in ledger.streams())
