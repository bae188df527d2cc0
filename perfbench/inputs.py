"""Seeded inputs of the benchmark and the reference its outputs are checked against.

Everything a workload feeds privledger comes from here: provider values,
the one accessor, the archetype policies and the operation sequence.  All of
it is drawn from the benchmark's seed, so the same seed gives the same
inputs.  Attribute sets are taken from the engine's catalog by category,
never from the fixtures or the bench module, so a change to those cannot
change a workload.
"""

from __future__ import annotations

import datetime as dt
import random
from dataclasses import dataclass

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
from privledger.store import default_catalog
from privledger.tuples import AttributeCategory

ACCESSOR_ID = 1
LOGIN = "bench-physician"
PASSWORD = "bench-physician-secret"
PURPOSE = "care-delivery"
ACCESSOR = AccessorProfile(
    accessor_id=ACCESSOR_ID,
    role=AccessorRole.CLINICAL_PHYSICIAN,
    permission_level=Sensitivity.LEVEL4_RESTRICTED,
)

_ALLIED = frozenset({AccessorRole.CLINICAL_PHYSICIAN, AccessorRole.THIRD_PARTY_ALLIED})
_HOUSE = frozenset(
    {
        AccessorRole.CLINICAL_NURSE,
        AccessorRole.LABORATORY_ANALYST,
        AccessorRole.CLINICAL_PHYSICIAN,
    }
)


@dataclass(frozen=True)
class Shape:
    """How one archetype's attributes are published: every shape grants the
    benchmark accessor, each at its own granularity."""

    category: AttributeCategory
    granularity: GranularityMode
    sensitivity: Sensitivity
    scope: VisibilityScope
    roles: frozenset
    mode: PurposeMode


# The three query archetypes of the paper's overhead table, one per granularity.
ARCHETYPES = {
    "Demographic": Shape(
        AttributeCategory.DEMOGRAPHIC,
        GranularityMode.SPECIFIC,
        Sensitivity.LEVEL4_RESTRICTED,
        VisibilityScope.THIRD_PARTY_ALLIED_HEALTH,
        _ALLIED,
        PurposeMode.REUSE_SAME,
    ),
    "Healthcare": Shape(
        AttributeCategory.HEALTHCARE,
        GranularityMode.PARTIAL,
        Sensitivity.LEVEL3_CONFIDENTIAL,
        VisibilityScope.THIRD_PARTY_ALLIED_HEALTH,
        _ALLIED,
        PurposeMode.REUSE_SELECTED,
    ),
    "ConsentWitness": Shape(
        AttributeCategory.CONSENT,
        GranularityMode.EXISTENTIAL,
        Sensitivity.LEVEL2_INTERNAL_USE,
        VisibilityScope.HOUSE,
        _HOUSE,
        PurposeMode.REUSE_SELECTED,
    ),
}
ARCHETYPE_LABELS = {
    "Demographic": "Demographic",
    "Healthcare": "Healthcare",
    "ConsentWitness": "Consent Witness",
}
# New lineages published beside the reads of point-mixed; never queried.
BIOGRAPHICAL = Shape(
    AttributeCategory.BIOGRAPHICAL,
    GranularityMode.SPECIFIC,
    Sensitivity.LEVEL4_RESTRICTED,
    VisibilityScope.THIRD_PARTY_ALLIED_HEALTH,
    _ALLIED,
    PurposeMode.REUSE_SAME,
)

CATALOG = default_catalog()


def attributes_of(category: AttributeCategory) -> tuple[str, ...]:
    return tuple(meta.name for meta in CATALOG if meta.category is category)


ARCHETYPE_ATTRIBUTES = {name: attributes_of(shape.category) for name, shape in ARCHETYPES.items()}
GRANULARITY = {
    name: shape.granularity
    for shape in ARCHETYPES.values()
    for name in attributes_of(shape.category)
}
SHAPE_OF = {
    name: shape
    for shape in (*ARCHETYPES.values(), BIOGRAPHICAL)
    for name in attributes_of(shape.category)
}

CITIES = ("Red Deer", "Calgary", "Edmonton", "Lethbridge", "Camrose", "Leduc")
_FIRST = ("Avery", "Blake", "Casey", "Devon", "Emery", "Finley", "Harper", "Jordan")
_LAST = ("Quinn", "Reyes", "Singh", "Tremblay", "Walsh", "Yamada", "Okafor", "Larsen")
_PROVINCES = ("AB", "BC", "SK", "MB", "ON")
_SUFFIXES = ("Ave", "St", "Blvd", "Cres")
_LETTERS = "ABCEGHJKLMNPRSTVXY"
_NORMS = (
    "continuity of care",
    "referral follow-up",
    "care-team coordination for chronic conditions",
    "billing reconciliation",
    None,
)


def _postal(rng: random.Random) -> str:
    c = rng.choice
    return f"{c(_LETTERS)}{rng.randrange(10)}{c(_LETTERS)} {rng.randrange(10)}{c(_LETTERS)}{rng.randrange(10)}"


def _phone(rng: random.Random) -> str:
    return f"{rng.choice((403, 587, 780))}-555-{rng.randrange(10000):04d}"


def _street(rng: random.Random) -> str:
    return f"{rng.randrange(100, 9999)} {rng.randrange(1, 99)} {rng.choice(_SUFFIXES)}"


def provider_values(rng: random.Random) -> dict:
    """One provider's content.  Some providers have no dentist and no
    consent witness, so Existential cells read ABSENT as well as EXISTS."""
    values = {
        "first_name": rng.choice(_FIRST),
        "last_name": rng.choice(_LAST),
        "date_of_birth": f"19{rng.randrange(40, 100)}-{rng.randrange(1, 13):02d}-{rng.randrange(1, 29):02d}",
        "gender": rng.choice(("F", "M", "X")),
        "street_name": _street(rng),
        "city": rng.choice(CITIES),
        "province": rng.choice(_PROVINCES),
        "postal_code": _postal(rng),
        "original_province": rng.choice(_PROVINCES),
        "phone_number": _phone(rng),
        "personal_health_number": str(rng.randrange(10**8, 10**9)),
        "medical_record_number": f"MRN-{rng.randrange(10**6):06d}",
        "chart_number": f"CH-{rng.randrange(10**5):05d}",
        "personal_care_physician_name": f"Dr. {rng.choice(_LAST)}",
    }
    if rng.random() < 0.8:
        values["dentist_physician_name"] = f"Dr. {rng.choice(_FIRST)} {rng.choice(_LAST)}"
    if rng.random() < 0.85:
        values.update(
            witness_last_name=rng.choice(_LAST),
            witness_first_name=rng.choice(_FIRST),
            witness_phone_number=_phone(rng),
            witness_street=_street(rng),
            witness_city=rng.choice(CITIES),
            witness_province=rng.choice(_PROVINCES),
            witness_postal_code=_postal(rng),
        )
    return values


def preferences(attribute: str, note: str | None) -> PreferenceSet:
    shape = SHAPE_OF[attribute]
    return PreferenceSet(
        attribute_id=CATALOG.by_name(attribute).attribute_id,
        sensitivity=shape.sensitivity,
        purpose=PurposePolicy(
            mode=shape.mode, declared_purpose=PURPOSE, norms=ContextualNorms(why=note)
        ),
        visibility=VisibilityPolicy(scope=shape.scope, allowed_roles=shape.roles),
        granularity=GranularityPolicy(shape.granularity),
        retention=RetentionPolicy(effective_date=dt.date(2021, 1, 1), duration_days=0),
    )


@dataclass(frozen=True)
class Population:
    providers: dict  # provider id -> attribute values
    notes: dict  # provider id -> the contextual note on its policies

    @property
    def lineages(self) -> int:
        return len(self.providers) * len(GRANULARITY)


def population(seed: int, provider_count: int) -> Population:
    rng = random.Random(f"population:{seed}")
    providers, notes = {}, {}
    for provider_id in range(1, provider_count + 1):
        providers[provider_id] = provider_values(rng)
        notes[provider_id] = rng.choice(_NORMS)
    return Population(providers, notes)


def publish_provider(engine, pop: Population, provider_id: int) -> None:
    """Store one provider and publish one policy per archetype attribute,
    through the public Engine calls."""
    engine.add_provider(provider_id, pop.providers[provider_id])
    for attribute in GRANULARITY:
        engine.set_policy(provider_id, ACCESSOR_ID, preferences(attribute, pop.notes[provider_id]))


# ---------------------------------------------------------------------------
# Reference disclosure
# ---------------------------------------------------------------------------


def disclose(value, granularity: GranularityMode):
    """What the accessor must receive for a stored value; written apart
    from privledger.policy.apply_granularity so that it can check it."""
    if granularity is GranularityMode.EXISTENTIAL:
        return "ABSENT" if value is None else "EXISTS"
    if value is None or granularity is GranularityMode.SPECIFIC:
        return value
    out = []
    for index, ch in enumerate(value):
        out.append(ch if index == 0 or ch == " " or ch == "-" else "*")
    return "".join(out)


def expected_cells(pop: Population, provider_id: int, attributes) -> list:
    values = pop.providers[provider_id]
    return [disclose(values.get(name), GRANULARITY[name]) for name in attributes]


# ---------------------------------------------------------------------------
# Operation sequences
# ---------------------------------------------------------------------------

ARCHETYPE_NAMES = tuple(ARCHETYPES)


def cli_cold_ops(seed: int, pop: Population):
    """Every 20th operation, starting with the first, verifies the ledger;
    the others query one provider with one archetype's attributes."""
    rng = random.Random(f"cli-cold:{seed}")
    ids = list(pop.providers)
    index = 0
    while True:
        if index % 20 == 0:
            yield ("verify",)
        else:
            yield ("query", rng.choice(ids), ARCHETYPE_ATTRIBUTES[rng.choice(ARCHETYPE_NAMES)])
        index += 1


def point_mixed_ops(seed: int, pop: Population):
    """Four point queries with the archetypes rotating, then one publish.
    Publishes alternate between a new version of a published lineage and
    the first version of a new lineage on a Biographical attribute."""
    rng = random.Random(f"point-mixed:{seed}")
    ids = list(pop.providers)
    seeded = tuple(GRANULARITY)
    fresh = [(p, a) for p in ids for a in attributes_of(AttributeCategory.BIOGRAPHICAL)]
    rng.shuffle(fresh)
    queries = publishes = 0
    while True:
        for _ in range(4):
            archetype = ARCHETYPE_NAMES[queries % len(ARCHETYPE_NAMES)]
            yield ("query", rng.choice(ids), ARCHETYPE_ATTRIBUTES[archetype])
            queries += 1
        if publishes % 2 == 0 or not fresh:
            yield ("publish", rng.choice(ids), rng.choice(seeded))
        else:
            yield ("publish", *fresh.pop())
        publishes += 1


def republish_ops(seed: int, pop: Population):
    """New versions of published lineages, for the publish latency of the
    workloads whose loop publishes nothing."""
    rng = random.Random(f"republish:{seed}")
    ids, seeded = list(pop.providers), tuple(GRANULARITY)
    while True:
        yield ("publish", rng.choice(ids), rng.choice(seeded))


def scan_where_ops(seed: int, pop: Population):
    """All-provider queries on the Demographic attributes plus, alternating,
    the Healthcare or the ConsentWitness set, filtered on one city."""
    rng = random.Random(f"scan-where:{seed}")
    demographic = ARCHETYPE_ATTRIBUTES["Demographic"]
    extra = (ARCHETYPE_ATTRIBUTES["Healthcare"], ARCHETYPE_ATTRIBUTES["ConsentWitness"])
    index = 0
    while True:
        yield ("scan", demographic + extra[index % 2], rng.choice(CITIES))
        index += 1
