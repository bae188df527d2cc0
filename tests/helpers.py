"""Shared builders and independent reference implementations.

The reference functions here deliberately re-derive expected behavior
with different code shapes than the package so they can serve as
oracles: the masker walks characters with explicit branching, and the
access oracle collects every failed check before picking the reported
one by fixed priority.
"""

from __future__ import annotations

import datetime as dt
import random

from privledger.engine import Engine, EngineConfig
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
from privledger.tuples import AttributeCategory, AttributeMeta, PrivacyTuple

HOUSE_SAFE_ROLES = [
    role for role in AccessorRole if role is not AccessorRole.THIRD_PARTY_ALLIED
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


def make_engine(tmp_path, hash_cost: int = 8) -> Engine:
    return Engine.initialize(EngineConfig(data_dir=tmp_path / "data", hash_cost=hash_cost))


def reopen_engine(engine: Engine) -> Engine:
    engine.close()
    return Engine.open(engine.config)


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
    scope = rng.choice(list(VisibilityScope))
    pool = HOUSE_SAFE_ROLES if scope is VisibilityScope.HOUSE else list(AccessorRole)
    roles = frozenset(rng.sample(pool, rng.randint(1, len(pool))))
    return make_prefs(
        attribute_id=attribute_id or rng.randint(1, 25),
        sensitivity=rng.choice(list(Sensitivity)),
        mode=rng.choice(list(PurposeMode)),
        declared=rng.choice(WORDS),
        scope=scope,
        roles=roles,
        granularity=rng.choice(list(GranularityMode)),
        effective=dt.date(2020, 1, 1) + dt.timedelta(days=rng.randint(0, 1500)),
        duration=rng.choice([0, rng.randint(1, 2000)]),
        third_party=frozenset(
            rng.sample(list(AccessorRole), rng.randint(0, 2))
        ),
        norms=random_norms(rng),
    )


def random_attribute(rng: random.Random, attribute_id: int | None = None) -> AttributeMeta:
    return AttributeMeta(
        attribute_id=attribute_id or rng.randint(1, 25),
        name=rng.choice(
            ("postal_code", "first_name", "chart_number", "witness_city", "gender")
        ),
        category=rng.choice(list(AttributeCategory)),
        sensitivity_hint=rng.choice(list(Sensitivity)),
    )


def random_tuple(rng: random.Random) -> PrivacyTuple:
    attribute_id = rng.randint(1, 25)
    return PrivacyTuple(
        provider_id=rng.randint(1, 500),
        attribute=random_attribute(rng, attribute_id),
        prefs=random_prefs(rng, attribute_id),
        accessor=make_accessor(
            accessor_id=rng.randint(1, 50),
            role=rng.choice(list(AccessorRole)),
            permission=rng.choice(list(Sensitivity)),
        ),
        version=rng.randint(1, 9),
    )


# ---------------------------------------------------------------------------
# Reference implementations
# ---------------------------------------------------------------------------


def reference_mask(value, mode: GranularityMode):
    """Character-by-character reference for granularity transforms."""
    if mode is GranularityMode.EXISTENTIAL:
        if value is None:
            return "ABSENT"
        return "EXISTS"
    if value is None:
        return None
    if mode is GranularityMode.SPECIFIC:
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
    if prefs.sensitivity.value > accessor.permission_level.value:
        failures.add("sensitivity")
    if prefs.purpose.mode is PurposeMode.REUSE_SELECTED:
        if requested_purpose != prefs.purpose.declared_purpose:
            failures.add("purpose")
    window_open = now >= prefs.retention.effective_date
    if window_open and prefs.retention.duration_days > 0:
        closes = prefs.retention.effective_date + dt.timedelta(
            days=prefs.retention.duration_days
        )
        window_open = now < closes
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
