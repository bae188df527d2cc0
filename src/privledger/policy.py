"""Privacy preference vocabulary and the access decision function.

Defines the typed schema for per-attribute privacy preferences
(sensitivity, purpose, visibility, granularity, retention) plus the
pure functions that gate disclosure: evaluate_access, apply_granularity
and retention_active.  Also implements the line-oriented ``field = value``
policy document format used to load preference records from text.
"""

from __future__ import annotations

import datetime as dt
from enum import Enum, IntEnum
from typing import NamedTuple

from .config import ID_RULE, Record, is_id, parse_decimal


class PolicyError(ValueError):
    """Malformed policy data or policy document."""


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


class Sensitivity(IntEnum):
    """Data sensitivity classification.  Comparisons follow level order."""

    LEVEL1_PUBLIC = 1
    LEVEL2_INTERNAL_USE = 2
    LEVEL3_CONFIDENTIAL = 3
    LEVEL4_RESTRICTED = 4

    @property
    def token(self) -> str:
        return _SENSITIVITY_TOKENS[self]

    @classmethod
    def from_token(cls, text: str) -> Sensitivity:
        try:
            return _SENSITIVITY_BY_TOKEN[text]
        except KeyError:
            raise PolicyError(f"unknown sensitivity level: {text!r}") from None


_SENSITIVITY_TOKENS = {
    Sensitivity.LEVEL1_PUBLIC: "Level1Public",
    Sensitivity.LEVEL2_INTERNAL_USE: "Level2InternalUse",
    Sensitivity.LEVEL3_CONFIDENTIAL: "Level3Confidential",
    Sensitivity.LEVEL4_RESTRICTED: "Level4Restricted",
}
_SENSITIVITY_BY_TOKEN = {v: k for k, v in _SENSITIVITY_TOKENS.items()}


class _TokenEnum(str, Enum):
    """String enum whose value is the wire token."""

    @property
    def token(self) -> str:
        return self.value

    @classmethod
    def from_token(cls, text: str):
        # Enum's own value-to-member dict; an unhashable value is unknown.
        try:
            return cls._value2member_map_[text]
        except (KeyError, TypeError):
            raise PolicyError(f"unknown {cls.__name__} token: {text!r}") from None


class PurposeMode(_TokenEnum):
    REUSE_SAME = "ReuseSame"
    REUSE_SELECTED = "ReuseSelected"


class VisibilityScope(_TokenEnum):
    HOUSE = "House"
    THIRD_PARTY_ALLIED_HEALTH = "ThirdPartyAlliedHealth"


class GranularityMode(_TokenEnum):
    SPECIFIC = "Specific"
    PARTIAL = "Partial"
    EXISTENTIAL = "Existential"


class AccessorRole(_TokenEnum):
    """Closed role vocabulary.  Unknown role text is a parse error."""

    CLINICAL_NURSE = "ClinicalNurse"
    LABORATORY_ANALYST = "LaboratoryAnalyst"
    CLINICAL_PHYSICIAN = "ClinicalPhysician"
    THIRD_PARTY_ALLIED = "ThirdPartyAllied"
    DATA_PROVIDER = "DataProvider"
    PATIENT_LEGAL_REPRESENTATIVE = "PatientLegalRepresentative"


# Roles that count as third-party for the House visibility constraint.
THIRD_PARTY_ROLES = frozenset({AccessorRole.THIRD_PARTY_ALLIED})

# Each role set read, once: equal sets are one object, which no caller can
# tell apart from a copy, since a frozenset never changes.  There are at
# most 2**6 of them, so this stays small whatever the data.
_ROLE_SETS: dict[frozenset, frozenset] = {}


def _role_set(tokens) -> frozenset[AccessorRole]:
    roles = frozenset(AccessorRole.from_token(t) for t in tokens)
    return _ROLE_SETS.setdefault(roles, roles)


class DenialReason(_TokenEnum):
    VISIBILITY_VIOLATION = "VisibilityViolation"
    SENSITIVITY_EXCEEDED = "SensitivityExceeded"
    PURPOSE_MISMATCH = "PurposeMismatch"
    RETENTION_EXPIRED = "RetentionExpired"


# ---------------------------------------------------------------------------
# Preference records
# ---------------------------------------------------------------------------


_NORM_KEYS = ("who", "when", "why", "where", "how")


class ContextualNorms(Record):
    """Free-text transmission context.  Every field is optional."""

    __slots__ = _fields = _NORM_KEYS

    def __init__(
        self,
        who: str | None = None,
        when: str | None = None,
        why: str | None = None,
        where: str | None = None,
        how: str | None = None,
    ):
        values = (who, when, why, where, how)
        for key, value in zip(_NORM_KEYS, values):
            if value is not None and not isinstance(value, str):
                raise PolicyError(f"norm {key!r} must be text or absent")
        self._set(*values)

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in _NORM_KEYS}

    @classmethod
    def from_dict(cls, data: dict) -> ContextualNorms:
        if set(data) != set(_NORM_KEYS):
            raise PolicyError("contextual norms record has wrong keys")
        return cls(**{key: data[key] for key in _NORM_KEYS})


class PurposePolicy(Record):
    __slots__ = _fields = ("mode", "declared_purpose", "norms")

    def __init__(
        self, mode: PurposeMode, declared_purpose: str, norms: ContextualNorms | None = None
    ):
        if not isinstance(mode, PurposeMode):
            raise PolicyError("purpose mode must be a PurposeMode")
        if not declared_purpose:
            raise PolicyError("declared purpose must be non-empty")
        self._set(mode, declared_purpose, ContextualNorms() if norms is None else norms)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode.token,
            "declared_purpose": self.declared_purpose,
            "norms": self.norms.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> PurposePolicy:
        if set(data) != {"mode", "declared_purpose", "norms"}:
            raise PolicyError("purpose record has wrong keys")
        return cls(
            mode=PurposeMode.from_token(data["mode"]),
            declared_purpose=data["declared_purpose"],
            norms=ContextualNorms.from_dict(data["norms"]),
        )


class VisibilityPolicy(Record):
    __slots__ = _fields = ("scope", "allowed_roles")

    def __init__(self, scope: VisibilityScope, allowed_roles):
        if not isinstance(scope, VisibilityScope):
            raise PolicyError("visibility scope must be a VisibilityScope")
        allowed_roles = frozenset(allowed_roles)
        if not allowed_roles:
            raise PolicyError("allowed roles must be non-empty")
        if scope is VisibilityScope.HOUSE and allowed_roles & THIRD_PARTY_ROLES:
            raise PolicyError("House visibility cannot include third-party roles")
        self._set(scope, allowed_roles)

    def to_dict(self) -> dict:
        return {
            "scope": self.scope.token,
            "allowed_roles": sorted(r.token for r in self.allowed_roles),
        }

    @classmethod
    def from_dict(cls, data: dict) -> VisibilityPolicy:
        if set(data) != {"scope", "allowed_roles"}:
            raise PolicyError("visibility record has wrong keys")
        return cls(
            scope=VisibilityScope.from_token(data["scope"]),
            allowed_roles=_role_set(data["allowed_roles"]),
        )


class GranularityPolicy(Record):
    """Exactly one disclosure granularity per attribute policy."""

    __slots__ = _fields = ("mode",)

    def __init__(self, mode: GranularityMode):
        if not isinstance(mode, GranularityMode):
            raise PolicyError("granularity mode must be a GranularityMode")
        self._set(mode)


# One GranularityPolicy per mode, shared by every record that reads it.
_GRANULARITIES = {mode: GranularityPolicy(mode) for mode in GranularityMode}


class RetentionPolicy(Record):
    __slots__ = _fields = ("effective_date", "duration_days")

    def __init__(self, effective_date: dt.date, duration_days: int):  # 0 days: indefinite
        if not isinstance(effective_date, dt.date) or isinstance(
            effective_date, dt.datetime
        ):
            raise PolicyError("effective date must be a calendar date")
        if not isinstance(duration_days, int) or duration_days < 0:
            raise PolicyError("duration days must be a non-negative integer")
        self._set(effective_date, duration_days)

    def to_dict(self) -> dict:
        return {
            "effective_date": self.effective_date.isoformat(),
            "duration_days": self.duration_days,
        }

    @classmethod
    def from_dict(cls, data: dict) -> RetentionPolicy:
        if set(data) != {"effective_date", "duration_days"}:
            raise PolicyError("retention record has wrong keys")
        try:
            effective = dt.date.fromisoformat(data["effective_date"])
        except (TypeError, ValueError):
            raise PolicyError("effective date must be an ISO-8601 date") from None
        return cls(effective_date=effective, duration_days=data["duration_days"])


class PreferenceSet(Record):
    """Complete per-attribute privacy preferences of one data provider."""

    __slots__ = _fields = (
        "attribute_id",
        "sensitivity",
        "purpose",
        "visibility",
        "granularity",
        "retention",
        "third_party_accessors",
    )

    def __init__(
        self,
        attribute_id: int,
        sensitivity: Sensitivity,
        purpose: PurposePolicy,
        visibility: VisibilityPolicy,
        granularity: GranularityPolicy,
        retention: RetentionPolicy,
        third_party_accessors=frozenset(),
    ):
        if not isinstance(attribute_id, int) or attribute_id < 1:
            raise PolicyError("attribute id must be a positive integer")
        if not isinstance(sensitivity, Sensitivity):
            raise PolicyError("sensitivity must be a Sensitivity level")
        if not isinstance(granularity, GranularityPolicy):
            raise PolicyError("granularity must be a GranularityPolicy")
        self._set(
            attribute_id,
            sensitivity,
            purpose,
            visibility,
            granularity,
            retention,
            frozenset(third_party_accessors),
        )

    def to_dict(self) -> dict:
        return {
            "attribute_id": self.attribute_id,
            "sensitivity": self.sensitivity.token,
            "purpose": self.purpose.to_dict(),
            "visibility": self.visibility.to_dict(),
            "granularity": self.granularity.mode.token,
            "retention": self.retention.to_dict(),
            "third_party_accessors": sorted(
                r.token for r in self.third_party_accessors
            ),
        }

    @classmethod
    def from_dict(cls, data: dict) -> PreferenceSet:
        expected = {
            "attribute_id",
            "sensitivity",
            "purpose",
            "visibility",
            "granularity",
            "retention",
            "third_party_accessors",
        }
        if set(data) != expected:
            raise PolicyError("preference record has wrong keys")
        return cls(
            attribute_id=data["attribute_id"],
            sensitivity=Sensitivity.from_token(data["sensitivity"]),
            purpose=PurposePolicy.from_dict(data["purpose"]),
            visibility=VisibilityPolicy.from_dict(data["visibility"]),
            granularity=_GRANULARITIES[GranularityMode.from_token(data["granularity"])],
            retention=RetentionPolicy.from_dict(data["retention"]),
            third_party_accessors=_role_set(data["third_party_accessors"]),
        )


class AccessorProfile(Record):
    """An accessor identity with its maximum readable sensitivity."""

    __slots__ = _fields = ("accessor_id", "role", "permission_level")

    def __init__(self, accessor_id: int, role: AccessorRole, permission_level: Sensitivity):
        if not is_id(accessor_id):
            raise PolicyError(f"accessor id must be {ID_RULE}")
        if not isinstance(role, AccessorRole):
            raise PolicyError("role must be an AccessorRole")
        if not isinstance(permission_level, Sensitivity):
            raise PolicyError("permission level must be a Sensitivity level")
        self._set(accessor_id, role, permission_level)

    def to_dict(self) -> dict:
        return {
            "accessor_id": self.accessor_id,
            "role": self.role.token,
            "permission_level": self.permission_level.token,
        }

    @classmethod
    def from_dict(cls, data: dict) -> AccessorProfile:
        if set(data) != {"accessor_id", "role", "permission_level"}:
            raise PolicyError("accessor record has wrong keys")
        return cls(
            accessor_id=data["accessor_id"],
            role=AccessorRole.from_token(data["role"]),
            permission_level=Sensitivity.from_token(data["permission_level"]),
        )


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------


class AccessDecision(NamedTuple):
    allowed: bool
    granularity: GranularityMode | None = None
    reason: DenialReason | None = None


# The decisions evaluate_access returns, one per outcome, shared.
_GRANTS = {mode: AccessDecision(True, mode) for mode in GranularityMode}
_DENIALS = {reason: AccessDecision(False, None, reason) for reason in DenialReason}


def retention_active(retention: RetentionPolicy, now: dt.date) -> bool:
    """True while disclosure is within the retention window.

    False before the effective date (data not yet disclosable).  A zero
    duration means indefinite retention.  The window end is exclusive:
    a 365-day window starting 2021-06-01 is already inactive on
    2022-06-01.  The window is decided by day count, so one that ends
    past the last calendar date is open to its end.
    """
    days = (now - retention.effective_date).days
    duration = retention.duration_days
    return days >= 0 and (duration == 0 or days < duration)


def evaluate_access(
    prefs: PreferenceSet,
    accessor: AccessorProfile,
    requested_purpose: str,
    now: dt.date,
) -> AccessDecision:
    """Decide disclosure of one attribute for one accessor.

    Checks run in a fixed order and the first failure names the denial:
    visibility, then sensitivity, then purpose, then retention.  Pure
    function of its arguments.
    """
    role = accessor.role
    if role not in prefs.visibility.allowed_roles and role not in prefs.third_party_accessors:
        return _DENIALS[DenialReason.VISIBILITY_VIOLATION]
    if prefs.sensitivity > accessor.permission_level:
        return _DENIALS[DenialReason.SENSITIVITY_EXCEEDED]
    purpose = prefs.purpose
    if purpose.mode is PurposeMode.REUSE_SELECTED and requested_purpose != purpose.declared_purpose:
        return _DENIALS[DenialReason.PURPOSE_MISMATCH]
    if not retention_active(prefs.retention, now):
        return _DENIALS[DenialReason.RETENTION_EXPIRED]
    return _GRANTS[prefs.granularity.mode]


# Characters that survive Partial masking besides the leading character.
PARTIAL_SEPARATORS = frozenset({" ", "-"})

EXISTS_TOKEN = "EXISTS"
ABSENT_TOKEN = "ABSENT"


def apply_granularity(value, mode: GranularityMode):
    """Transform a stored value for disclosure at the given granularity.

    Specific returns the value unchanged.  Partial keeps the first
    character and the separators (space, hyphen) and masks every other
    character with ``*``; numeric scalars are masked over their decimal
    rendering.  Existential discloses only EXISTS or ABSENT, never any
    fragment of the value itself.
    """
    if not isinstance(mode, GranularityMode):
        raise PolicyError("granularity mode must be a GranularityMode")
    if mode is GranularityMode.EXISTENTIAL:
        return ABSENT_TOKEN if value is None else EXISTS_TOKEN
    if value is None:
        return None
    if mode is GranularityMode.SPECIFIC:
        return value
    text = value if isinstance(value, str) else str(value)
    masked = [
        ch if i == 0 or ch in PARTIAL_SEPARATORS else "*"
        for i, ch in enumerate(text)
    ]
    return "".join(masked)


# ---------------------------------------------------------------------------
# Policy document format
# ---------------------------------------------------------------------------

# One "field = value" pair per line, blank-line-separated records, full-line
# comments starting with "#".  Enumeration fields use the exact wire tokens.

_REQUIRED_FIELDS = (
    "attribute_id",
    "sensitivity",
    "purpose_mode",
    "declared_purpose",
    "visibility_scope",
    "allowed_roles",
    "granularity",
    "effective_date",
    "duration_days",
)
_OPTIONAL_FIELDS = (
    "norm_who",
    "norm_when",
    "norm_why",
    "norm_where",
    "norm_how",
    "third_party_accessors",
)
_KNOWN_FIELDS = frozenset(_REQUIRED_FIELDS) | frozenset(_OPTIONAL_FIELDS)


def _parse_int(fields: dict, name: str) -> int:
    raw = fields[name]
    number = parse_decimal(raw)
    if number is None:
        raise PolicyError(f"field {name!r} must be an integer, got {raw!r}")
    return number


def _parse_role_list(raw: str) -> frozenset[AccessorRole]:
    return _role_set(t.strip() for t in raw.split(",") if t.strip())


def _record_from_fields(fields: dict) -> PreferenceSet:
    unknown = set(fields) - _KNOWN_FIELDS
    if unknown:
        raise PolicyError(f"unknown policy fields: {sorted(unknown)}")
    missing = [f for f in _REQUIRED_FIELDS if f not in fields]
    if missing:
        raise PolicyError(f"missing policy fields: {missing}")
    try:
        effective = dt.date.fromisoformat(fields["effective_date"])
    except ValueError:
        raise PolicyError(
            f"effective_date must be an ISO-8601 date, got {fields['effective_date']!r}"
        ) from None
    norms = ContextualNorms(
        who=fields.get("norm_who"),
        when=fields.get("norm_when"),
        why=fields.get("norm_why"),
        where=fields.get("norm_where"),
        how=fields.get("norm_how"),
    )
    return PreferenceSet(
        attribute_id=_parse_int(fields, "attribute_id"),
        sensitivity=Sensitivity.from_token(fields["sensitivity"]),
        purpose=PurposePolicy(
            mode=PurposeMode.from_token(fields["purpose_mode"]),
            declared_purpose=fields["declared_purpose"],
            norms=norms,
        ),
        visibility=VisibilityPolicy(
            scope=VisibilityScope.from_token(fields["visibility_scope"]),
            allowed_roles=_parse_role_list(fields["allowed_roles"]),
        ),
        granularity=_GRANULARITIES[GranularityMode.from_token(fields["granularity"])],
        retention=RetentionPolicy(
            effective_date=effective,
            duration_days=_parse_int(fields, "duration_days"),
        ),
        third_party_accessors=_parse_role_list(
            fields.get("third_party_accessors", "")
        ),
    )


def parse_policy_document(text: str) -> list[PreferenceSet]:
    """Parse blank-line-separated preference records from text."""
    records: list[PreferenceSet] = []
    fields: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            if fields:
                records.append(_record_from_fields(fields))
                fields = {}
            continue
        if line.startswith("#"):
            continue
        name, sep, value = line.partition("=")
        name = name.strip()
        if not sep or not name:
            raise PolicyError(f"line {lineno}: expected 'field = value', got {raw!r}")
        if name in fields:
            raise PolicyError(f"line {lineno}: duplicate field {name!r}")
        fields[name] = value.strip()
    if fields:
        records.append(_record_from_fields(fields))
    return records
