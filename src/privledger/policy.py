"""Privacy preference vocabulary and the access decision function.

Defines the schema for per-attribute privacy preferences (sensitivity,
purpose, visibility, granularity, retention) plus the pure functions
that gate disclosure: evaluate_access, apply_granularity and
retention_active.  A vocabulary value is its wire token, a str: each
vocabulary is a plain class of those constants with TOKENS listing them
in order, and each record's constructor refuses any other value.  Also
implements the line-oriented ``field = value`` policy document format
used to load preference records from text.
"""

from __future__ import annotations

import datetime as dt
from typing import NamedTuple

from .config import ID_RULE, AccessorRole, Record, Sensitivity, is_id, parse_decimal, token_decoder


class PolicyError(ValueError):
    """Malformed policy data or policy document."""


# ---------------------------------------------------------------------------
# Vocabulary
# ---------------------------------------------------------------------------


# AccessorRole and Sensitivity are defined in config, whose tokens the
# command line offers without loading this module.


class PurposeMode:
    REUSE_SAME, REUSE_SELECTED = TOKENS = ("ReuseSame", "ReuseSelected")


class VisibilityScope:
    HOUSE, THIRD_PARTY_ALLIED_HEALTH = TOKENS = ("House", "ThirdPartyAlliedHealth")


class GranularityMode:
    SPECIFIC, PARTIAL, EXISTENTIAL = TOKENS = ("Specific", "Partial", "Existential")


class DenialReason:
    VISIBILITY_VIOLATION, SENSITIVITY_EXCEEDED, PURPOSE_MISMATCH, RETENTION_EXPIRED = TOKENS = (
        "VisibilityViolation",
        "SensitivityExceeded",
        "PurposeMismatch",
        "RetentionExpired",
    )


_ROLES = frozenset(AccessorRole.TOKENS)
# Roles that count as third-party for the House visibility constraint.
THIRD_PARTY_ROLES = frozenset({AccessorRole.THIRD_PARTY_ALLIED})
# Each sensitivity level's rank, by its position in Sensitivity.TOKENS.
_LEVEL = {level: rank for rank, level in enumerate(Sensitivity.TOKENS)}

_role = token_decoder(AccessorRole, PolicyError)
_sensitivity = token_decoder(Sensitivity, PolicyError)

# Each role set read, once: equal sets are one object, which no caller can
# tell apart from a copy, since a frozenset never changes.  There are at
# most 2**6 of them, so this stays small whatever the data.
_ROLE_SETS: dict[frozenset, frozenset] = {}


def _role_set(tokens) -> frozenset[str]:
    roles = frozenset(map(_role, tokens))
    return _ROLE_SETS.setdefault(roles, roles)


def _known_roles(roles, what: str) -> frozenset[str]:
    """roles as a frozenset, refused unless each is an AccessorRole token."""
    roles = frozenset(roles)
    if not roles <= _ROLES:
        unknown = next(iter(roles - _ROLES))
        raise PolicyError(f"{what} must be AccessorRole tokens, got {unknown!r}")
    return roles


# ---------------------------------------------------------------------------
# Preference records
# ---------------------------------------------------------------------------


_NORM_KEYS = ("who", "when", "why", "where", "how")


class ContextualNorms(Record):
    """Free-text transmission context.  Every field is optional."""

    __slots__ = _fields = _NORM_KEYS
    _error = PolicyError

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


class PurposePolicy(Record):
    __slots__ = _fields = ("mode", "declared_purpose", "norms")
    _decoders = {
        "mode": token_decoder(PurposeMode, PolicyError),
        "norms": ContextualNorms.from_dict,
    }
    _error = PolicyError

    def __init__(self, mode: str, declared_purpose: str, norms: ContextualNorms | None = None):
        if mode not in PurposeMode.TOKENS:
            raise PolicyError("purpose mode must be a PurposeMode")
        if not declared_purpose:
            raise PolicyError("declared purpose must be non-empty")
        self._set(mode, declared_purpose, ContextualNorms() if norms is None else norms)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "declared_purpose": self.declared_purpose,
            "norms": self.norms.to_dict(),
        }


class VisibilityPolicy(Record):
    __slots__ = _fields = ("scope", "allowed_roles")
    _decoders = {"scope": token_decoder(VisibilityScope, PolicyError), "allowed_roles": _role_set}
    _error = PolicyError

    def __init__(self, scope: str, allowed_roles):
        if scope not in VisibilityScope.TOKENS:
            raise PolicyError("visibility scope must be a VisibilityScope")
        allowed_roles = _known_roles(allowed_roles, "allowed roles")
        if not allowed_roles:
            raise PolicyError("allowed roles must be non-empty")
        if scope == VisibilityScope.HOUSE and allowed_roles & THIRD_PARTY_ROLES:
            raise PolicyError("House visibility cannot include third-party roles")
        self._set(scope, allowed_roles)

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "allowed_roles": sorted(self.allowed_roles),
        }


class GranularityPolicy(Record):
    """Exactly one disclosure granularity per attribute policy."""

    __slots__ = _fields = ("mode",)

    def __init__(self, mode: str):
        if mode not in GranularityMode.TOKENS:
            raise PolicyError("granularity mode must be a GranularityMode")
        self._set(mode)


# One GranularityPolicy per mode, shared by every record that reads it.
_GRANULARITIES = {mode: GranularityPolicy(mode) for mode in GranularityMode.TOKENS}
_granularity_mode = token_decoder(GranularityMode, PolicyError)


def _granularity(token) -> GranularityPolicy:
    return _GRANULARITIES[_granularity_mode(token)]


def _date(text) -> dt.date:
    try:
        return dt.date.fromisoformat(text)
    except (TypeError, ValueError):
        raise PolicyError(f"effective date must be an ISO-8601 date, got {text!r}") from None


class RetentionPolicy(Record):
    __slots__ = _fields = ("effective_date", "duration_days")
    _decoders = {"effective_date": _date}
    _error = PolicyError

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
    _decoders = {
        "sensitivity": _sensitivity,
        "purpose": PurposePolicy.from_dict,
        "visibility": VisibilityPolicy.from_dict,
        "granularity": _granularity,
        "retention": RetentionPolicy.from_dict,
        "third_party_accessors": _role_set,
    }
    _error = PolicyError

    def __init__(
        self,
        attribute_id: int,
        sensitivity: str,
        purpose: PurposePolicy,
        visibility: VisibilityPolicy,
        granularity: GranularityPolicy,
        retention: RetentionPolicy,
        third_party_accessors=frozenset(),
    ):
        if not isinstance(attribute_id, int) or attribute_id < 1:
            raise PolicyError("attribute id must be a positive integer")
        if sensitivity not in Sensitivity.TOKENS:
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
            _known_roles(third_party_accessors, "third-party accessors"),
        )

    def to_dict(self) -> dict:
        return {
            "attribute_id": self.attribute_id,
            "sensitivity": self.sensitivity,
            "purpose": self.purpose.to_dict(),
            "visibility": self.visibility.to_dict(),
            "granularity": self.granularity.mode,
            "retention": self.retention.to_dict(),
            "third_party_accessors": sorted(self.third_party_accessors),
        }


class AccessorProfile(Record):
    """An accessor identity with its maximum readable sensitivity."""

    __slots__ = _fields = ("accessor_id", "role", "permission_level")
    _decoders = {"role": _role, "permission_level": _sensitivity}
    _error = PolicyError

    def __init__(self, accessor_id: int, role: str, permission_level: str):
        if not is_id(accessor_id):
            raise PolicyError(f"accessor id must be {ID_RULE}")
        if role not in AccessorRole.TOKENS:
            raise PolicyError("role must be an AccessorRole")
        if permission_level not in Sensitivity.TOKENS:
            raise PolicyError("permission level must be a Sensitivity level")
        self._set(accessor_id, role, permission_level)

    def to_dict(self) -> dict:
        return {
            "accessor_id": self.accessor_id,
            "role": self.role,
            "permission_level": self.permission_level,
        }


# ---------------------------------------------------------------------------
# Decisions
# ---------------------------------------------------------------------------


class AccessDecision(NamedTuple):
    allowed: bool
    granularity: str | None = None  # a GranularityMode token
    reason: str | None = None  # a DenialReason token


# The decisions evaluate_access returns, one per outcome, shared.
_GRANTS = {mode: AccessDecision(True, mode) for mode in GranularityMode.TOKENS}
_DENIALS = {reason: AccessDecision(False, None, reason) for reason in DenialReason.TOKENS}


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
    if _LEVEL[prefs.sensitivity] > _LEVEL[accessor.permission_level]:
        return _DENIALS[DenialReason.SENSITIVITY_EXCEEDED]
    purpose = prefs.purpose
    if purpose.mode == PurposeMode.REUSE_SELECTED and requested_purpose != purpose.declared_purpose:
        return _DENIALS[DenialReason.PURPOSE_MISMATCH]
    if not retention_active(prefs.retention, now):
        return _DENIALS[DenialReason.RETENTION_EXPIRED]
    return _GRANTS[prefs.granularity.mode]


# Characters that survive Partial masking besides the leading character.
PARTIAL_SEPARATORS = frozenset({" ", "-"})

EXISTS_TOKEN = "EXISTS"
ABSENT_TOKEN = "ABSENT"


def apply_granularity(value, mode: str):
    """Transform a stored value for disclosure at the given granularity.

    Specific returns the value unchanged.  Partial keeps the first
    character and the separators (space, hyphen) and masks every other
    character with ``*``; numeric scalars are masked over their decimal
    rendering.  Existential discloses only EXISTS or ABSENT, never any
    fragment of the value itself.
    """
    if mode not in GranularityMode.TOKENS:
        raise PolicyError("granularity mode must be a GranularityMode")
    if mode == GranularityMode.EXISTENTIAL:
        return ABSENT_TOKEN if value is None else EXISTS_TOKEN
    if value is None:
        return None
    if mode == GranularityMode.SPECIFIC:
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
# comments starting with "#".  Vocabulary fields use the exact wire tokens.

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


def _tokens(raw: str) -> list[str]:
    return [t.strip() for t in raw.split(",") if t.strip()]


def _record_from_fields(fields: dict) -> PreferenceSet:
    unknown = set(fields) - _KNOWN_FIELDS
    if unknown:
        raise PolicyError(f"unknown policy fields: {sorted(unknown)}")
    missing = [f for f in _REQUIRED_FIELDS if f not in fields]
    if missing:
        raise PolicyError(f"missing policy fields: {missing}")
    # The record in its stored form, decoded as a stored one is.
    return PreferenceSet.from_dict(
        {
            "attribute_id": _parse_int(fields, "attribute_id"),
            "sensitivity": fields["sensitivity"],
            "purpose": {
                "mode": fields["purpose_mode"],
                "declared_purpose": fields["declared_purpose"],
                "norms": {key: fields.get("norm_" + key) for key in _NORM_KEYS},
            },
            "visibility": {
                "scope": fields["visibility_scope"],
                "allowed_roles": _tokens(fields["allowed_roles"]),
            },
            "granularity": fields["granularity"],
            "retention": {
                "effective_date": fields["effective_date"],
                "duration_days": _parse_int(fields, "duration_days"),
            },
            "third_party_accessors": _tokens(fields.get("third_party_accessors", "")),
        }
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
