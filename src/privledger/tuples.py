"""Privacy tuple binding, canonical encoding, commitments and login hashing.

A privacy tuple binds one provider attribute to the provider's
preference set and one accessor profile, under a version that increases
per (provider, attribute, accessor) lineage.  The canonical byte
encoding is deterministic, and it is what policy.db stores of a tuple.
A published version is the hash commitment SHA-256(nonce || encoding)
under a fresh random nonce (Halevi and Micali, CRYPTO 1996): one hash to
make and one to check, binding through SHA-256's collision resistance
and hiding through the nonce, which only policy.db holds.

Login passwords are hashed with salted PBKDF2 at the configured cost; a
hash record is self-describing in the crypt-style form
``$algorithm$cost$salt$digest``.
"""

from __future__ import annotations

import hashlib
import hmac
import json
import re
import secrets
from typing import NamedTuple

from .config import DEFAULT_COST, ID_RULE, MAX_COST, MIN_COST, Record, Sensitivity, is_id, token_decoder
from .policy import AccessorProfile, PreferenceSet


class TupleError(ValueError):
    """Invalid privacy tuple construction or encoding."""


class MismatchedAttribute(TupleError):
    """Preference set does not target the attribute being bound."""


class CostOutOfRange(TupleError):
    """Hash cost outside the supported bounds."""


class MalformedRecord(TupleError):
    """Serialized hash record failed to parse."""


# ---------------------------------------------------------------------------
# Attribute metadata
# ---------------------------------------------------------------------------


class AttributeCategory:
    BIOGRAPHICAL, DEMOGRAPHIC, CONSENT, HEALTH_INSURANCE, HEALTHCARE = TOKENS = (
        "Biographical",
        "Demographic",
        "Consent",
        "HealthInsurance",
        "Healthcare",
    )


class AttributeMeta(Record):
    """Schema-level description of one provider attribute."""

    __slots__ = _fields = ("attribute_id", "name", "category", "sensitivity_hint")
    _decoders = {
        "category": token_decoder(AttributeCategory, TupleError),
        "sensitivity_hint": token_decoder(Sensitivity, TupleError),
    }
    _error = TupleError

    def __init__(
        self,
        attribute_id: int,
        name: str,
        category: str,
        sensitivity_hint: str,
    ):
        if not is_id(attribute_id):
            raise TupleError(f"attribute id must be {ID_RULE}")
        if not name:
            raise TupleError("attribute name must be non-empty")
        if category not in AttributeCategory.TOKENS:
            raise TupleError("category must be an AttributeCategory")
        if sensitivity_hint not in Sensitivity.TOKENS:
            raise TupleError("sensitivity hint must be a Sensitivity level")
        self._set(attribute_id, name, category, sensitivity_hint)

    def to_dict(self) -> dict:
        return {
            "attribute_id": self.attribute_id,
            "name": self.name,
            "category": self.category,
            "sensitivity_hint": self.sensitivity_hint,
        }


# ---------------------------------------------------------------------------
# The tuple itself
# ---------------------------------------------------------------------------


class PrivacyTuple(Record):
    __slots__ = _fields = ("provider_id", "attribute", "prefs", "accessor", "version")
    _decoders = {
        "attribute": AttributeMeta.from_dict,
        "prefs": PreferenceSet.from_dict,
        "accessor": AccessorProfile.from_dict,
    }
    _error = TupleError

    def __init__(
        self,
        provider_id: int,
        attribute: AttributeMeta,
        prefs: PreferenceSet,
        accessor: AccessorProfile,
        version: int,
    ):
        if not is_id(provider_id):
            raise TupleError(f"provider id must be {ID_RULE}")
        if prefs.attribute_id != attribute.attribute_id:
            raise MismatchedAttribute(
                f"preferences target attribute {prefs.attribute_id}, "
                f"tuple binds attribute {attribute.attribute_id}"
            )
        if not is_id(version):
            raise TupleError(f"version must be {ID_RULE}")
        self._set(provider_id, attribute, prefs, accessor, version)

    @property
    def lineage(self) -> tuple[int, int, int]:
        return (
            self.provider_id,
            self.attribute.attribute_id,
            self.accessor.accessor_id,
        )

    def to_dict(self) -> dict:
        return {
            "provider_id": self.provider_id,
            "attribute": self.attribute.to_dict(),
            "prefs": self.prefs.to_dict(),
            "accessor": self.accessor.to_dict(),
            "version": self.version,
        }


def bind_tuple(
    provider_id: int,
    attribute: AttributeMeta,
    prefs: PreferenceSet,
    accessor: AccessorProfile,
    prior_version: int = 0,
) -> PrivacyTuple:
    """Bind attribute, preferences and accessor at version prior + 1."""
    if not isinstance(prior_version, int) or prior_version < 0:
        raise TupleError("prior version must be a non-negative integer")
    return PrivacyTuple(
        provider_id=provider_id,
        attribute=attribute,
        prefs=prefs,
        accessor=accessor,
        version=prior_version + 1,
    )


# ---------------------------------------------------------------------------
# Canonical encoding
# ---------------------------------------------------------------------------

# Keys at every level are sorted, with json.dumps's default separators and
# ASCII escapes, so equal tuples encode identically; it is the text
# json.dumps(record, sort_keys=True) writes for the tuple inside a
# policy.db line, so the stored line holds the encoding verbatim.


def canonical_encode(t: PrivacyTuple) -> bytes:
    """The encoding of t.to_dict()."""
    return json.dumps(t.to_dict(), sort_keys=True).encode("ascii")


# ---------------------------------------------------------------------------
# Commitments
# ---------------------------------------------------------------------------

NONCE_BYTES = 16  # 128 bits hide the tuple; policy.db holds them as 32 hex


def commit(nonce: bytes, encoded: bytes) -> bytes:
    """The commitment to a canonical encoding under nonce, as a ledger
    payload: SHA-256(nonce || encoded) in 64 lowercase hex."""
    return hashlib.sha256(nonce + encoded).hexdigest().encode("ascii")


# ---------------------------------------------------------------------------
# Login hashing
# ---------------------------------------------------------------------------

HASH_ALGORITHM = "pbkdf2"  # PBKDF2-HMAC-SHA256, RFC 8018
SALT_BYTES = 16
DIGEST_BYTES = 32

_HEX_SALT_RE = re.compile(r"[0-9a-f]{32}")
_HEX_DIGEST_RE = re.compile(r"[0-9a-f]{64}")
_COST_RE = re.compile(r"0|[1-9][0-9]*")


class HashRecord(NamedTuple):
    """Self-describing hash: algorithm, cost and salt travel with the digest."""

    algorithm_id: str
    cost: int
    salt: bytes
    digest: bytes

    def to_string(self) -> str:
        return "$".join(
            ("", self.algorithm_id, str(self.cost), self.salt.hex(), self.digest.hex())
        )

    @classmethod
    def from_string(cls, text) -> HashRecord:
        if isinstance(text, bytes):
            try:
                text = text.decode("ascii")
            except UnicodeDecodeError:
                raise MalformedRecord("hash record is not ASCII") from None
        if not isinstance(text, str):
            raise MalformedRecord("hash record must be text")
        parts = text.split("$")
        if len(parts) != 5 or parts[0] != "":
            raise MalformedRecord("hash record must read $algorithm$cost$salt$digest")
        _, algorithm, cost_text, salt_hex, digest_hex = parts
        if algorithm != HASH_ALGORITHM:
            raise MalformedRecord(f"unsupported hash algorithm: {algorithm!r}")
        if not _COST_RE.fullmatch(cost_text):
            raise MalformedRecord(f"invalid hash cost: {cost_text!r}")
        cost = int(cost_text, 10)
        if not MIN_COST <= cost <= MAX_COST:
            raise MalformedRecord(f"hash cost out of range: {cost}")
        if not _HEX_SALT_RE.fullmatch(salt_hex):
            raise MalformedRecord("salt must be 32 lowercase hex characters")
        if not _HEX_DIGEST_RE.fullmatch(digest_hex):
            raise MalformedRecord("digest must be 64 lowercase hex characters")
        return cls(
            algorithm_id=HASH_ALGORITHM,  # equal to algorithm, and shared
            cost=cost,
            salt=bytes.fromhex(salt_hex),
            digest=bytes.fromhex(digest_hex),
        )


def _pbkdf2(salt: bytes, data: bytes, cost: int) -> bytes:
    """PBKDF2-HMAC-SHA256 of data under salt, 32 bytes, at ceil(cost / 2)
    iterations.  The cost counts SHA-256 compressions: each iteration is
    one HMAC over a 32-byte block, two compressions once the keyed inner
    and outer states are set up."""
    return hashlib.pbkdf2_hmac("sha256", data, salt, (cost + 1) // 2)


def hash_tuple(encoded: bytes, cost: int = DEFAULT_COST) -> HashRecord:
    """Hash a password's bytes under a fresh random salt.

    Two calls over the same encoding differ in salt and digest yet both
    verify.  Raises CostOutOfRange outside [1, 2**20].
    """
    if not isinstance(cost, int) or not MIN_COST <= cost <= MAX_COST:
        raise CostOutOfRange(f"cost must be in [{MIN_COST}, {MAX_COST}], got {cost!r}")
    salt = secrets.token_bytes(SALT_BYTES)
    return HashRecord(
        algorithm_id=HASH_ALGORITHM,
        cost=cost,
        salt=salt,
        digest=_pbkdf2(salt, encoded, cost),
    )


def verify_hash(encoded: bytes, record: HashRecord) -> bool:
    """Recompute the digest under the record's salt and cost and compare, in
    constant time."""
    expected = _pbkdf2(record.salt, encoded, record.cost)
    return hmac.compare_digest(expected, record.digest)
