"""Tuple binding, canonical encoding and hash record tests."""

from __future__ import annotations

import hashlib
import hmac
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_accessor, make_prefs, random_tuple
from privledger import tuples
from privledger.config import token_decoder
from privledger.policy import PolicyError, Sensitivity
from privledger.tuples import (
    DEFAULT_COST,
    HASH_ALGORITHM,
    MAX_COST,
    NONCE_BYTES,
    AttributeCategory,
    AttributeMeta,
    CostOutOfRange,
    HashRecord,
    MalformedRecord,
    MismatchedAttribute,
    PrivacyTuple,
    TupleError,
    bind_tuple,
    canonical_encode,
    commit,
    hash_tuple,
    verify_hash,
)

POSTAL = AttributeMeta(
    attribute_id=8,
    name="postal_code",
    category=AttributeCategory.DEMOGRAPHIC,
    sensitivity_hint=Sensitivity.LEVEL3_CONFIDENTIAL,
)


def make_tuple(version=1):
    return PrivacyTuple(
        provider_id=4,
        attribute=POSTAL,
        prefs=make_prefs(attribute_id=8),
        accessor=make_accessor(),
        version=version,
    )


# ---------------------------------------------------------------------------
# binding
# ---------------------------------------------------------------------------


def test_bind_starts_lineage_at_version_one():
    bound = bind_tuple(4, POSTAL, make_prefs(attribute_id=8), make_accessor())
    assert bound.version == 1
    assert bound.lineage == (4, 8, 3)


def test_bind_increments_prior_version():
    prior = 0
    for expected in range(1, 6):
        bound = bind_tuple(
            4, POSTAL, make_prefs(attribute_id=8), make_accessor(), prior
        )
        assert bound.version == expected
        prior = bound.version


def test_bind_rejects_mismatched_attribute():
    with pytest.raises(MismatchedAttribute):
        bind_tuple(4, POSTAL, make_prefs(attribute_id=9), make_accessor())
    with pytest.raises(MismatchedAttribute):
        PrivacyTuple(
            provider_id=4,
            attribute=POSTAL,
            prefs=make_prefs(attribute_id=9),
            accessor=make_accessor(),
            version=1,
        )


def test_version_must_be_positive():
    with pytest.raises(TupleError):
        make_tuple(version=0)
    with pytest.raises(TupleError):
        bind_tuple(4, POSTAL, make_prefs(attribute_id=8), make_accessor(), -1)


def test_tuple_record_round_trip():
    t = make_tuple(version=3)
    assert PrivacyTuple.from_dict(t.to_dict()) == t


# ---------------------------------------------------------------------------
# canonical encoding
# ---------------------------------------------------------------------------


def test_equal_tuples_encode_identically():
    assert canonical_encode(make_tuple()) == canonical_encode(make_tuple())


def test_encoding_is_compact_ascii():
    # One ASCII line, with no whitespace but json.dumps's separators: the
    # text a policy.db line holds of the tuple.
    t = make_tuple()
    encoded = canonical_encode(t)
    encoded.decode("ascii")
    assert b"\n" not in encoded
    assert encoded == json.dumps(t.to_dict(), sort_keys=True).encode("ascii")


def test_encoding_field_order_and_sorted_keys():
    t = make_tuple(version=7)
    data = json.loads(canonical_encode(t))
    assert list(data) == ["accessor", "attribute", "prefs", "provider_id", "version"]
    assert (data["provider_id"], data["version"]) == (4, 7)
    assert canonical_encode(t).endswith(b'"version": 7}')
    for record in (data["attribute"], data["prefs"], data["accessor"]):
        assert list(record) == sorted(record)



def test_round_trip_decode():
    rng = random.Random(91)
    for _ in range(100):
        t = random_tuple(rng)
        back = PrivacyTuple.from_dict(t.to_dict())
        assert back == t
        assert canonical_encode(back) == canonical_encode(t)


def test_version_changes_the_encoding():
    assert canonical_encode(make_tuple(1)) != canonical_encode(make_tuple(2))


def test_decode_rejects_garbage():
    # What a policy.db line's "tuple" field could hold instead of a record.
    for garbage in ("not a record", {}, [1, 2, 3], {"provider_id": 4}):
        with pytest.raises(TupleError):
            PrivacyTuple.from_dict(garbage)


def test_decode_rejects_wrong_shapes_inside():
    data = make_tuple().to_dict()
    data["prefs"].pop("sensitivity")
    with pytest.raises(PolicyError):
        PrivacyTuple.from_dict(data)
    data = make_tuple().to_dict()
    data["attribute"] = "postal_code"
    with pytest.raises(TupleError):
        PrivacyTuple.from_dict(data)


# ---------------------------------------------------------------------------
# commitments
# ---------------------------------------------------------------------------


def test_a_commitment_is_sha256_of_the_nonce_and_the_encoding_in_hex():
    nonce, encoded = bytes(range(NONCE_BYTES)), canonical_encode(make_tuple())
    payload = commit(nonce, encoded)
    assert re.fullmatch(rb"[0-9a-f]{64}", payload)
    assert payload == hashlib.sha256(nonce + encoded).hexdigest().encode("ascii")
    assert commit(b"0" * 16, b"{}") == (
        b"2be1c2a888bf913a54dc1ccdae9edbe1435e4315a8a0ef42f590d8829265f583"
    )


def test_a_commitment_changes_with_any_byte_of_nonce_or_encoding():
    nonce, encoded = bytes(NONCE_BYTES), canonical_encode(make_tuple())
    payload = commit(nonce, encoded)
    data = nonce + encoded
    for index in range(len(data)):
        changed = bytearray(data)
        changed[index] ^= 0x01
        changed = bytes(changed)
        assert commit(changed[:NONCE_BYTES], changed[NONCE_BYTES:]) != payload


# ---------------------------------------------------------------------------
# hash records
# ---------------------------------------------------------------------------

RECORD_RE = re.compile(r"^\$pbkdf2\$[1-9][0-9]*\$[0-9a-f]{32}\$[0-9a-f]{64}$")


def test_hash_record_string_shape():
    record = hash_tuple(b"payload", cost=3)
    assert RECORD_RE.match(record.to_string())


def test_hash_verify_round_trip():
    encoded = canonical_encode(make_tuple())
    record = hash_tuple(encoded, cost=4)
    assert verify_hash(encoded, record)
    assert verify_hash(encoded, HashRecord.from_string(record.to_string()))
    assert verify_hash(encoded, HashRecord.from_string(record.to_string().encode("ascii")))


def test_same_input_fresh_salt_both_verify():
    encoded = b"same bytes"
    first = hash_tuple(encoded, cost=2)
    second = hash_tuple(encoded, cost=2)
    assert first.salt != second.salt
    assert first.digest != second.digest
    assert verify_hash(encoded, first)
    assert verify_hash(encoded, second)


def test_salts_are_fresh_across_many_calls():
    salts = {hash_tuple(b"x", cost=1).salt for _ in range(100)}
    assert len(salts) == 100


def test_default_cost():
    assert hash_tuple(b"x").cost == DEFAULT_COST == 1024


def test_cost_bounds():
    assert hash_tuple(b"x", cost=1).cost == 1
    assert hash_tuple(b"x", cost=MAX_COST).cost == MAX_COST
    for bad in (0, -1, MAX_COST + 1, 2.5, "16"):
        with pytest.raises(CostOutOfRange):
            hash_tuple(b"x", cost=bad)


def reference_pbkdf2(password: bytes, salt: bytes, iterations: int) -> bytes:
    """PBKDF2 with HMAC-SHA256 (RFC 8018, section 5.2), one 32-byte block:
    the XOR of U_1 = PRF(P, S || INT(1)) and U_i = PRF(P, U_{i-1})."""
    u = hmac.new(password, salt + (1).to_bytes(4, "big"), hashlib.sha256).digest()
    block = int.from_bytes(u, "big")
    for _ in range(iterations - 1):
        u = hmac.new(password, u, hashlib.sha256).digest()
        block ^= int.from_bytes(u, "big")
    return block.to_bytes(32, "big")


def test_reference_pbkdf2_known_answer():
    # RFC 7914, section 11: PBKDF2-HMAC-SHA256, P = "passwd", S = "salt",
    # one iteration; its first 32 bytes.
    expected = "55ac046e56e3089fec1691c22544b605f94185216dde0465e68b9d57c20dacbc"
    assert reference_pbkdf2(b"passwd", b"salt", 1).hex() == expected
    assert hashlib.pbkdf2_hmac("sha256", b"passwd", b"salt", 1).hex() == expected


def test_cost_one_is_single_salted_digest():
    record = hash_tuple(b"data", cost=1)
    assert record.digest == hmac.new(
        b"data", record.salt + b"\x00\x00\x00\x01", hashlib.sha256
    ).digest()


def test_higher_cost_rehashes_the_digest():
    # ceil(cost / 2) iterations: two SHA-256 compressions each.
    for cost, iterations in ((2, 1), (3, 2), (4, 2), (5, 3)):
        record = hash_tuple(b"data", cost=cost)
        digests = [reference_pbkdf2(b"data", record.salt, n) for n in (1, 2, 3)]
        assert digests.index(record.digest) == iterations - 1


# The digest of KNOWN_DATA under KNOWN_SALT at cost 64 (32 iterations),
# computed with reference_pbkdf2.
KNOWN_SALT = bytes(range(16))
KNOWN_DATA = b'{"known":"answer"}'
KNOWN_DIGEST = "3a6698045ba19aa3bbcdc1ad680dffe068e237440d14dcca15cecc1b838a60c5"


def test_iterated_digest_known_answer():
    assert reference_pbkdf2(KNOWN_DATA, KNOWN_SALT, 32).hex() == KNOWN_DIGEST
    assert tuples._pbkdf2(KNOWN_SALT, KNOWN_DATA, 64).hex() == KNOWN_DIGEST
    record = HashRecord(HASH_ALGORITHM, 64, KNOWN_SALT, bytes.fromhex(KNOWN_DIGEST))
    assert verify_hash(KNOWN_DATA, record)
    assert verify_hash(KNOWN_DATA, HashRecord.from_string(record.to_string()))


@settings(max_examples=100)
@given(
    st.binary(min_size=16, max_size=16),
    st.binary(max_size=4096),
    st.integers(min_value=1, max_value=80),
)
def test_digest_equals_a_pure_python_pbkdf2(salt, data, cost):
    expected = reference_pbkdf2(data, salt, (cost + 1) // 2)
    assert tuples._pbkdf2(salt, data, cost) == expected
    record = HashRecord(HASH_ALGORITHM, cost, salt, expected)
    assert verify_hash(data, record)


def test_any_single_byte_flip_fails_verification():
    encoded = canonical_encode(make_tuple())
    record = hash_tuple(encoded, cost=1)
    for position in range(len(encoded)):
        mutated = bytearray(encoded)
        mutated[position] ^= 0x01
        assert not verify_hash(bytes(mutated), record)


def test_record_parse_round_trip():
    record = hash_tuple(b"payload", cost=7)
    assert HashRecord.from_string(record.to_string()) == record


# Each field fault, under this format's algorithm id and under format 2's
# sha256i, which is refused whatever its fields.
FIELD_FAULTS = [
    "{}$1$" + "0" * 32 + "$" + "0" * 64,  # missing leading $
    "${}$0$" + "0" * 32 + "$" + "0" * 64,  # cost below minimum
    "${}$1048577$" + "0" * 32 + "$" + "0" * 64,  # cost above maximum
    "${}$01$" + "0" * 32 + "$" + "0" * 64,  # non-canonical cost
    "${}$x$" + "0" * 32 + "$" + "0" * 64,
    "${}$1$" + "0" * 31 + "$" + "0" * 64,  # short salt
    "${}$1$" + "0" * 32 + "$" + "0" * 63,  # short digest
    "${}$1$" + "A" * 32 + "$" + "0" * 64,  # uppercase hex
    "${}$1$" + "0" * 32 + "$" + "0" * 64 + "$extra",
    "${}$1$" + "0" * 32,
]


@pytest.mark.parametrize(
    "text",
    [
        "",
        "$md5$1$" + "0" * 32 + "$" + "0" * 64,
        "$sha256i$1$" + "0" * 32 + "$" + "0" * 64,  # well formed in format 2
        "$PBKDF2$1$" + "0" * 32 + "$" + "0" * 64,
        *(fault.format(algorithm) for algorithm in ("pbkdf2", "sha256i") for fault in FIELD_FAULTS),
    ],
)
def test_malformed_records_rejected(text):
    with pytest.raises(MalformedRecord):
        HashRecord.from_string(text)


def test_verify_returns_false_without_raising_on_mismatch():
    record = hash_tuple(b"original", cost=2)
    assert verify_hash(b"tampered", record) is False


@settings(max_examples=100)
@given(st.binary(max_size=64), st.integers(min_value=1, max_value=32))
def test_hash_verify_property(data, cost):
    record = hash_tuple(data, cost=cost)
    assert verify_hash(data, record)
    assert verify_hash(data, HashRecord.from_string(record.to_string()))


# ---------------------------------------------------------------------------
# attribute metadata
# ---------------------------------------------------------------------------


def test_attribute_meta_round_trip():
    assert AttributeMeta.from_dict(POSTAL.to_dict()) == POSTAL


def test_attribute_meta_validation():
    with pytest.raises(TupleError):
        AttributeMeta(
            attribute_id=0,
            name="x",
            category=AttributeCategory.DEMOGRAPHIC,
            sensitivity_hint=Sensitivity.LEVEL1_PUBLIC,
        )
    with pytest.raises(TupleError):
        AttributeMeta(
            attribute_id=1,
            name="",
            category=AttributeCategory.DEMOGRAPHIC,
            sensitivity_hint=Sensitivity.LEVEL1_PUBLIC,
        )
    with pytest.raises(TupleError, match="unknown AttributeCategory token: 'Astrological'"):
        AttributeMeta.from_dict({**POSTAL.to_dict(), "category": "Astrological"})
    with pytest.raises(TupleError, match="unknown Sensitivity token: 'Level5'"):
        AttributeMeta.from_dict({**POSTAL.to_dict(), "sensitivity_hint": "Level5"})


def test_category_lookup_accepts_exact_tokens_only():
    decode = token_decoder(AttributeCategory, TupleError)
    for token in AttributeCategory.TOKENS:
        assert decode(token) is token
        assert decode(json.loads(json.dumps(token))) is token
    for bad in ("", "CONSENT", "consent", None, 1, ["Consent"], {"a": 1}):
        with pytest.raises(TupleError) as caught:
            decode(bad)
        assert str(caught.value) == f"unknown AttributeCategory token: {bad!r}"
