"""Tuple binding, canonical encoding and hash record tests."""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_accessor, make_prefs, random_tuple
from privledger import tuples
from privledger.policy import Sensitivity
from privledger.tuples import (
    DEFAULT_COST,
    HASH_ALGORITHM,
    MAX_COST,
    AttributeCategory,
    AttributeMeta,
    CostOutOfRange,
    HashRecord,
    MalformedEncoding,
    MalformedRecord,
    MismatchedAttribute,
    PrivacyTuple,
    TupleError,
    bind_tuple,
    canonical_decode,
    canonical_encode,
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
    encoded = canonical_encode(make_tuple())
    encoded.decode("ascii")
    assert b", " not in encoded
    assert b": " not in encoded
    assert b"\n" not in encoded


def test_encoding_field_order_and_sorted_keys():
    t = make_tuple(version=7)
    parts = json.loads(canonical_encode(t))
    assert isinstance(parts, list) and len(parts) == 5
    assert parts[0] == 4
    assert parts[4] == 7
    for record in (parts[1], parts[2], parts[3]):
        assert list(record) == sorted(record)


def test_round_trip_decode():
    rng = random.Random(91)
    for _ in range(100):
        t = random_tuple(rng)
        assert canonical_decode(canonical_encode(t)) == t


def test_version_changes_the_encoding():
    assert canonical_encode(make_tuple(1)) != canonical_encode(make_tuple(2))


def test_decode_rejects_garbage():
    with pytest.raises(MalformedEncoding):
        canonical_decode(b"not json")
    with pytest.raises(MalformedEncoding):
        canonical_decode(b"{}")
    with pytest.raises(MalformedEncoding):
        canonical_decode(b"[1,2,3]")
    with pytest.raises(MalformedEncoding):
        canonical_decode("méta".encode("utf-8"))


def test_decode_rejects_wrong_shapes_inside():
    encoded = canonical_encode(make_tuple())
    parts = json.loads(encoded)
    parts[2].pop("sensitivity")
    with pytest.raises(MalformedEncoding):
        canonical_decode(json.dumps(parts).encode("ascii"))


# ---------------------------------------------------------------------------
# hash records
# ---------------------------------------------------------------------------

RECORD_RE = re.compile(r"^\$sha256i\$[1-9][0-9]*\$[0-9a-f]{32}\$[0-9a-f]{64}$")


def test_hash_record_string_shape():
    record = hash_tuple(b"payload", cost=3)
    assert RECORD_RE.match(record.to_string())


def test_hash_verify_round_trip():
    encoded = canonical_encode(make_tuple())
    record = hash_tuple(encoded, cost=4)
    assert verify_hash(encoded, record)
    assert verify_hash(encoded, record.to_string())
    assert verify_hash(encoded, record.to_string().encode("ascii"))


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


def test_cost_one_is_single_salted_digest():
    record = hash_tuple(b"data", cost=1)
    assert record.digest == hashlib.sha256(record.salt + b"data").digest()


def test_higher_cost_rehashes_the_digest():
    record = hash_tuple(b"data", cost=3)
    step = hashlib.sha256(record.salt + b"data").digest()
    step = hashlib.sha256(step).digest()
    step = hashlib.sha256(step).digest()
    assert record.digest == step


# The iterated digest of KNOWN_DATA under KNOWN_SALT at cost 64, computed
# with hashlib.sha256 alone.
KNOWN_SALT = bytes(range(16))
KNOWN_DATA = b'{"known":"answer"}'
KNOWN_DIGEST = "ce1e045b7fb73b73513e67017b2694ac4fcc7f66df8edb18b2639ebfdda31102"


def reference_iterate(salt: bytes, data: bytes, cost: int) -> bytes:
    digest = hashlib.sha256(salt + data).digest()
    for _ in range(cost - 1):
        digest = hashlib.sha256(digest).digest()
    return digest


def test_iterated_digest_known_answer():
    assert reference_iterate(KNOWN_SALT, KNOWN_DATA, 64).hex() == KNOWN_DIGEST
    assert tuples._iterate_digest(KNOWN_SALT, KNOWN_DATA, 64).hex() == KNOWN_DIGEST
    record = HashRecord(HASH_ALGORITHM, 64, KNOWN_SALT, bytes.fromhex(KNOWN_DIGEST))
    assert verify_hash(KNOWN_DATA, record)
    assert verify_hash(KNOWN_DATA, record.to_string())


def test_rounds_use_the_builtin_constructor_where_there_is_one():
    for name in ("_sha2", "_sha256"):
        try:
            builtin = importlib.import_module(name).sha256
        except ImportError:
            continue
        assert tuples._round_sha256 is builtin
        break
    else:
        assert tuples._round_sha256 is hashlib.sha256


@settings(max_examples=100)
@given(
    st.binary(min_size=16, max_size=16),
    st.binary(max_size=4096),
    st.integers(min_value=1, max_value=80),
)
def test_iterated_digest_equals_a_hashlib_loop(salt, data, cost):
    expected = reference_iterate(salt, data, cost)
    assert tuples._iterate_digest(salt, data, cost) == expected
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tuples, "_round_sha256", hashlib.sha256)
        assert tuples._iterate_digest(salt, data, cost) == expected


def test_known_answer_without_the_builtin_constructors():
    src = Path(tuples.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib\n"
        "from privledger import tuples\n"
        "assert tuples._round_sha256 is hashlib.sha256\n"
        f"print(tuples._iterate_digest({KNOWN_SALT!r}, {KNOWN_DATA!r}, 64).hex())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == KNOWN_DIGEST


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


@pytest.mark.parametrize(
    "text",
    [
        "",
        "sha256i$1$" + "0" * 32 + "$" + "0" * 64,  # missing leading $
        "$md5$1$" + "0" * 32 + "$" + "0" * 64,
        "$sha256i$0$" + "0" * 32 + "$" + "0" * 64,  # cost below minimum
        "$sha256i$1048577$" + "0" * 32 + "$" + "0" * 64,  # cost above maximum
        "$sha256i$01$" + "0" * 32 + "$" + "0" * 64,  # non-canonical cost
        "$sha256i$x$" + "0" * 32 + "$" + "0" * 64,
        "$sha256i$1$" + "0" * 31 + "$" + "0" * 64,  # short salt
        "$sha256i$1$" + "0" * 32 + "$" + "0" * 63,  # short digest
        "$sha256i$1$" + "A" * 32 + "$" + "0" * 64,  # uppercase hex
        "$sha256i$1$" + "0" * 32 + "$" + "0" * 64 + "$extra",
        "$sha256i$1$" + "0" * 32,
    ],
)
def test_malformed_records_rejected(text):
    with pytest.raises(MalformedRecord):
        HashRecord.from_string(text)
    with pytest.raises(MalformedRecord):
        verify_hash(b"x", text)


def test_verify_returns_false_without_raising_on_mismatch():
    record = hash_tuple(b"original", cost=2)
    assert verify_hash(b"tampered", record) is False


@settings(max_examples=100)
@given(st.binary(max_size=64), st.integers(min_value=1, max_value=32))
def test_hash_verify_property(data, cost):
    record = hash_tuple(data, cost=cost)
    assert verify_hash(data, record)
    assert verify_hash(data, record.to_string())


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
    with pytest.raises(TupleError):
        AttributeCategory.from_token("Astrological")


def test_category_lookup_accepts_exact_tokens_only():
    for member in AttributeCategory:
        assert AttributeCategory.from_token(member.token) is member
    for bad in ("", "CONSENT", "consent", None, 1, ["Consent"], {"a": 1}):
        with pytest.raises(TupleError) as caught:
            AttributeCategory.from_token(bad)
        assert str(caught.value) == f"unknown attribute category: {bad!r}"
