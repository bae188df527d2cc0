"""Every kind of record a data file holds decodes through Record.from_dict:
it reads back what to_dict wrote, and refuses a dict of other keys, or a
value that is no dict, with its own module's error."""

from __future__ import annotations

import datetime as dt

import pytest

from helpers import make_accessor, make_prefs
from privledger.policy import (
    AccessorProfile,
    ContextualNorms,
    PolicyError,
    PreferenceSet,
    PurposeMode,
    PurposePolicy,
    RetentionPolicy,
    Sensitivity,
    VisibilityPolicy,
)
from privledger.store import Credential, ProviderRecord
from privledger.tuples import (
    AttributeCategory,
    AttributeMeta,
    PrivacyTuple,
    TupleError,
    hash_tuple,
)

POSTAL = AttributeMeta(8, "postal_code", AttributeCategory.DEMOGRAPHIC, Sensitivity.LEVEL3_CONFIDENTIAL)
NORMS = ContextualNorms(who="nurse", why="follow-up")
PREFS = make_prefs(attribute_id=8, mode=PurposeMode.REUSE_SELECTED, norms=NORMS, duration=30)
TUPLE = PrivacyTuple(4, POSTAL, PREFS, make_accessor(), 2)

# Each kind, a record of it and the error its decoder raises.
RECORDS = [
    (ProviderRecord, ProviderRecord(4, {"city": "Red Deer", "province": "AB"}), ValueError),
    (Credential, Credential("physician3", hash_tuple(b"secret", 4), make_accessor()), ValueError),
    (PrivacyTuple, TUPLE, TupleError),
    (AttributeMeta, POSTAL, TupleError),
    (PreferenceSet, PREFS, PolicyError),
    (PurposePolicy, PREFS.purpose, PolicyError),
    (VisibilityPolicy, PREFS.visibility, PolicyError),
    (RetentionPolicy, RetentionPolicy(dt.date(2021, 1, 1), 30), PolicyError),
    (ContextualNorms, NORMS, PolicyError),
    (AccessorProfile, make_accessor(), PolicyError),
]
KINDS = [kind.__name__ for kind, _, _ in RECORDS]


@pytest.mark.parametrize("kind, record, error", RECORDS, ids=KINDS)
def test_a_record_reads_back_what_to_dict_wrote(kind, record, error):
    assert kind.from_dict(record.to_dict()) == record


def _extra_key(data):
    return {**data, "extra": 1}


def _missing_key(data):
    return dict(list(data.items())[1:])


def _not_a_dict(data):
    return list(data.items())


@pytest.mark.parametrize("shape", [_extra_key, _missing_key, _not_a_dict], ids=["extra", "missing", "list"])
@pytest.mark.parametrize("kind, record, error", RECORDS, ids=KINDS)
def test_a_record_of_another_shape_is_refused_with_its_kinds_error(kind, record, error, shape):
    with pytest.raises(error) as refused:
        kind.from_dict(shape(record.to_dict()))
    assert refused.type is error
