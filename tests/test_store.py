"""Record store: catalog, content, tuple versions, credentials."""

from __future__ import annotations

import json

import pytest

from helpers import make_accessor, make_prefs, policy_index
from privledger.policy import AccessorRole, Sensitivity
from privledger.store import (
    AuthenticationFailed,
    Catalog,
    DuplicateLogin,
    ProviderRecord,
    StaleVersion,
    Store,
    StoreError,
    TupleInstance,
    UnknownAccessor,
    UnknownAttribute,
    UnknownProvider,
    default_catalog,
)
from privledger.tuples import (
    AttributeCategory,
    AttributeMeta,
    bind_tuple,
)


@pytest.fixture
def store(tmp_path):
    store = Store(tmp_path, hash_cost=4, create=True)
    yield store
    store.close()


def sample_instance(catalog, version=1, provider_id=4, attribute_id=5, seq=1):
    attribute = catalog.by_id(attribute_id)
    bound = bind_tuple(
        provider_id,
        attribute,
        make_prefs(attribute_id=attribute_id),
        make_accessor(),
        prior_version=version - 1,
    )
    return TupleInstance(
        privacy_tuple=bound,
        stream=f"stream-{provider_id}-{attribute_id}-3",
        seq=seq,
    )


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------


def test_default_catalog_shape():
    catalog = default_catalog()
    assert len(catalog) == 25
    assert sorted(m.attribute_id for m in catalog) == list(range(1, 26))
    names = [m.name for m in catalog]
    assert len(set(names)) == 25


def test_default_catalog_known_assignments():
    catalog = default_catalog()
    assert catalog.by_id(1).name == "first_name"
    assert catalog.by_id(3).name == "date_of_birth"
    assert catalog.by_id(5).name == "street_name"
    assert catalog.by_id(8).name == "postal_code"
    assert catalog.by_id(11).name == "personal_health_number"
    assert catalog.by_id(16).name == "witness_last_name"
    assert catalog.by_id(25).name == "group_number"
    assert catalog.by_name("postal_code").attribute_id == 8
    assert catalog.by_id(8).category is AttributeCategory.DEMOGRAPHIC
    assert catalog.by_id(16).category is AttributeCategory.CONSENT


def test_catalog_rejects_duplicates():
    meta = default_catalog().by_id(1)
    clash_id = AttributeMeta(
        attribute_id=1,
        name="other",
        category=AttributeCategory.BIOGRAPHICAL,
        sensitivity_hint=Sensitivity.LEVEL1_PUBLIC,
    )
    with pytest.raises(StoreError):
        Catalog([meta, clash_id])
    clash_name = AttributeMeta(
        attribute_id=99,
        name="first_name",
        category=AttributeCategory.BIOGRAPHICAL,
        sensitivity_hint=Sensitivity.LEVEL1_PUBLIC,
    )
    with pytest.raises(StoreError):
        Catalog([meta, clash_name])


def test_unknown_catalog_lookups():
    catalog = default_catalog()
    with pytest.raises(UnknownAttribute):
        catalog.by_id(26)
    with pytest.raises(UnknownAttribute):
        catalog.by_name("favourite_color")


# ---------------------------------------------------------------------------
# provider content
# ---------------------------------------------------------------------------


def test_put_and_get_provider(store):
    store.put_provider_record(
        ProviderRecord(provider_id=4, attributes={"postal_code": "T2N 1N4"})
    )
    assert store.get_provider_record(4).attributes["postal_code"] == "T2N 1N4"
    assert store.has_provider(4)
    assert store.provider_ids() == [4]


def test_unknown_attribute_in_content_rejected(store):
    with pytest.raises(UnknownAttribute):
        store.put_provider_record(
            ProviderRecord(provider_id=4, attributes={"shoe_size": 9})
        )


def test_get_missing_provider(store):
    with pytest.raises(UnknownProvider):
        store.get_provider_record(4)


def test_replacing_provider_record_rewrites_file(store, tmp_path):
    store.put_provider_record(ProviderRecord(4, {"city": "Calgary"}))
    store.put_provider_record(ProviderRecord(4, {"city": "Edmonton"}))
    lines = (tmp_path / "content.db").read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["attributes"]["city"] == "Edmonton"
    assert store.get_provider_record(4).attributes["city"] == "Edmonton"


def test_select_rows_projection_and_predicate(store):
    # The store filters on nothing but a provider id; value predicates
    # belong to mediation.
    store.put_provider_record(ProviderRecord(2, {"city": "Calgary", "gender": "F"}))
    store.put_provider_record(ProviderRecord(1, {"city": "Calgary", "gender": "M"}))
    store.put_provider_record(ProviderRecord(3, {"city": "Edmonton", "gender": "F"}))
    rows = store.select_rows(["gender", "city"])
    assert rows == [  # provider order, not insert order
        (1, ["M", "Calgary"]),
        (2, ["F", "Calgary"]),
        (3, ["F", "Edmonton"]),
    ]
    assert store.select_rows(["city"], 3) == [(3, ["Edmonton"])]
    with pytest.raises(UnknownProvider):
        store.select_rows(["city"], 4)


def test_select_missing_values_are_none(store):
    store.put_provider_record(ProviderRecord(1, {"city": "Calgary"}))
    assert store.select_rows(["city", "gender"]) == [(1, ["Calgary", None])]


def test_select_unknown_attribute_rejected(store):
    store.put_provider_record(ProviderRecord(1, {"city": "Calgary"}))
    with pytest.raises(UnknownAttribute):
        store.select_rows(["shoe_size"])


# ---------------------------------------------------------------------------
# tuple instances
# ---------------------------------------------------------------------------


def test_tuple_versions_accumulate(store, tmp_path):
    store.put_provider_record(ProviderRecord(4, {"street_name": "5202 50 Ave"}))
    for version in (1, 2, 3):
        store.put_tuple_instance(
            sample_instance(store.catalog, version=version, seq=version)
        )
    lineage = (4, 5, 3)
    history = [
        json.loads(line)
        for line in (tmp_path / "policy.db").read_text().splitlines()
    ]
    assert [(r["stream"], r["tuple"]["version"]) for r in history] == [
        ("stream-4-5-3", version) for version in (1, 2, 3)
    ]
    assert store.latest_tuple_instance(lineage, 3).version == 3
    # Another seq decodes its own line.
    assert store.latest_tuple_instance(lineage, 2).version == 2
    assert store.latest_tuple_instance(lineage, 4) is None


def test_stale_version_rejected(store):
    store.put_provider_record(ProviderRecord(4, {}))
    store.put_tuple_instance(sample_instance(store.catalog, version=2))
    for stale in (1, 2):
        with pytest.raises(StaleVersion):
            store.put_tuple_instance(sample_instance(store.catalog, version=stale))


@pytest.mark.parametrize("seq", [1, 2])
def test_a_policy_seq_that_does_not_rise_is_refused(tmp_path, seq):
    store = Store(tmp_path, hash_cost=4, create=True)
    store.put_provider_record(ProviderRecord(4, {}))
    store.put_tuple_instance(sample_instance(store.catalog, version=1, seq=2))
    # A later version at a seq not above the last line's is refused ...
    later = sample_instance(store.catalog, version=2, seq=seq)
    with pytest.raises(StaleVersion, match=rf"^policy\.db already holds seq 2, got {seq}$"):
        store.put_tuple_instance(later)
    store.close()
    # ... and so is a file that holds one, naming the file and line.
    path = tmp_path / "policy.db"
    with open(path, "a") as fh:
        fh.write(json.dumps(later.to_dict(), sort_keys=True) + "\n")
    with pytest.raises(StoreError) as raised:
        Store(tmp_path, hash_cost=4)
    assert str(raised.value) == (
        f"{path} line 2: unreadable record (seq {seq} is not above the previous line's 2)"
    )


def test_tuple_requires_known_provider(store):
    with pytest.raises(UnknownProvider):
        store.put_tuple_instance(sample_instance(store.catalog))


def test_a_value_beyond_64_bits_is_refused_before_any_write(store, tmp_path):
    store.put_provider_record(ProviderRecord(4, {}))
    with pytest.raises(ValueError, match=r"seq must be an integer in \[0, 2\*\*63\)"):
        store.put_tuple_instance(sample_instance(store.catalog, seq=2**63))
    assert (tmp_path / "policy.db").read_bytes() == b""
    assert policy_index(store) == []


def test_missing_lineage_reads(store):
    assert store.latest_tuple_instance((9, 9, 9), 1) is None


# ---------------------------------------------------------------------------
# credentials
# ---------------------------------------------------------------------------


def test_authenticate_round_trip(store):
    profile = make_accessor(accessor_id=3, role=AccessorRole.CLINICAL_PHYSICIAN)
    store.add_accessor("physician3", "physician3-secret", profile)
    assert store.authenticate("physician3", "physician3-secret") == profile


def test_wrong_user_and_wrong_password_are_indistinguishable(store):
    store.add_accessor("physician3", "physician3-secret", make_accessor())
    with pytest.raises(AuthenticationFailed) as wrong_password:
        store.authenticate("physician3", "oops")
    with pytest.raises(AuthenticationFailed) as wrong_user:
        store.authenticate("nobody", "oops")
    assert str(wrong_password.value) == str(wrong_user.value)


def test_passwords_stored_only_as_hash_records(store, tmp_path):
    store.add_accessor("physician3", "physician3-secret", make_accessor())
    raw = (tmp_path / "credentials.db").read_text()
    assert "physician3-secret" not in raw
    assert "$pbkdf2$" in raw


def test_duplicate_login_and_accessor_id_rejected(store):
    store.add_accessor("physician3", "pw", make_accessor(accessor_id=3))
    with pytest.raises(DuplicateLogin):
        store.add_accessor("physician3", "pw2", make_accessor(accessor_id=4))
    with pytest.raises(StoreError):
        store.add_accessor("other", "pw3", make_accessor(accessor_id=3))


def test_get_accessor(store):
    profile = make_accessor(accessor_id=3)
    store.add_accessor("physician3", "pw", profile)
    assert store.get_accessor(3) == profile
    with pytest.raises(UnknownAccessor):
        store.get_accessor(99)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def test_reopen_restores_everything(tmp_path):
    store = Store(tmp_path, hash_cost=4, create=True)
    store.put_provider_record(ProviderRecord(4, {"street_name": "5202 50 Ave"}))
    store.put_tuple_instance(sample_instance(store.catalog, version=1))
    store.put_tuple_instance(sample_instance(store.catalog, version=2, seq=2))
    store.add_accessor("physician3", "pw", make_accessor())
    store.close()

    again = Store(tmp_path, hash_cost=4)
    assert again.get_provider_record(4).attributes["street_name"] == "5202 50 Ave"
    latest = again.latest_tuple_instance((4, 5, 3), 2)
    assert (latest.version, latest.stream) == (2, "stream-4-5-3")
    assert again.authenticate("physician3", "pw") == make_accessor()
    again.close()


def test_create_refuses_existing_files(tmp_path):
    Store(tmp_path, create=True).close()
    with pytest.raises(StoreError):
        Store(tmp_path, create=True)


def test_open_requires_all_family_files(tmp_path):
    Store(tmp_path, create=True).close()
    (tmp_path / "policy.db").unlink()
    with pytest.raises(StoreError, match="missing"):
        Store(tmp_path)


def test_files_are_line_delimited_json(tmp_path):
    store = Store(tmp_path, hash_cost=4, create=True)
    store.put_provider_record(ProviderRecord(4, {"city": "Calgary"}))
    store.put_tuple_instance(sample_instance(store.catalog))
    store.add_accessor("a", "b", make_accessor())
    store.close()
    for name in ("content.db", "policy.db", "credentials.db"):
        for line in (tmp_path / name).read_text().splitlines():
            json.loads(line)
