"""Access decision, granularity masking and policy document tests."""

from __future__ import annotations

import datetime as dt
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_accessor, make_prefs, policy_document, random_prefs, reference_mask
from privledger.config import token_decoder
from privledger.policy import (
    ABSENT_TOKEN,
    EXISTS_TOKEN,
    AccessorProfile,
    AccessorRole,
    ContextualNorms,
    DenialReason,
    GranularityMode,
    GranularityPolicy,
    PolicyError,
    PreferenceSet,
    PurposeMode,
    PurposePolicy,
    RetentionPolicy,
    Sensitivity,
    VisibilityPolicy,
    VisibilityScope,
    apply_granularity,
    evaluate_access,
    parse_decimal,
    parse_policy_document,
    retention_active,
)

NOW = dt.date(2021, 7, 1)

ALL_ROLES = frozenset(AccessorRole.TOKENS)


# ---------------------------------------------------------------------------
# evaluate_access
# ---------------------------------------------------------------------------


def test_restricted_attribute_denied_to_level3_third_party():
    prefs = make_prefs(
        sensitivity=Sensitivity.LEVEL4_RESTRICTED,
        scope=VisibilityScope.THIRD_PARTY_ALLIED_HEALTH,
        roles={AccessorRole.THIRD_PARTY_ALLIED},
    )
    accessor = make_accessor(
        role=AccessorRole.THIRD_PARTY_ALLIED,
        permission=Sensitivity.LEVEL3_CONFIDENTIAL,
    )
    decision = evaluate_access(prefs, accessor, "care-delivery", NOW)
    assert not decision.allowed
    assert decision.reason is DenialReason.SENSITIVITY_EXCEEDED
    assert decision.granularity is None


def test_physician_with_matching_permission_allowed():
    prefs = make_prefs(
        sensitivity=Sensitivity.LEVEL4_RESTRICTED,
        roles={AccessorRole.CLINICAL_PHYSICIAN},
    )
    accessor = make_accessor(
        role=AccessorRole.CLINICAL_PHYSICIAN,
        permission=Sensitivity.LEVEL4_RESTRICTED,
    )
    # ReuseSame: the requested purpose is irrelevant.
    for purpose in ("care-delivery", "research", "anything"):
        decision = evaluate_access(prefs, accessor, purpose, NOW)
        assert decision.allowed
        assert decision.granularity is GranularityMode.SPECIFIC


def test_reuse_selected_purpose_mismatch_denied():
    prefs = make_prefs(
        mode=PurposeMode.REUSE_SELECTED,
        declared="care-delivery",
        roles={AccessorRole.CLINICAL_PHYSICIAN},
    )
    accessor = make_accessor(role=AccessorRole.CLINICAL_PHYSICIAN)
    denied = evaluate_access(prefs, accessor, "research", NOW)
    assert denied.reason is DenialReason.PURPOSE_MISMATCH
    allowed = evaluate_access(prefs, accessor, "care-delivery", NOW)
    assert allowed.allowed


def test_third_party_accessor_set_extends_visibility():
    prefs = make_prefs(
        scope=VisibilityScope.HOUSE,
        roles={AccessorRole.CLINICAL_NURSE},
        third_party={AccessorRole.THIRD_PARTY_ALLIED},
    )
    accessor = make_accessor(role=AccessorRole.THIRD_PARTY_ALLIED)
    assert evaluate_access(prefs, accessor, "care-delivery", NOW).allowed


def test_denial_reasons_follow_fixed_check_order():
    # Start with every check failing, then repair one at a time and watch
    # the reported reason advance through the order.
    expired = dt.date(2020, 1, 1)
    prefs = make_prefs(
        sensitivity=Sensitivity.LEVEL4_RESTRICTED,
        mode=PurposeMode.REUSE_SELECTED,
        declared="care-delivery",
        roles={AccessorRole.CLINICAL_NURSE},
        effective=expired,
        duration=30,
    )
    accessor = make_accessor(
        role=AccessorRole.THIRD_PARTY_ALLIED,
        permission=Sensitivity.LEVEL1_PUBLIC,
    )
    d = evaluate_access(prefs, accessor, "research", NOW)
    assert d.reason is DenialReason.VISIBILITY_VIOLATION

    accessor = make_accessor(
        role=AccessorRole.CLINICAL_NURSE, permission=Sensitivity.LEVEL1_PUBLIC
    )
    d = evaluate_access(prefs, accessor, "research", NOW)
    assert d.reason is DenialReason.SENSITIVITY_EXCEEDED

    accessor = make_accessor(
        role=AccessorRole.CLINICAL_NURSE, permission=Sensitivity.LEVEL4_RESTRICTED
    )
    d = evaluate_access(prefs, accessor, "research", NOW)
    assert d.reason is DenialReason.PURPOSE_MISMATCH

    d = evaluate_access(prefs, accessor, "care-delivery", NOW)
    assert d.reason is DenialReason.RETENTION_EXPIRED

    prefs = make_prefs(
        sensitivity=Sensitivity.LEVEL4_RESTRICTED,
        mode=PurposeMode.REUSE_SELECTED,
        declared="care-delivery",
        roles={AccessorRole.CLINICAL_NURSE},
        effective=expired,
        duration=0,
    )
    d = evaluate_access(prefs, accessor, "care-delivery", NOW)
    assert d.allowed


def test_not_yet_effective_policy_denies():
    prefs = make_prefs(
        roles={AccessorRole.CLINICAL_PHYSICIAN}, effective=dt.date(2022, 1, 1)
    )
    accessor = make_accessor(role=AccessorRole.CLINICAL_PHYSICIAN)
    decision = evaluate_access(prefs, accessor, "care-delivery", NOW)
    assert decision.reason is DenialReason.RETENTION_EXPIRED


# ---------------------------------------------------------------------------
# retention_active
# ---------------------------------------------------------------------------


def test_retention_window_end_is_exclusive():
    window = RetentionPolicy(effective_date=dt.date(2021, 6, 1), duration_days=365)
    assert retention_active(window, dt.date(2021, 6, 1))
    assert retention_active(window, dt.date(2022, 5, 31))
    assert not retention_active(window, dt.date(2022, 6, 1))
    assert not retention_active(window, dt.date(2021, 5, 31))


def test_zero_duration_means_indefinite():
    window = RetentionPolicy(effective_date=dt.date(2021, 6, 1), duration_days=0)
    assert retention_active(window, dt.date(2021, 6, 1))
    assert retention_active(window, dt.date(2099, 12, 31))
    assert not retention_active(window, dt.date(2021, 5, 31))


def test_single_day_window():
    window = RetentionPolicy(effective_date=dt.date(2021, 6, 1), duration_days=1)
    assert retention_active(window, dt.date(2021, 6, 1))
    assert not retention_active(window, dt.date(2021, 6, 2))


@settings(max_examples=300, deadline=None)
@given(st.dates(), st.dates(), st.integers(0, 10**12))
def test_retention_is_decided_by_day_count(effective, now, duration):
    """The window holds day numbers effective .. effective + duration - 1
    (no end when duration is 0), however far past the calendar it ends."""
    first = effective.toordinal()
    inside = first <= now.toordinal() and (duration == 0 or now.toordinal() < first + duration)
    window = RetentionPolicy(effective_date=effective, duration_days=duration)
    assert retention_active(window, now) is inside


def test_a_window_ending_past_the_calendar_is_open_to_its_end():
    window = RetentionPolicy(effective_date=dt.date(2021, 1, 1), duration_days=4_000_000)
    assert retention_active(window, dt.date(2021, 1, 1))
    assert retention_active(window, dt.date.max)
    assert not retention_active(window, dt.date(2020, 12, 31))
    decision = evaluate_access(make_prefs(duration=4_000_000), make_accessor(), "care-delivery", NOW)
    assert decision.allowed


# ---------------------------------------------------------------------------
# apply_granularity
# ---------------------------------------------------------------------------


def test_partial_masks_postal_code():
    assert apply_granularity("T2N 1N4", GranularityMode.PARTIAL) == "T** ***"


def test_partial_preserves_hyphens():
    assert apply_granularity("403-555-0187", GranularityMode.PARTIAL) == "4**-***-****"


def test_partial_of_short_values():
    assert apply_granularity("A", GranularityMode.PARTIAL) == "A"
    assert apply_granularity("", GranularityMode.PARTIAL) == ""


def test_partial_of_numeric_value_masks_decimal_rendering():
    assert apply_granularity(42, GranularityMode.PARTIAL) == "4*"


def test_specific_is_identity():
    assert apply_granularity("T2N 1N4", GranularityMode.SPECIFIC) == "T2N 1N4"
    assert apply_granularity(7, GranularityMode.SPECIFIC) == 7
    assert apply_granularity(None, GranularityMode.SPECIFIC) is None


def test_existential_yields_only_the_two_tokens():
    assert apply_granularity("T2N 1N4", GranularityMode.EXISTENTIAL) == EXISTS_TOKEN
    assert apply_granularity("", GranularityMode.EXISTENTIAL) == EXISTS_TOKEN
    assert apply_granularity(None, GranularityMode.EXISTENTIAL) == ABSENT_TOKEN


def test_partial_of_missing_value_stays_missing():
    assert apply_granularity(None, GranularityMode.PARTIAL) is None


@settings(max_examples=300)
@given(st.text(max_size=40), st.sampled_from(GranularityMode.TOKENS))
def test_masking_agrees_with_reference(value, mode):
    assert apply_granularity(value, mode) == reference_mask(value, mode)


@settings(max_examples=200)
@given(st.text(min_size=1, max_size=40))
def test_partial_mask_shape(value):
    masked = apply_granularity(value, GranularityMode.PARTIAL)
    assert len(masked) == len(value)
    assert masked[0] == value[0]
    for i in range(1, len(value)):
        if value[i] in (" ", "-"):
            assert masked[i] == value[i]
        else:
            assert masked[i] == "*"


@settings(max_examples=200)
@given(st.text(max_size=40))
def test_existential_never_leaks_value_content(value):
    out = apply_granularity(value, GranularityMode.EXISTENTIAL)
    assert out in (EXISTS_TOKEN, ABSENT_TOKEN)
    assert out == EXISTS_TOKEN  # any present value, empty included


# ---------------------------------------------------------------------------
# decision properties
# ---------------------------------------------------------------------------


def test_decision_is_deterministic():
    rng = random.Random(81)
    for _ in range(200):
        prefs = random_prefs(rng)
        accessor = make_accessor(
            role=rng.choice(AccessorRole.TOKENS),
            permission=rng.choice(Sensitivity.TOKENS),
        )
        purpose = rng.choice(("care-delivery", "research"))
        first = evaluate_access(prefs, accessor, purpose, NOW)
        second = evaluate_access(prefs, accessor, purpose, NOW)
        assert first == second


def test_unlisted_role_always_sees_visibility_violation():
    rng = random.Random(82)
    for _ in range(200):
        prefs = random_prefs(rng)
        outside = [
            r
            for r in AccessorRole.TOKENS
            if r not in prefs.visibility.allowed_roles
            and r not in prefs.third_party_accessors
        ]
        if not outside:
            continue
        accessor = make_accessor(
            role=rng.choice(outside), permission=Sensitivity.LEVEL4_RESTRICTED
        )
        decision = evaluate_access(prefs, accessor, "care-delivery", NOW)
        assert decision.reason is DenialReason.VISIBILITY_VIOLATION


def test_raising_permission_never_revokes_access():
    rng = random.Random(83)
    checked = 0
    for _ in range(400):
        prefs = random_prefs(rng)
        role = rng.choice(AccessorRole.TOKENS)
        level = rng.choice(Sensitivity.TOKENS)
        accessor = make_accessor(role=role, permission=level)
        purpose = rng.choice(("care-delivery", "research"))
        base = evaluate_access(prefs, accessor, purpose, NOW)
        if not base.allowed:
            continue
        checked += 1
        for higher in Sensitivity.TOKENS[Sensitivity.TOKENS.index(level):]:
            upgraded = make_accessor(role=role, permission=higher)
            again = evaluate_access(prefs, upgraded, purpose, NOW)
            assert again.allowed
            assert again.granularity is base.granularity
    assert checked > 10


def test_allow_and_deny_are_mutually_exclusive():
    rng = random.Random(84)
    for _ in range(200):
        prefs = random_prefs(rng)
        accessor = make_accessor(
            role=rng.choice(AccessorRole.TOKENS),
            permission=rng.choice(Sensitivity.TOKENS),
        )
        decision = evaluate_access(prefs, accessor, "care-delivery", NOW)
        if decision.allowed:
            assert decision.reason is None
            assert decision.granularity is not None
        else:
            assert decision.reason is not None
            assert decision.granularity is None


# ---------------------------------------------------------------------------
# construction constraints
# ---------------------------------------------------------------------------


def test_house_visibility_rejects_third_party_roles():
    with pytest.raises(PolicyError):
        VisibilityPolicy(
            scope=VisibilityScope.HOUSE,
            allowed_roles=frozenset(
                {AccessorRole.CLINICAL_NURSE, AccessorRole.THIRD_PARTY_ALLIED}
            ),
        )


def test_visibility_requires_at_least_one_role():
    with pytest.raises(PolicyError):
        VisibilityPolicy(scope=VisibilityScope.HOUSE, allowed_roles=frozenset())


def test_declared_purpose_must_be_non_empty():
    with pytest.raises(PolicyError):
        PurposePolicy(mode=PurposeMode.REUSE_SAME, declared_purpose="")


def test_negative_duration_rejected():
    with pytest.raises(PolicyError):
        RetentionPolicy(effective_date=dt.date(2021, 1, 1), duration_days=-1)


def test_unknown_roles_are_refused_when_a_record_is_built():
    # A record holding one would be published and then never decode again.
    with pytest.raises(PolicyError) as caught:
        VisibilityPolicy(VisibilityScope.HOUSE, {"Janitor"})
    assert str(caught.value) == "allowed roles must be AccessorRole tokens, got 'Janitor'"
    with pytest.raises(PolicyError) as caught:
        make_prefs(third_party={AccessorRole.CLINICAL_NURSE, "Nobody"})
    assert str(caught.value) == "third-party accessors must be AccessorRole tokens, got 'Nobody'"


def test_unknown_tokens_rejected():
    accessor = make_accessor().to_dict()
    with pytest.raises(PolicyError, match="unknown AccessorRole token: 'Janitor'"):
        AccessorProfile.from_dict({**accessor, "role": "Janitor"})
    with pytest.raises(PolicyError, match="unknown Sensitivity token: 'Level5'"):
        AccessorProfile.from_dict({**accessor, "permission_level": "Level5"})
    with pytest.raises(PolicyError, match="unknown GranularityMode token: 'Fuzzy'"):
        PreferenceSet.from_dict({**make_prefs().to_dict(), "granularity": "Fuzzy"})


@pytest.mark.parametrize(
    "vocabulary",
    [PurposeMode, VisibilityScope, GranularityMode, AccessorRole, DenialReason, Sensitivity],
)
def test_token_lookup_accepts_exact_tokens_only(vocabulary):
    decode = token_decoder(vocabulary, PolicyError)
    for token in vocabulary.TOKENS:
        assert decode(token) is token
        # A token read from a file is another str object; decoding returns
        # the vocabulary's own, which every decoded record then shares.
        read = json.loads(json.dumps(token))
        assert read is not token
        assert decode(read) is token
    name = next(key for key, value in vars(vocabulary).items() if value == token)
    for bad in ("", name, token.lower(), None, 1, ["x"], {"a": 1}):
        with pytest.raises(PolicyError) as caught:
            decode(bad)
        assert str(caught.value) == f"unknown {vocabulary.__name__} token: {bad!r}"


def test_preference_record_round_trip():
    rng = random.Random(85)
    for _ in range(50):
        prefs = random_prefs(rng)
        assert PreferenceSet.from_dict(prefs.to_dict()) == prefs


def test_preference_record_rejects_extra_keys():
    data = make_prefs().to_dict()
    data["color"] = "blue"
    with pytest.raises(PolicyError):
        PreferenceSet.from_dict(data)


def test_norms_reject_non_text():
    with pytest.raises(PolicyError):
        ContextualNorms(who=7)


# ---------------------------------------------------------------------------
# policy document format
# ---------------------------------------------------------------------------

DOCUMENT = """\
# street address disclosure policy
attribute_id = 5
sensitivity = Level4Restricted
purpose_mode = ReuseSame
declared_purpose = care-delivery
norm_why = continuity of care
visibility_scope = ThirdPartyAlliedHealth
allowed_roles = ClinicalPhysician, ThirdPartyAllied
granularity = Specific
effective_date = 2021-01-01
duration_days = 0

attribute_id = 8
sensitivity = Level2InternalUse
purpose_mode = ReuseSelected
declared_purpose = research
visibility_scope = House
allowed_roles = ClinicalNurse
granularity = Partial
effective_date = 2021-03-15
duration_days = 365
third_party_accessors = ThirdPartyAllied
"""


def test_parse_two_record_document():
    records = parse_policy_document(DOCUMENT)
    assert len(records) == 2
    first, second = records
    assert first.attribute_id == 5
    assert first.sensitivity is Sensitivity.LEVEL4_RESTRICTED
    assert first.purpose.norms.why == "continuity of care"
    assert first.visibility.allowed_roles == frozenset(
        {AccessorRole.CLINICAL_PHYSICIAN, AccessorRole.THIRD_PARTY_ALLIED}
    )
    assert second.granularity.mode is GranularityMode.PARTIAL
    assert second.retention.duration_days == 365
    assert second.third_party_accessors == frozenset(
        {AccessorRole.THIRD_PARTY_ALLIED}
    )


def test_render_parse_round_trip():
    rng = random.Random(86)
    records = [random_prefs(rng) for _ in range(8)]
    text = policy_document(records)
    assert parse_policy_document(text) == records


def test_duplicate_field_rejected():
    text = DOCUMENT.replace(
        "attribute_id = 5", "attribute_id = 5\nattribute_id = 6", 1
    )
    with pytest.raises(PolicyError, match="duplicate"):
        parse_policy_document(text)


def test_unknown_field_rejected():
    with pytest.raises(PolicyError, match="unknown"):
        parse_policy_document(DOCUMENT + "\nfavourite_color = blue\n")


def test_missing_field_rejected():
    text = DOCUMENT.replace("granularity = Specific\n", "", 1)
    with pytest.raises(PolicyError, match="missing"):
        parse_policy_document(text)


def test_line_without_equals_rejected():
    with pytest.raises(PolicyError, match="field = value"):
        parse_policy_document("attribute_id 5\n")


def test_bad_enum_token_rejected():
    text = DOCUMENT.replace("granularity = Specific", "granularity = Coarse", 1)
    with pytest.raises(PolicyError):
        parse_policy_document(text)


def test_comments_and_blank_lines_ignored():
    padded = "\n\n# leading comment\n\n" + DOCUMENT + "\n\n# trailing\n"
    assert parse_policy_document(padded) == parse_policy_document(DOCUMENT)


@pytest.mark.parametrize(
    "field, text",
    [
        ("duration_days", "3_6_5"),
        ("duration_days", "0365"),
        ("duration_days", "٣٦٥"),
        ("duration_days", "+365"),
        ("attribute_id", "0_8"),
    ],
)
def test_integer_fields_accept_only_canonical_decimal(field, text):
    line = "duration_days = 365" if field == "duration_days" else "attribute_id = 8"
    document = DOCUMENT.replace(line, f"{field} = {text}", 1)
    with pytest.raises(PolicyError) as caught:
        parse_policy_document(document)
    assert str(caught.value) == f"field {field!r} must be an integer, got {text!r}"


@pytest.mark.parametrize(
    "text, number",
    [("0", 0), ("7", 7), ("-7", -7), ("403555", 403555), ("-0", None), ("0403555", None),
     ("12_34", None), ("٣٤", None), ("+5", None), (" 5", None), ("5\n", None),
     ("", None), ("-", None), ("1e3", None)],
)
def test_parse_decimal_is_canonical_ascii(text, number):
    assert parse_decimal(text) == number
