"""Noninterference: a value the accessor may not read exactly decides nothing.

For random populations, grants and filtered queries, one stored value
whose lineage is not granted Specific is changed and the same query runs
again.  Status, denials, verification entries, row presence and order and
every other cell must stay the same.  Only that value's own cell may
change, and only when it is disclosed at a Partial or Existential grant;
with no grant at all, or a denying one, nothing changes.
"""

from __future__ import annotations

import datetime as dt
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import make_accessor, make_prefs
from privledger.engine import Engine, EngineConfig
from privledger.mediator import QueryRequest
from privledger.policy import GranularityMode, PurposeMode

NOW = dt.date(2021, 7, 1)
ACCESSOR_ID = 3
ATTRIBUTES = ("first_name", "last_name", "city", "chart_number")
VALUES = ("Quinn", "Smith", "Q", 7)
PROVIDERS = (1, 2, 3)

NONE, DENIED = "none", "denied"
GRANTS = (
    NONE,
    DENIED,
    GranularityMode.SPECIFIC,
    GranularityMode.PARTIAL,
    GranularityMode.EXISTENTIAL,
)

values = st.one_of(st.none(), st.sampled_from(VALUES))  # None: no stored value
cells = st.tuples(st.sampled_from(PROVIDERS), st.sampled_from(ATTRIBUTES))


@st.composite
def scenarios(draw):
    stored = {
        (provider, name): draw(values) for provider in PROVIDERS for name in ATTRIBUTES
    }
    grants = {cell: draw(st.sampled_from(GRANTS)) for cell in stored}
    requested = draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1, max_size=3, unique=True))
    predicate = draw(
        st.dictionaries(st.sampled_from(ATTRIBUTES), st.sampled_from(VALUES), max_size=2)
    )
    if draw(st.booleans()):
        predicate["provider_id"] = draw(st.sampled_from(PROVIDERS))
    scope = draw(st.one_of(st.none(), st.sampled_from(PROVIDERS)))
    changed = draw(cells.filter(lambda cell: grants[cell] is not GranularityMode.SPECIFIC))
    new_value = draw(values.filter(lambda value: value != stored[changed]))
    request = QueryRequest(
        accessor_id=ACCESSOR_ID,
        requested_purpose="care-delivery",
        attributes=tuple(requested),
        predicate=predicate,
        provider_id=scope,
    )
    return stored, grants, request, changed, new_value


def _store_provider(engine: Engine, stored: dict, provider: int):
    engine.add_provider(
        provider,
        {
            name: stored[(provider, name)]
            for name in ATTRIBUTES
            if stored[(provider, name)] is not None
        },
    )


def _build(data_dir: Path, stored: dict, grants: dict) -> Engine:
    engine = Engine.initialize(EngineConfig(data_dir=data_dir, hash_cost=1))
    engine.add_accessor("physician3", "secret", make_accessor(accessor_id=ACCESSOR_ID))
    for provider in PROVIDERS:
        _store_provider(engine, stored, provider)
    for (provider, name), grant in grants.items():
        if grant == NONE:
            continue
        attribute_id = engine.store.catalog.by_name(name).attribute_id
        if grant == DENIED:
            prefs = make_prefs(
                attribute_id, mode=PurposeMode.REUSE_SELECTED, declared="research"
            )
        else:
            prefs = make_prefs(attribute_id, granularity=grant)
        engine.set_policy(provider, ACCESSOR_ID, prefs)
    return engine


@settings(max_examples=150, deadline=None)
@given(scenarios())
def test_unreadable_value_changes_only_its_own_masked_cell(scenario):
    stored, grants, request, changed, new_value = scenario
    with tempfile.TemporaryDirectory() as tmp:
        engine = _build(Path(tmp) / "data", stored, grants)
        try:
            before = engine.mediate(request, now=NOW)
            _store_provider(engine, {**stored, changed: new_value}, changed[0])
            after = engine.mediate(request, now=NOW)
        finally:
            engine.close()

    assert after.status == before.status
    assert after.denials == before.denials
    assert after.verification == before.verification
    assert after.columns == before.columns
    assert [row.provider_id for row in after.rows] == [
        row.provider_id for row in before.rows
    ]
    may_differ = grants[changed] in (GranularityMode.PARTIAL, GranularityMode.EXISTENTIAL)
    for old, new in zip(before.rows, after.rows):
        for name, old_cell, new_cell in zip(before.columns, old.cells, new.cells):
            if (old.provider_id, name) != changed or not may_differ:
                assert new_cell == old_cell, (old.provider_id, name)
