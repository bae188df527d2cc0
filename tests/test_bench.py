"""The overhead table: arithmetic, aggregate and rendering."""

from __future__ import annotations

import pytest

from helpers import ARCHETYPE_ATTRIBUTES
from privledger.bench import (
    AGGREGATE_LABEL,
    EmptyInput,
    ZeroDuration,
    aggregate,
    build_report,
    overhead_percent,
    render_report,
    row_from_means,
)
from privledger.store import default_catalog


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_overhead_percent_reference_values():
    assert overhead_percent(13.37, 22.99) == 41.84
    assert overhead_percent(13.38, 21.67) == 38.26
    assert overhead_percent(10.28, 18.24) == 43.64


def test_overhead_percent_edge_cases():
    assert overhead_percent(0.0, 10.0) == 100.0
    assert overhead_percent(10.0, 10.0) == 0.0
    assert overhead_percent(2.0, 1.0) == -100.0  # private faster than native
    for bad in (0.0, -1.0):
        with pytest.raises(ZeroDuration):
            overhead_percent(1.0, bad)


def test_row_from_means():
    row = row_from_means("Demographic", 13.37, 22.99)
    assert row.overhead_ms == pytest.approx(9.62)
    assert row.overhead_pct == 41.84


def test_aggregate_averages_percentages_not_ratio_of_means():
    rows = [
        row_from_means("a", 1.0, 2.0),  # 50.00%
        row_from_means("b", 30.0, 40.0),  # 25.00%
    ]
    agg = aggregate(rows)
    assert agg.label == AGGREGATE_LABEL
    assert agg.overhead_pct == 37.5  # mean of percents
    # ratio of the aggregated means would give a different number
    assert overhead_percent(agg.native_ms, agg.private_ms) != agg.overhead_pct
    assert agg.native_ms == pytest.approx(15.5)
    assert agg.private_ms == pytest.approx(21.0)
    assert agg.overhead_ms == pytest.approx(5.5)


def test_aggregate_requires_rows():
    with pytest.raises(EmptyInput):
        aggregate([])


def test_build_report():
    rows = [row_from_means("a", 1.0, 2.0)]
    report = build_report(rows)
    assert report.rows == tuple(rows)
    assert report.aggregate_row.label == AGGREGATE_LABEL


# ---------------------------------------------------------------------------
# archetypes
# ---------------------------------------------------------------------------


def test_archetype_attribute_sets():
    assert len(ARCHETYPE_ATTRIBUTES["Demographic"]) == 6
    assert len(ARCHETYPE_ATTRIBUTES["Healthcare"]) == 5
    assert len(ARCHETYPE_ATTRIBUTES["ConsentWitness"]) == 7
    catalog = default_catalog()
    for names in ARCHETYPE_ATTRIBUTES.values():
        for name in names:
            assert catalog.has_name(name)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_render_report_layout():
    report = build_report(
        [
            row_from_means("Demographic", 13.37, 22.99),
            row_from_means("Healthcare", 13.38, 21.67),
            row_from_means("Consent Witness", 10.28, 18.24),
        ]
    )
    text = render_report(report)
    lines = text.splitlines()
    assert len({len(line) for line in lines}) == 1  # fixed width
    assert lines[0].startswith("Queries")
    for column in ("Native (ms)", "Privacy-Aware (ms)", "Privacy Overhead Cost"):
        assert column in lines[0]
    assert "9.62 (41.84%)" in text
    assert "8.29 (38.26%)" in text
    assert "7.96 (43.64%)" in text
    assert lines[-1].startswith(AGGREGATE_LABEL)
    assert lines[1] == lines[-2]  # rules around body and aggregate
    assert "|" in lines[2]
