"""The paper's overhead table: arithmetic and rendering.

Callers time native and privacy-aware queries themselves and pass the
mean wall-clock per archetype; this module turns those means into rows
with the relative overhead, adds the aggregate row and renders the
table.  The aggregate row averages the per-archetype percentages
directly; it is never recomputed from the aggregate means, which would
weight archetypes by duration instead of equally.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass


class BenchError(Exception):
    pass


class ZeroDuration(BenchError):
    """Private mean duration must be positive to express an overhead."""


class EmptyInput(BenchError):
    pass


AGGREGATE_LABEL = "All Queries"


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def overhead_percent(native_ms: float, private_ms: float) -> float:
    """Overhead of the private path as a percentage of its own duration,
    rounded to two decimals: 100 * (private - native) / private."""
    if private_ms <= 0:
        raise ZeroDuration("private duration must be positive")
    return round(100.0 * (private_ms - native_ms) / private_ms, 2)


@dataclass(frozen=True)
class ArchetypeRow:
    label: str
    native_ms: float
    private_ms: float
    overhead_ms: float
    overhead_pct: float


def row_from_means(label: str, native_ms: float, private_ms: float) -> ArchetypeRow:
    return ArchetypeRow(
        label=label,
        native_ms=native_ms,
        private_ms=private_ms,
        overhead_ms=private_ms - native_ms,
        overhead_pct=overhead_percent(native_ms, private_ms),
    )


def aggregate(rows) -> ArchetypeRow:
    """Aggregate row over per-archetype rows.

    Means average the per-row means; the percentage averages the per-row
    percentages (mean of percents, not percent of means).
    """
    rows = list(rows)
    if not rows:
        raise EmptyInput("nothing to aggregate")
    return ArchetypeRow(
        label=AGGREGATE_LABEL,
        native_ms=statistics.fmean(r.native_ms for r in rows),
        private_ms=statistics.fmean(r.private_ms for r in rows),
        overhead_ms=statistics.fmean(r.overhead_ms for r in rows),
        overhead_pct=round(statistics.fmean(r.overhead_pct for r in rows), 2),
    )


@dataclass(frozen=True)
class BenchReport:
    rows: tuple[ArchetypeRow, ...]
    aggregate_row: ArchetypeRow


def build_report(rows) -> BenchReport:
    rows = tuple(rows)
    return BenchReport(rows=rows, aggregate_row=aggregate(rows))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def render_report(report: BenchReport) -> str:
    """Fixed-width table with the overhead cell shown as 'X.XX (Y.YY%)'."""
    header = ("Queries", "Native (ms)", "Privacy-Aware (ms)", "Privacy Overhead Cost")
    body = []
    for row in (*report.rows, report.aggregate_row):
        body.append(
            (
                row.label,
                f"{row.native_ms:.2f}",
                f"{row.private_ms:.2f}",
                f"{row.overhead_ms:.2f} ({row.overhead_pct:.2f}%)",
            )
        )
    widths = [
        max(len(header[col]), *(len(line[col]) for line in body))
        for col in range(len(header))
    ]

    def fmt(cells) -> str:
        return " | ".join(
            cell.ljust(widths[col]) if col == 0 else cell.rjust(widths[col])
            for col, cell in enumerate(cells)
        )

    rule = "-+-".join("-" * w for w in widths)
    lines = [fmt(header), rule]
    lines.extend(fmt(line) for line in body[:-1])
    lines.append(rule)
    lines.append(fmt(body[-1]))
    return "\n".join(lines)
