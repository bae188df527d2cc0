"""The in-process API the benchmark's overhead table calls still works.

perfbench/harness.py builds the paper's overhead table from
``Engine.native_query``, ``MediationResult.timing`` and the bench module's
``row_from_means`` and ``build_report``; perfbench/inputs.py publishes the
population through the public Engine calls.  Both are loaded from their
files, unchanged, with their sibling modules, so removing or renaming
any of those names fails here and not only in the benchmark's own tests.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from privledger.engine import Engine, EngineConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name: str):
    """Load perfbench/<name>.py under the top-level name harness imports it by."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_overhead_table_from_perfbench(tmp_path, monkeypatch):
    for sibling in ("speed", "tracing"):
        _load(monkeypatch, sibling)
    inputs = _load(monkeypatch, "inputs")
    harness = _load(monkeypatch, "harness")

    bench = harness.Bench(
        PERFBENCH.parent, tmp_path, harness.WORKLOADS["scan-where"], seed=5, providers=3
    )
    engine = Engine.initialize(EngineConfig(data_dir=bench.data_dir, hash_cost=8))
    try:
        engine.add_accessor(inputs.LOGIN, inputs.PASSWORD, inputs.ACCESSOR)
        for provider_id in bench.pop.providers:
            inputs.publish_provider(engine, bench.pop, provider_id)
        report = bench.overhead_table(engine)
    finally:
        engine.close()

    assert [row.label for row in report.rows] == list(inputs.ARCHETYPE_LABELS.values())
    assert all(row.private_ms > 0 for row in report.rows)
    assert report.aggregate_row.private_ms > 0
