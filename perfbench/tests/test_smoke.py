"""Smoke test of the benchmark at a tiny population.

    python -m pytest perfbench/tests

Runs each workload run.py knows (point-mixed included, though
BENCHMARK.json leaves it out) for one second on four providers, untraced
and traced, and checks that tampering with a stored policy makes
a query abort and that the benchmark's check counts that as a failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import inputs  # noqa: E402
from privledger.mediator import MediationStatus, QueryRequest  # noqa: E402


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(BENCH / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--providers", "4",
        ],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(harness.WORKLOADS))
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_with_its_unit(workload, trace, kind):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    units = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert units == {metric["name"]: metric["unit"] for metric in SPEC[kind]}
    if trace == 0:
        assert result["metrics"]["ok_frac"]["value"] == 1.0


def _tamper(policy_file: Path, provider_id: int, attribute: str):
    """Change the declared purpose of one stored policy; the line still
    parses, so only the hash check can catch it."""
    lines = policy_file.read_text().splitlines()
    for index, line in enumerate(lines):
        record = json.loads(line)
        bound = record["tuple"]
        if bound["provider_id"] == provider_id and bound["attribute"]["name"] == attribute:
            bound["prefs"]["purpose"]["declared_purpose"] = "tampered"
            lines[index] = json.dumps(record, sort_keys=True)
            break
    else:
        raise AssertionError("policy line not found")
    policy_file.write_text("\n".join(lines) + "\n")


def test_tampered_policy_aborts_and_counts_as_failure(tmp_path):
    workload = harness.WORKLOADS["cli-cold"]
    (tmp_path / "clean").mkdir()
    clean = harness.Bench(ROOT, tmp_path / "clean", workload, seed=3, providers=3)
    clean.set_up(1)
    attributes = inputs.ARCHETYPE_ATTRIBUTES["Demographic"]
    op = ("query", 1, attributes)
    assert clean.cli_op(op, traced=False)[2]

    (tmp_path / "copy").mkdir()
    shutil.copytree(clean.data_dir, tmp_path / "copy" / "data")
    copy = harness.Bench(ROOT, tmp_path / "copy", workload, seed=3, providers=3)
    _tamper(copy.data_dir / "policy.db", 1, attributes[0])

    child = copy.cli(
        ["query", "--login", inputs.LOGIN, "--password", inputs.PASSWORD,
         "--purpose", inputs.PURPOSE, "--attributes", ",".join(attributes), "--provider", "1"],
        traced=False,
    )
    assert child.code == 3
    assert harness.view_of_cli(child.out).status == "Aborted"
    assert copy.cli_op(op, traced=False)[2] is False

    engine = copy.open_engine()
    try:
        request = QueryRequest(inputs.ACCESSOR_ID, inputs.PURPOSE, attributes, provider_id=1)
        assert engine.mediate(request).status is MediationStatus.ABORTED
        assert copy.warm_op(engine, op)[2] is False
    finally:
        engine.close()
    assert clean.cli_op(op, traced=False)[2]  # the original is untouched
