"""The privledger benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's seeded population from the checkout's own sources,
runs one client in a closed loop for S seconds, checks every output and
prints, as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it label the run
(population, hash cost, flush policy, Python version, CPUs, sample counts).
Scratch data lives under .perfbench-work/ in the checkout and is removed on
exit.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("cli-cold", "point-mixed", "scan-where")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--providers", type=int, help="override the workload's population (smoke tests)"
    )
    args = parser.parse_args()
    src = ROOT / "src"
    if not (src / "privledger" / "__init__.py").is_file():
        print(f"error: no privledger sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    # One CPU for this process and its children, so that the reference runs
    # that rescale each operation's time run where the operation ran.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import harness

    work = ROOT / ".perfbench-work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work))
    try:
        outcome = harness.run(
            ROOT, run_dir, args.workload, args.seed, args.seconds, bool(args.trace), args.providers
        )
    except harness.SetupFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.rmdir()
    for note in outcome.notes:
        print(note)
    print(outcome.label)
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": outcome.attempted,
                "failed": outcome.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in outcome.metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
