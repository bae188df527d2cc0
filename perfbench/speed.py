"""Rescaling of measured times to a nominal CPU speed.

On a shared host the speed of one virtual CPU swings by up to 2x within
seconds: a fixed SHA-256 loop took 1.05 to 2.2 ms on the 2-vCPU virtual
machine (Python 3.11.7) the bounds were set on, with nothing else running in
it.  Raw wall times then spread far wider than any useful regression bound.
So the benchmark times a fixed reference loop right before and right after
every operation, on the same CPU, and reports the operation's wall time
multiplied by ``NOMINAL_S / mean(reference before, reference after)``:
milliseconds on a CPU that runs the reference in NOMINAL_S.  A change to
privledger moves the operation and not the reference, so it shows in full.
"""

from __future__ import annotations

import hashlib
import json
import time

NOMINAL_S = 0.0015  # the reference on an idle core of that machine
_BLOB = {"a": [1, 2, 3], "b": "text" * 5, "c": {"d": 1.5}}


def reference() -> float:
    """Seconds taken by the reference: iterated SHA-256 and JSON encoding,
    the two kinds of work privledger's hot paths do."""
    started = time.perf_counter()
    digest = b"r" * 32
    for _ in range(1200):
        digest = hashlib.sha256(digest).digest()
    for _ in range(120):
        json.dumps(_BLOB, sort_keys=True)
    return time.perf_counter() - started


class Speed:
    """Brackets consecutive operations with reference runs; the run after
    one operation is the run before the next.  A run lasts about a tenth of
    the operation it follows, so that the speed of a long operation is
    averaged over many moments and not read at one."""

    def __init__(self):
        self.samples = []
        self.restart()

    def restart(self, runs: int = 10):
        """Measure the speed afresh, before the first operation after a pause."""
        self._last = sum(reference() for _ in range(runs)) / runs
        self.samples.append(self._last)

    def rescale(self, seconds: float) -> float:
        """The wall time of the operation that just ended, rescaled."""
        blocks = max(1, min(50, round(seconds / (10 * NOMINAL_S))))
        after = sum(reference() for _ in range(blocks)) / blocks
        self.samples.append(after)
        scale = NOMINAL_S / ((self._last + after) / 2)
        self._last = after
        return seconds * scale

    def run_factor(self) -> float:
        """One scale for a whole run: the median reference of the run."""
        ordered = sorted(self.samples)
        return NOMINAL_S / ordered[len(ordered) // 2]
