"""Spans around the calls into privledger's modules, recorded from outside.

A Tracer wraps the public functions and methods named in TARGETS.  Each
wrapper is installed at every name a caller looks it up by: a module-level
function is replaced in every privledger module that imported it (so
``privledger.mediator.verify_hash`` and ``privledger.store.verify_hash`` are
traced, not only ``privledger.tuples.verify_hash``), and a method is
replaced on its class.  Spans stay in memory as
``[name index, parent span index, start, end, counts]``; a child process
writes its spans to a file for the parent to merge.  A span's self time is
its duration minus that of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from dataclasses import dataclass, field

from privledger.mediator import WITHHELD


def _rows(result) -> dict:
    return {"rows": len(result)}


def _mediation(result) -> dict:
    ops = result.ops
    return {
        "lineages": len(result.verification),
        "ledger_reads": ops.ledger_reads,
        "hash_verifications": ops.hash_verifications,
        "policy_evaluations": ops.policy_evaluations,
        "selects": ops.selects,
        "cells": sum(cell != WITHHELD for row in result.rows for cell in row.cells),
    }


# (span name, defining module, function or Class.method, counts taken from the result)
TARGETS = (
    ("cli.main", "privledger.cli", "main", None),
    ("engine.open", "privledger.engine", "Engine.open", None),
    ("engine.set_policy", "privledger.engine", "Engine.set_policy", None),
    ("store.open", "privledger.store", "Store.__init__", None),
    ("store.authenticate", "privledger.store", "Store.authenticate", None),
    ("store.select_rows", "privledger.store", "Store.select_rows", _rows),
    ("store.latest_tuple_instance", "privledger.store", "Store.latest_tuple_instance", None),
    ("store.put_tuple_instance", "privledger.store", "Store.put_tuple_instance", None),
    ("ledger.open", "privledger.ledger", "Ledger.__init__", None),
    ("ledger.verify_file", "privledger.ledger", "verify_file", None),
    ("ledger.latest_item", "privledger.ledger", "Ledger.latest_item", None),
    ("ledger.publish", "privledger.ledger", "Ledger.publish", None),
    ("ledger.create_stream", "privledger.ledger", "Ledger.create_stream", None),
    ("tuples.verify_hash", "privledger.tuples", "verify_hash", None),
    ("tuples.hash_tuple", "privledger.tuples", "hash_tuple", None),
    ("tuples.canonical_encode", "privledger.tuples", "canonical_encode", None),
    ("policy.evaluate_access", "privledger.policy", "evaluate_access", None),
    ("policy.apply_granularity", "privledger.policy", "apply_granularity", None),
    ("mediator.analyze", "privledger.mediator", "Mediator.analyze", None),
    ("mediator.mediate", "privledger.mediator", "Mediator.mediate", _mediation),
)


class Tracer:
    def __init__(self):
        self.names = [target[0] for target in TARGETS]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches = []  # (owner, attribute, original, wrapper)
        importlib.import_module("privledger.cli")  # loads every module a caller may use
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "privledger"]
        for index, (name, module_name, path, count) in enumerate(TARGETS):
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, attribute = path.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[attribute]
                if isinstance(raw, classmethod):
                    wrapper = classmethod(self._wrap(index, raw.__func__, count))
                else:
                    wrapper = self._wrap(index, raw, count)
                self._patches.append((owner, attribute, raw, wrapper))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(index, original, count)
                for caller in modules:
                    for attribute, value in vars(caller).items():
                        if value is original:
                            self._patches.append((caller, attribute, original, wrapper))

    def _wrap(self, index: int, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [index, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(result)
            return result

        return traced

    def install(self):
        for owner, attribute, _, wrapper in self._patches:
            setattr(owner, attribute, wrapper)

    def uninstall(self):
        for owner, attribute, original, _ in self._patches:
            setattr(owner, attribute, original)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def load(path) -> tuple[list, list]:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return data["names"], data["spans"]


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    counts: dict = field(default_factory=dict)

    def mean_ms(self) -> float:
        return 1e3 * self.total_s / self.calls if self.calls else 0.0


class Summary:
    """Per-name call counts, total and self times, merged over processes."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}

    def add(self, names, spans):
        children = [0.0] * len(spans)
        for _, parent, start, end, _ in spans:
            if parent >= 0:
                children[parent] += end - start
        for index, (name_index, _, start, end, counts) in enumerate(spans):
            stat = self.stats.setdefault(names[name_index], Stat())
            stat.calls += 1
            stat.total_s += end - start
            stat.self_s += end - start - children[index]
            for key, value in (counts or {}).items():
                stat.counts[key] = stat.counts.get(key, 0) + value

    def __getitem__(self, name) -> Stat:
        return self.stats.get(name, Stat())


def root_seconds(names, spans, name) -> float:
    """Time spent in outermost spans called ``name`` in one process."""
    index = names.index(name)
    return sum(end - start for n, parent, start, end, _ in spans if n == index and parent < 0)
