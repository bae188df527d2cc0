"""Every name the benchmark's tracer wraps exists in the package.

perfbench/tracing.py lists in TARGETS the functions and methods it wraps
with spans, and resolves each one the way this test does.  A traced name
that is deleted or renamed fails here rather than in a traced benchmark
run.  The tracer module is loaded from its file and not changed.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("target", _targets(), ids=lambda target: target[0])
def test_traced_name_resolves(target):
    _, module_name, path, _ = target
    module = importlib.import_module(module_name)
    if "." in path:
        class_name, attribute = path.split(".")
        # The tracer replaces the method on the class that defines it.
        assert attribute in vars(getattr(module, class_name))
    else:
        assert callable(getattr(module, path))
