"""The names the benchmark's tracer wraps resolve in the package.

``bench/spans.py`` replaces module attributes by name (``Patches.replace``
reads ``vars(module)[name]``), so a name the package stops importing would
crash the traced benchmark.  Here it fails the suite instead.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def traced_names():
    name = "_bench_spans"
    if name not in sys.modules:
        spec = importlib.util.spec_from_file_location(name, SPANS)
        sys.modules[name] = module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return [(module, path) for module, path, _ in sys.modules[name].TRACED]


# SweepCounts, installed in every run, wraps the sweep the pipeline calls
ATTACHMENTS = traced_names() + [("n2sid.pipeline", "sweep")]


@pytest.mark.parametrize("module, path", ATTACHMENTS, ids=[f"{m}:{p}" for m, p in ATTACHMENTS])
def test_every_wrapped_name_is_a_module_attribute(module, path):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    assert attr in vars(owner)
