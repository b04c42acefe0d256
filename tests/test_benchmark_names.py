"""The benchmark tracer's names against the package.

perfbench/tracing.py wraps package functions by (module, function) name and
skips a name the package no longer defines, so a metric built on it reads
null and the traced benchmark run fails its strict JSON check.  This test
sees a renamed or deleted traced function without running the benchmark.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_package_callable(monkeypatch):
    # load by path, leaving no bytecode cache under perfbench/
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    pairs = [pair for pairs in tracing.GROUPS.values() for pair in pairs]
    assert pairs
    missing = [
        f"{mod}.{name}"
        for mod, name in pairs
        if not callable(getattr(importlib.import_module(f"godelmodal.{mod}"), name, None))
    ]
    assert not missing, f"traced names the package does not define: {missing}"
