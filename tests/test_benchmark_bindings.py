"""The benchmark's traced names still exist in the package.

``perfbench/worker.py`` wraps every function named in its ``TRACED`` map
on the ``me2f`` module that defines it. A missing name makes every traced
benchmark operation fail, so this checks the map against the package
without running the benchmark.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_worker(monkeypatch):
    """``perfbench/worker.py`` as a module, leaving no bytecode behind."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))  # worker imports calibrate
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return worker


def test_every_traced_name_is_a_callable_on_its_module(monkeypatch):
    traced = load_worker(monkeypatch).TRACED
    assert traced
    missing = [
        f"me2f.{mod}.{name}"
        for mod, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"me2f.{mod}"), name, None))
    ]
    assert missing == []
