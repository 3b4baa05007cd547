"""The names and seams the benchmark binds to still exist in the package.

``perfbench/worker.py`` wraps every function named in its ``TRACED`` map
on the ``me2f`` module that defines it. A missing name makes every traced
benchmark operation fail, so this checks the map against the package
without running the benchmark. The benchmark's self-test replaces
``cli._dumps`` to prove that a corrupted report is caught; that proof holds
only while ``score`` and ``warn`` write exactly what ``_dumps`` returns.
"""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

from click.testing import CliRunner

from conftest import REFERENCE_DIR
from me2f import FrameworkParams, build_context, cli, score_universe
from me2f.ingest import load_universe

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


SENTINEL = "what _dumps returned\n"


def sentinel_dumps(monkeypatch) -> list[dict]:
    """Make ``cli._dumps`` return ``SENTINEL``; the documents it is given."""
    docs = []

    def dumps(doc):
        docs.append(doc)
        return SENTINEL

    monkeypatch.setattr(cli, "_dumps", dumps)
    return docs


def test_score_writes_exactly_what_dumps_returns(monkeypatch, tmp_path):
    docs = sentinel_dumps(monkeypatch)
    universe = REFERENCE_DIR / "universe.json"
    result = CliRunner().invoke(cli.main, ["score", "--universe", str(universe),
                                           "--out", str(tmp_path), "--format", "json"])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "report.json").read_bytes() == SENTINEL.encode()
    params = FrameworkParams()
    report = score_universe(build_context(load_universe(universe, params), params))
    assert docs == [cli.report_to_dict(report)]


def test_warn_writes_exactly_what_dumps_returns(monkeypatch, tmp_path):
    docs = sentinel_dumps(monkeypatch)
    history = tmp_path / "history.csv"
    history.write_text("date,token,metric,value\n" + "".join(
        f"2024-01-0{day},X,vds,{value}\n" for day, value in enumerate([1, 2, 3, 9], start=1)))
    result = CliRunner().invoke(cli.main, ["warn", "--history", str(history), "--window", "2",
                                           "--threshold", "0.5", "--out", str(tmp_path)])
    assert result.exit_code == 0, result.output
    assert (tmp_path / "warnings.json").read_bytes() == SENTINEL.encode()
    assert [list(doc) for doc in docs] == [["params", "warnings", "flags", "joint_events",
                                            "buckets"]]
    assert docs[0]["flags"]
