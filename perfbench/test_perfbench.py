"""Self-test of the benchmark at tiny sizes.

    python3 -m pytest perfbench -q        (from the repository root)
"""
from __future__ import annotations

import gc
import importlib
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = 0.03


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_prints_every_metric_with_its_unit(workload, trace):
    done = bench("--workload", workload, "--seed", "7", "--seconds", "1",
                 "--trace", str(trace), "--scale", str(TINY))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 3
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        metric = result["metrics"][m["name"]]
        assert metric["unit"] == m["unit"], m["name"]
        assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "score-raw", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


@pytest.mark.parametrize("workload", list(run.GENERATORS))
def test_generator_is_deterministic(tmp_path, workload):
    size, _ = run.sizes(workload, TINY)
    for name in ("a", "b"):
        run.target(workload, name, tmp_path / name, 11, size)
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_generated_raw_inputs_keep_their_invariants(tmp_path):
    gen.score_raw(tmp_path, 5, tokens=9, days=30, holder_rows=20)
    entries = json.loads((tmp_path / "universe.json").read_text())["tokens"]
    roles = {e["id"]: e["role"] for e in entries}
    hosted = [e for e in entries if e["role"] == "hosted"]
    assert len(hosted) == 3
    assert all(roles[e["base"]] == "standalone" for e in hosted)
    for e in entries:
        shares = [float(line.split(",")[1])
                  for line in (tmp_path / e["holders"]).read_text().splitlines()[1:]]
        assert math.fsum(shares) < 1
        fgi = [float(line.split(",")[1])
               for line in (tmp_path / e["sentiment"]).read_text().splitlines()[1:]]
        assert all(0 <= v <= 100 for v in fgi)


def test_generated_tables_keep_their_invariants(tmp_path):
    gen.score_tables(tmp_path, 5, tokens=30)
    vol = [line.split(",") for line in (tmp_path / "volatility.csv").read_text().splitlines()[1:]]
    roles = {row[0]: row[5] for row in vol}
    hosted = [row for row in vol if row[5] == "hosted"]
    assert len(hosted) == 10
    assert all(roles[row[6]] == "standalone" for row in hosted)
    assert all(float(row[1]) <= float(row[2]) for row in vol)
    for row in (tmp_path / "fgi.csv").read_text().splitlines()[1:]:
        f_bar, f_max, f_min = map(float, row.split(",")[1:4])
        assert 0 <= f_min <= f_bar <= f_max <= 100


def test_calibration_scales_to_reference_seconds():
    assert calibrate.to_reference(2.0, calibrate.REFERENCE_S) == 2.0
    assert calibrate.to_reference(2.0, 2 * calibrate.REFERENCE_S) == pytest.approx(1.0)
    assert gc.isenabled()
    assert calibrate.timed() > 0
    assert gc.isenabled()


def tiny_session(tmp_path: Path, workload: str):
    sys.path.insert(0, str(ROOT / "src"))
    cli = importlib.import_module("me2f.cli")
    size, _ = run.sizes(workload, TINY)
    target = run.target(workload, "full", tmp_path / "in", 7, size)
    return worker.Session(cli, tmp_path / "work"), target, cli


def truncate(doc: dict) -> str:
    return json.dumps(doc)[:200]


def drop_token(doc: dict) -> str:
    return json.dumps({**doc, "tokens": doc["tokens"][1:]})


def null_score(doc: dict) -> str:
    first = doc["tokens"][0]
    return json.dumps({**doc, "tokens": [{**first, "raw": {**first["raw"], "vds": None}},
                                         *doc["tokens"][1:]]})


def drop_flags(doc: dict) -> str:
    return json.dumps({**doc, "flags": []})


@pytest.mark.parametrize("first", [True, False], ids=["first-repetition", "later-repetition"])
@pytest.mark.parametrize("workload,corrupt", [
    ("score-raw", truncate), ("score-raw", drop_token), ("score-raw", null_score),
    ("score-tables", drop_token), ("score-tables", null_score),
    ("warn-history", truncate), ("warn-history", drop_flags),
])
def test_corrupted_report_counts_as_failed(tmp_path, monkeypatch, workload, corrupt, first):
    session, target, cli = tiny_session(tmp_path, workload)
    if not first:
        session.op(target)
    monkeypatch.setattr(cli, "_dumps", corrupt)
    session.op(target)
    assert (session.attempted, session.failed) == (1 if first else 2, 1)
    assert session.problems


def test_intact_reports_pass_and_match_their_reference(tmp_path):
    session, target, _ = tiny_session(tmp_path, "score-raw")
    session.op(target)
    session.op(target)
    assert (session.attempted, session.failed) == (2, 0)
    out = tmp_path / "kept"
    session.invoke(target["argv"], out)
    reference = worker.reference_of("score", out)
    assert worker.check_reference("score", out, reference) == []
    some = next(iter(reference["raw"]))
    reference["raw"][some]["vds"] += 1e-6
    assert worker.check_reference("score", out, reference)
