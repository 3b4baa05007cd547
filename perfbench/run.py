"""me2f benchmark: one workload, one seed, one JSON result line.

Run from the repository root (it builds nothing: me2f is imported from src/):

    python3 perfbench/run.py --workload score-raw --seed 0 --seconds 30 --trace 0

Workloads (sizes at --scale 1):
    score-raw     200 tokens, each with 365-day bars, 365-day FGI and 150 holder
                  rows; every third token hosted on a standalone base
    score-tables  10,000 tokens given only as volatility and FGI summary
                  table rows; every third token hosted
    warn-history  12 tokens x 3 metrics x 2,000 days (72,000 rows), warn with
                  --window 90 --threshold 0.9 --x-days 3

Inputs are generated from --seed (not timed) into .perfbench_work/, then a
fresh worker process (worker.py) runs the command back to back for --seconds
and checks every output. End-to-end times are in reference seconds: each is
scaled by a fixed calibration kernel timed next to it (calibrate.py), so that
the drifting speed of a shared machine cancels out. --trace 0 prints the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones; units
come from that file.
The last stdout line is {"correct", "attempted", "failed", "metrics"}.
--scale shrinks the workload (the self-test runs at tiny sizes); the
recorded reference is only checked at --scale 1 with the default seed.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import gen

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
TOP_HOLDERS = 100  # FrameworkParams.n: whale.concentration reads at most this many shares
SETUP_REPEATS = 15
SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); sys.path.append(sys.argv[2]); "
    "t = time.perf_counter(); import me2f.cli; t = time.perf_counter() - t; "
    "import calibrate; calibrate.kernel(); "
    "print(calibrate.to_reference(t, (calibrate.timed() + calibrate.timed()) / 2))"
)
# Every process the benchmark times gets the same string-hash layout. Over six
# runs on one input, the quartile spread of run_s was about 10% with a random
# hash seed per process and about 3% with a fixed one.
TIMED_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
GROWTH_SPANS = (
    "ingest.load_universe", "ingest.load_bars_csv", "ingest.load_sentiment_csv",
    "ingest.load_holders_csv", "ingest.load_volatility_table", "ingest.load_fgi_table",
    "ingest.load_history_csv", "warning.rolling_flags",
    "warning.joint_spike", "warning.assign_buckets", "whale.concentration",
)


def sizes(workload: str, scale: float) -> tuple[dict, dict]:
    """Full-size and half-depth generator arguments."""
    if workload == "score-raw":
        full = {"tokens": max(6, round(200 * scale)), "days": 365, "holder_rows": 150}
        return full, {**full, "days": full["days"] // 2, "holder_rows": full["holder_rows"] // 2}
    if workload == "score-tables":
        full = {"tokens": max(6, round(10_000 * scale))}
        return full, {"tokens": full["tokens"] // 2}
    full = {"days": max(400, round(2_000 * scale))}
    return full, {"days": full["days"] // 2}


def growth_ratios(workload: str, full: dict, half: dict) -> dict[str, float]:
    """How much deeper the full input is than the half one, per span."""
    if workload == "score-tables":
        return {span: full["tokens"] / half["tokens"] for span in GROWTH_SPANS}
    ratios = {span: full["days"] / half["days"] for span in GROWTH_SPANS}
    if workload == "score-raw":
        ratios["ingest.load_holders_csv"] = full["holder_rows"] / half["holder_rows"]
        ratios["whale.concentration"] = (
            min(full["holder_rows"], TOP_HOLDERS) / min(half["holder_rows"], TOP_HOLDERS)
        )
    return ratios


GENERATORS = {
    "score-raw": ("score", gen.score_raw),
    "score-tables": ("score", gen.score_tables),
    "warn-history": ("warn", gen.warn_history),
}


def target(workload: str, name: str, out_dir: Path, seed: int, size: dict) -> dict:
    kind, make = GENERATORS[workload]
    out_dir.mkdir(parents=True)
    manifest = make(out_dir, seed, **size)
    return {"name": name, "kind": kind, "argv": manifest.argv, "tokens": manifest.tokens,
            "scores": list(manifest.scores), "items": manifest.items}


def setup_seconds(src: Path) -> float:
    """Median time to import me2f.cli in a fresh interpreter, in reference seconds.

    Each interpreter times the calibration kernel right after the import.
    The first import is dropped: it may compile bytecode, which an installed
    CLI has already done.
    """
    samples = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(src), str(HERE)], check=True,
                              capture_output=True, text=True, timeout=120, env=TIMED_ENV)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples[1:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    spec_path = root / "BENCHMARK.json"
    if not (src / "me2f" / "cli.py").is_file() or not spec_path.is_file():
        print(f"error: run from the repository root; {src / 'me2f'} or {spec_path} missing",
              file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    traces = root / ".perfbench_work" / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    try:
        full_size, half_size = sizes(args.workload, args.scale)
        reference = None
        if args.seed == DEFAULT_SEED and args.scale == 1.0:
            reference = json.loads((HERE / "reference" / "seed0.json").read_text())[args.workload]
        config = {
            "src": str(src),
            "work": str(work),
            "seconds": args.seconds,
            "trace": args.trace,
            "full": target(args.workload, "full", work / "full", args.seed, full_size),
            "reference": reference,
            "per_layer": [m["name"] for m in spec["per_layer"]],
            "trace_file": str(traces / f"{args.workload}.json"),
        }
        if args.trace:
            config["half"] = target(args.workload, "half", work / "half", args.seed, half_size)
            config["ratios"] = growth_ratios(args.workload, full_size, half_size)
        config_path = work / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        setup_s = None if args.trace else setup_seconds(src)
        done = subprocess.run([sys.executable, str(HERE / "worker.py"), str(config_path)],
                              capture_output=True, text=True, timeout=150, env=TIMED_ENV)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        print(done.stderr, file=sys.stderr)
        return 1
    report = json.loads(done.stdout.splitlines()[-1])
    values = report["metrics"]
    if not args.trace:
        values["setup_s"] = setup_s
        values["ok_ratio"] = 1.0 - report["failed"] / report["attempted"]
    for problem in report["problems"]:
        print(f"failed check: {problem}", file=sys.stderr)
    correct = report["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
