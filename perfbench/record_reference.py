"""Record reference/seed0.json: what each workload must output for the default seed.

Run once, from the repository root, on the commit whose output is the
reference (the one that introduced this benchmark):

    python3 perfbench/record_reference.py

For warn-history it stores a digest of the flags, joint events and buckets;
for score-raw the raw scores of every token.
run.py compares against it when --seed is the default and --scale is 1.
"""
from __future__ import annotations

import importlib
import json
import shutil
import sys
from pathlib import Path

import run
import worker


def main() -> None:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    cli = importlib.import_module("me2f.cli")
    work = root / ".perfbench_work" / "record"
    shutil.rmtree(work, ignore_errors=True)
    session = worker.Session(cli, work)
    reference = {}
    try:
        for workload in run.GENERATORS:
            full, _ = run.sizes(workload, 1.0)
            target = run.target(workload, "full", work / workload, run.DEFAULT_SEED, full)
            out = work / "out" / workload
            code, _, err = session.invoke(target["argv"], out)
            if code != 0:
                raise SystemExit(f"{workload}: exit {code}: {err}")
            reference[workload] = worker.reference_of(target["kind"], out)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.HERE / "reference" / "seed0.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
