"""Write the golden outputs through the library alone and compare their bytes.

Needs only the standard library and ``me2f`` (from ``src/``): it writes what
``me2f score``, ``me2f warn`` and ``me2f plot`` write for the inputs under
``tests/fixtures/golden/`` through ``ingest``, ``scoring``, ``warning``,
``report`` and ``charts`` into a temporary directory, and compares each file
with its recorded bytes. It exits 1 naming every file that differs, or if
click was imported, so it runs on any interpreter that can import ``me2f``,
with or without the CLI's dependencies.

Usage: python tests/golden_stdlib.py
"""
from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "fixtures" / "golden"
sys.path.insert(0, str(ROOT / "src"))

from me2f import charts, ingest, report, scoring, warning  # noqa: E402
from me2f.domain import FrameworkParams  # noqa: E402
from me2f.errors import DataError  # noqa: E402


def score(universe: Path, params: FrameworkParams, chart: bool) -> dict:
    """``me2f score``'s files: report.json, report.txt and, with ``chart``, the charts."""
    scored = scoring.score_universe(scoring.build_context(ingest.load_universe(universe, params), params))
    doc = report.report_to_dict(scored)
    files = {"report.json": report.dumps(doc), "report.txt": report.report_table(scored)}
    if chart:
        files |= charts.chart_files(report.score_rows(doc))[0]
    return files


def warn(history: Path, window_days: int, threshold: float, x_days: int) -> dict:
    """``me2f warn``'s warnings.json for a history file."""
    series = {(s.token_id, s.metric): s for s in ingest.load_history_csv(history)}
    stages = warning.flag_stages(series, window_days, threshold, x_days)
    return {"warnings.json": report.dumps(report.warn_document(window_days, threshold, x_days, *stages))}


def plot(path: Path) -> dict:
    """``me2f plot``'s charts of a report.json."""
    doc = ingest.read_json_object(path, str(path), DataError)
    report.report_tokens(path, doc)
    return charts.chart_files(report.score_rows(doc))[0]


def differences(out: Path, expected: Path, names: list[str]) -> list[str]:
    """The files among ``names`` whose bytes in ``out`` are not those in ``expected``."""
    return [f"{expected.name}/{name}" for name in names
            if (out / name).read_bytes() != (expected / name).read_bytes()]


def main() -> int:
    universe = GOLDEN / "universe.json"
    cases = {  # the golden directory: the files written for it, as the CI step writes them
        "score": score(universe, FrameworkParams(), chart=True),
        "score_params": score(universe, FrameworkParams(n=2, scale_unit=1e6), chart=False),
        "warn": warn(GOLDEN / "history.csv", window_days=3, threshold=0.6, x_days=1),
    }
    faults = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, files in cases.items():
            out = ingest.write_files(Path(tmp) / name, files, "--out")
            if sorted(files) != sorted(p.name for p in (GOLDEN / name).iterdir()):
                faults.append(f"{name}: wrote {sorted(files)}")
            else:
                faults += differences(out, GOLDEN / name, sorted(files))
        plotted = plot(GOLDEN / "score" / "report.json")  # the charts of score's report.json
        out = ingest.write_files(Path(tmp) / "plot", plotted, "--out")
        if sorted(plotted) != sorted(name for name in cases["score"] if not name.startswith("report.")):
            faults.append(f"plot: wrote {sorted(plotted)}")
        faults += [f"plot: {fault}" for fault in differences(out, GOLDEN / "score", sorted(plotted))]
    if "click" in sys.modules:
        faults.append("click was imported")
    for fault in faults:
        print(f"golden mismatch: {fault}", file=sys.stderr)
    print(f"{sys.version.split()[0]}: {'FAILED' if faults else 'all golden bytes equal'}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
