"""Fuzzed inputs: one mutated cell or line never breaks the CLI contract.

Each example changes one cell or one line of the reference summary tables
or of a small bars, holders, sentiment or history file, then runs ``score``
or ``warn`` twice. Bad data exits 3 and good data 0, with one line on
stderr and no traceback, and both runs write the same bytes.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_DIR
from me2f.cli import main

FILES = {
    "volatility.csv": (REFERENCE_DIR / "reference_volatility.csv").read_text(),
    "fgi.csv": (REFERENCE_DIR / "reference_fgi.csv").read_text(),
    "bars.csv": "date,high,low,close,volume_usd,market_cap_usd\n" + "".join(
        f"2024-01-0{d},{110 + d},{90 - d},{100 + d % 3},{1e6 * d},{2e7 + d}\n" for d in range(1, 7)
    ),
    "holders.csv": "rank,share\n1,0.3\n2,0.2\n3,0.1\n4,0.05\n5,0.05\n",
    "sentiment.csv": "date,fgi,abs_return\n2024-01-01,50,\n" + "".join(
        f"2024-01-0{d},{40 + 7 * d},0.0{d}\n" for d in range(2, 7)
    ),
    "history.csv": "date,token,metric,value\n" + "".join(
        f"2024-01-0{d},{token},{metric},{(d * 7 + i) % 10 / 10}\n"
        for d in range(1, 9) for i, (token, metric) in enumerate(
            (t, m) for t in ("A", "B") for m in ("vds", "wds", "sas"))
    ),
}
UNIVERSE = {
    "volatility_table": "volatility.csv",
    "fgi_table": "fgi.csv",
    "tokens": [{"id": "X", "role": "standalone", "bars": "bars.csv",
                "holders": "holders.csv", "sentiment": "sentiment.csv"}],
}
NUMBERS = ["nan", "inf", "oops", "", "1e400", "-1", "0", "-0", "1e-320", "1e300", "150"]
DATES = ["2024-13-01", "03/01/2024", "", "2024-02-30", "20240102", "2024-W01-2"]
KEY_COLUMNS = {"token", "rank", "metric", "chain_role", "base"}


@st.composite
def mutated_file(draw):
    """One input file's name and its text with one cell or one line changed."""
    name = draw(st.sampled_from(sorted(FILES)))
    lines = FILES[name].splitlines()
    header = lines[0].split(",")
    i = draw(st.integers(min_value=1, max_value=len(lines) - 1))
    if draw(st.booleans()):
        j = draw(st.integers(min_value=0, max_value=len(header) - 1))
        cells = lines[i].split(",")
        other = lines[draw(st.integers(min_value=1, max_value=len(lines) - 1))].split(",")[j]
        values = [f" {cells[j]}\t", other]
        if header[j] == "date":
            values += DATES
        elif header[j] in KEY_COLUMNS:  # keys stay known: no base or role is invented
            values += ["", "  ", "VDS", "risk"] if header[j] == "metric" else ["", "  "]
        else:
            values += NUMBERS + ["-" + cells[j]]
        cells[j] = draw(st.sampled_from(values))
        lines[i] = ",".join(cells)
    else:
        kind = draw(st.sampled_from(["repeat", "short", "long", "blank", "no_header"]))
        if kind == "repeat":
            lines.insert(draw(st.integers(min_value=1, max_value=len(lines))), lines[i])
        elif kind == "short":
            lines[i] = lines[i].rpartition(",")[0]
        elif kind == "long":
            lines[i] += ",1"
        elif kind == "blank":
            lines.insert(i, "  ")
        else:
            del lines[0]
    return name, "\n".join(lines) + "\n"


def run_in(workdir: Path, name: str, out: str):
    if name == "history.csv":
        args = ["warn", "--history", workdir / name, "--window", 3, "--threshold", 0.5,
                "--x-days", 2, "--out", workdir / out]
    else:
        args = ["score", "--universe", workdir / "universe.json", "--out", workdir / out]
    return CliRunner().invoke(main, [str(a) for a in args])


@given(mutation=mutated_file())
@settings(max_examples=120, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_one_mutation_keeps_the_cli_contract(mutation):
    name, text = mutation
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for file_name, content in (FILES | {name: text}).items():
            (workdir / file_name).write_text(content, encoding="utf-8")
        (workdir / "universe.json").write_text(json.dumps(UNIVERSE), encoding="utf-8")
        first, second = run_in(workdir, name, "a"), run_in(workdir, name, "b")
        for result in (first, second):
            assert result.exit_code in (0, 3), result.output
            assert result.stderr.count("\n") == 1, result.stderr
            assert "Traceback" not in result.output
        assert second.exit_code == first.exit_code
        outputs = sorted(p.name for p in (workdir / "a").glob("*")) if first.exit_code == 0 else []
        assert outputs == sorted(p.name for p in (workdir / "b").glob("*"))
        for output in outputs:
            assert (workdir / "a" / output).read_bytes() == (workdir / "b" / output).read_bytes()
        if first.exit_code == 3:
            assert first.stderr == second.stderr
