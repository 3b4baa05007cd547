"""Fuzzed inputs: one mutated cell, line or JSON value never breaks the CLI contract.

Each CSV example changes one cell or one line of the reference summary
tables or of a small bars, holders, sentiment or history file, then runs
``score`` or ``warn`` twice. Bad data exits 3 and good data 0, with one line
on stderr and no traceback, and both runs write the same bytes.

Each JSON example changes the bytes or one value or key of a universe file
(``score``), a report (``plot`` and ``warn --report``) or a provider config
(``fetch`` over a fake session), and runs the command twice. It exits 0, 2
or 3, with one line on stderr and no traceback, and both runs write the
same bytes.
"""
from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
import requests

from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import REFERENCE_DIR, FakeResponse
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
        if "report.json" in outputs:  # a summary that overflowed once wrote NaN here with exit 0
            report = (workdir / "a" / "report.json").read_text()
            assert "NaN" not in report and "Infinity" not in report
        if first.exit_code == 3:
            assert first.stderr == second.stderr


# --- JSON documents ----------------------------------------------------------

REPORT = {
    "window": {"start": "2024-01-01", "end": "2024-01-06"},
    "tokens": [{"id": token, "vds": vds, "wds": 0.25, "sas": 0.125,
                "raw": {"vds": vds, "wds": 0.25, "sas": 0.125}}
               for token, vds in (("X", 0.5), ("Y", 0.75))],
}
PROVIDER = {"name": "prov", "base_url": "http://127.0.0.1:9", "items_path": "data",
            "fields": {name: name for name in FILES["bars.csv"].splitlines()[0].split(",")}}
DOCUMENTS = {"universe.json": UNIVERSE, "report.json": REPORT, "provider.json": PROVIDER}
JSON_VALUES = [None, True, 0, -1, 1.5, "", "x", [], {}]
HOLE = json.dumps("\u0000hole").encode()  # a string no document holds, for raw JSON text
RAW = {"deep": b"[" * 100_000 + b"]" * 100_000, "huge_int": b"9" * 5000}  # what fills the hole


def json_paths(value, path=()):
    """Every (container path, key or index) in ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield path, key
        yield from json_paths(child, (*path, key))


@st.composite
def mutated_document(draw):
    """A document's name, the kind of change and its bytes, with its text or
    one value or key changed; a ``RAW`` value is left as ``HOLE``, so that a
    failing example stays short to print."""
    name = draw(st.sampled_from(sorted(DOCUMENTS)))
    doc = json.loads(json.dumps(DOCUMENTS[name]))  # a deep copy
    kind = draw(st.sampled_from(["truncate", "bom", "byte", "value", "key", *RAW]))
    if kind not in ("truncate", "bom", "byte"):
        path, key = draw(st.sampled_from(list(json_paths(doc))))
        parent = doc
        for step in path:
            parent = parent[step]
        if kind == "key":
            value = parent.pop(key)
            if isinstance(parent, dict) and draw(st.booleans()):
                parent[key + "_"] = value  # renamed, not dropped
        else:
            parent[key] = draw(st.sampled_from(JSON_VALUES)) if kind == "value" else "\u0000hole"
    data = json.dumps(doc).encode()
    if kind == "truncate":
        data = data[:draw(st.integers(min_value=0, max_value=len(data) - 1))]
    elif kind == "bom":
        data = b"\xef\xbb\xbf" + data
    elif kind == "byte":
        at = draw(st.integers(min_value=0, max_value=len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\x00"])) + data[at:]
    return name, kind, data


class OneShotSession:
    """Serves three days of bars on its first request and no items after,
    whatever the URL or query; nothing leaves the host."""

    def __init__(self):
        self.calls = 0

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls += 1
        lines = FILES["bars.csv"].splitlines()
        header = lines[0].split(",")
        records = [dict(zip(header, line.split(","))) for line in lines[1:4]] if self.calls == 1 else []
        return FakeResponse(payload={"data": records})


def run_document(workdir: Path, name: str, command: str, out: str):
    doc = workdir / name
    if command == "score":
        args = ["score", "--universe", doc, "--out", workdir / out]
    elif command == "plot":
        args = ["plot", "--report", doc, "--out", workdir / out]
    elif command == "warn":
        args = ["warn", "--report", doc, "--window", 2, "--out", workdir / out]
    else:
        args = ["fetch", "--provider-config", doc, "--token", "X", "--start", "2024-01-01",
                "--end", "2024-01-03", "--cache-dir", workdir / "cache", "--out", workdir / out / "bars.csv"]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(requests, "Session", OneShotSession)
        return CliRunner().invoke(main, [str(a) for a in args])


COMMANDS = {"universe.json": ["score"], "report.json": ["plot", "warn"], "provider.json": ["fetch"]}


@given(mutation=mutated_document())
@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_one_json_mutation_keeps_the_cli_contract(mutation):
    name, kind, data = mutation
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        for file_name, content in FILES.items():
            (workdir / file_name).write_text(content, encoding="utf-8")
        (workdir / name).write_bytes(data.replace(HOLE, RAW.get(kind, HOLE)))
        for command in COMMANDS[name]:
            first, second = (run_document(workdir, name, command, f"{command}_{out}") for out in "ab")
            for result in (first, second):
                assert result.exit_code in (0, 2, 3), result.output
                assert "Traceback" not in result.output
                lines = result.stderr.splitlines()
                if command == "plot" and result.exit_code == 0:  # a notice per skipped chart
                    lines = [line for line in lines if not line.startswith("skipped ")]
                assert len(lines) == 1, result.stderr
            assert second.exit_code == first.exit_code
            assert second.stderr == first.stderr.replace(f"{command}_a", f"{command}_b")
            a, b = workdir / f"{command}_a", workdir / f"{command}_b"
            outputs = sorted(p.name for p in a.glob("*"))
            assert outputs == sorted(p.name for p in b.glob("*"))
            for output in outputs:
                assert (a / output).read_bytes() == (b / output).read_bytes()
