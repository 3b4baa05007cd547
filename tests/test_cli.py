"""Command-line behavior: files written, exit codes, determinism."""
from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import replace
from datetime import date, timedelta
from itertools import count, product
from pathlib import Path

import pytest
import requests
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EXPECTED_SAS, EXPECTED_VDS, REFERENCE_DIR, FakeSession, random_series
import me2f
from me2f import FrameworkParams, HolderSnapshot, build_context, score_universe
from me2f.cli import _dumps, main, report_to_dict
from me2f.ingest import BARS_HEADER

runner = CliRunner()


def run(*args):
    return runner.invoke(main, [str(a) for a in args])


def score_reference(tmp_path, sub="out", extra=()):
    out = tmp_path / sub
    result = run("score", "--universe", REFERENCE_DIR / "universe.json", "--out", out, *extra)
    assert result.exit_code == 0, result.output
    return out


class TestScore:
    def test_writes_report_files(self, tmp_path):
        out = score_reference(tmp_path)
        doc = json.loads((out / "report.json").read_text())
        by_id = {t["id"]: t for t in doc["tokens"]}
        for token, expected in EXPECTED_VDS.items():
            assert by_id[token]["vds"] == pytest.approx(expected, abs=0.002)
        for token, expected in EXPECTED_SAS.items():
            assert by_id[token]["sas"] == pytest.approx(expected, abs=0.002)
        assert by_id["LIBRA"]["sas"] is None
        assert by_id["LIBRA"]["raw"]["vds"] == pytest.approx(0.7349, abs=1e-4)

    def test_report_json_carries_only_its_own_keys(self, tmp_path):
        doc = json.loads((score_reference(tmp_path) / "report.json").read_text())
        assert list(doc) == ["params", "window", "tokens", "warnings"]

    def test_table_mirrors_summary_layout(self, tmp_path):
        out = score_reference(tmp_path)
        table = (out / "report.txt").read_text()
        lines = [l for l in table.splitlines() if l.strip()]
        assert lines[2].split()[0] == "ETH"
        assert lines[-2].split()[:2] == ["MELANIA", "0.310"]
        assert lines[-1].split()[:2] == ["LIBRA", "0.735"]
        assert "—" in lines[-1]  # absent SAS cell

    def test_chart_format(self, tmp_path):
        out = score_reference(tmp_path, extra=("--format", "json,chart"))
        assert (out / "vds.svg").exists()
        assert (out / "sas.svg").exists()
        assert not (out / "report.txt").exists()

    def test_empty_universe_exits_2_naming_file(self, tmp_path):
        empty = tmp_path / "empty.json"
        empty.write_text('{"tokens": []}')
        result = run("score", "--universe", empty, "--out", tmp_path / "o")
        assert result.exit_code == 2
        assert "empty.json" in result.output

    def test_fewer_than_two_holders_exits_2(self, tmp_path):
        result = run("score", "--universe", REFERENCE_DIR / "universe.json",
                     "--out", tmp_path / "o", "--n", 1)
        assert_clean_exit(result, 2)
        assert result.stderr.startswith("error: n=1")

    def test_unknown_format_exits_2(self, tmp_path):
        result = run("score", "--universe", REFERENCE_DIR / "universe.json",
                     "--out", tmp_path / "o", "--format", "pdf")
        assert result.exit_code == 2

    def test_malformed_data_exits_3(self, tmp_path):
        bars = tmp_path / "x.csv"
        bars.write_text("date,high,low,close,volume_usd,market_cap_usd\n2024-01-01,90,110,100,1,1\n")
        universe = tmp_path / "u.json"
        universe.write_text(json.dumps({"tokens": [{"id": "X", "role": "standalone", "bars": "x.csv"}]}))
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert result.exit_code == 3

    def test_repeated_bar_date_exits_3_naming_file_and_line(self, tmp_path):
        bars = tmp_path / "x.csv"
        bars.write_text("date,high,low,close,volume_usd,market_cap_usd\n"
                        "2024-01-01,110,90,100,1,1\n2024-01-02,110,90,100,1,1\n"
                        "2024-01-01,110,90,100,1,1\n")
        universe = tmp_path / "u.json"
        universe.write_text(json.dumps({"tokens": [{"id": "X", "role": "standalone", "bars": "x.csv"}]}))
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        assert f"{bars}: line 4, column 'date'" in result.stderr
        assert "duplicate date 2024-01-01" in result.stderr

    def test_holder_share_above_one_exits_3_naming_file_and_line(self, tmp_path):
        # within the share-sum tolerance, but no one holder owns more than the supply
        holders = tmp_path / "h.csv"
        holders.write_text("rank,share\n1,1.0000000005\n")
        universe = tmp_path / "u.json"
        universe.write_text(json.dumps({"tokens": [{"id": "X", "role": "standalone",
                                                    "holders": "h.csv"}]}))
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        assert f"{holders}: line 2, column 'share'" in result.stderr

    def test_param_overrides_change_scores(self, tmp_path):
        out_default = score_reference(tmp_path, "a")
        out_alpha = tmp_path / "b"
        result = run("score", "--universe", REFERENCE_DIR / "universe.json",
                     "--out", out_alpha, "--alpha", "1.0")
        assert result.exit_code == 0
        d1 = json.loads((out_default / "report.json").read_text())
        d2 = json.loads((out_alpha / "report.json").read_text())
        assert d1["params"]["alpha"] == 0.5 and d2["params"]["alpha"] == 1.0
        assert d1 != d2


class TestPlot:
    def test_charts_from_report(self, tmp_path):
        out = score_reference(tmp_path)
        charts = tmp_path / "charts"
        result = run("plot", "--report", out / "report.json", "--out", charts)
        assert result.exit_code == 0, result.output
        svg = (charts / "vds.svg").read_text()
        # descending order: LIBRA is the leftmost (first) bar
        assert svg.index(">LIBRA<") < svg.index(">MELANIA<") < svg.index(">ETH<")
        assert "0.735" in svg
        sidecar = (charts / "vds.csv").read_text().splitlines()
        assert sidecar[0] == "token,value"
        assert sidecar[1].startswith("LIBRA,")

    def test_single_token_report(self, tmp_path):
        doc = {"tokens": [{"id": "ONLY", "vds": 0.2, "wds": None, "sas": None}]}
        report = tmp_path / "r.json"
        report.write_text(json.dumps(doc))
        result = run("plot", "--report", report, "--out", tmp_path / "c")
        assert result.exit_code == 0
        assert (tmp_path / "c" / "vds.svg").read_text().count("<rect") == 2  # background + 1 bar

    def test_all_absent_metric_skipped_with_notice(self, tmp_path):
        doc = {"tokens": [{"id": "A", "vds": 0.2, "wds": None, "sas": None}]}
        report = tmp_path / "r.json"
        report.write_text(json.dumps(doc))
        result = run("plot", "--report", report, "--out", tmp_path / "c")
        assert result.exit_code == 0
        assert "skipped sas chart" in result.output
        assert not (tmp_path / "c" / "sas.svg").exists()

    def test_missing_report_exits_3(self, tmp_path):
        result = run("plot", "--report", tmp_path / "nope.json", "--out", tmp_path / "c")
        assert result.exit_code == 3


def write_history(path: Path, values, token="X", metric="vds", start=date(2025, 1, 1)):
    lines = ["date,token,metric,value"]
    for i, v in enumerate(values):
        lines.append(f"{(start + timedelta(days=i)).isoformat()},{token},{metric},{v}")
    path.write_text("\n".join(lines) + "\n")


class TestWarn:
    def test_monotone_history_flags_from_day_90(self, tmp_path):
        hist = tmp_path / "h.csv"
        write_history(hist, [float(i) for i in range(1, 121)])
        out = tmp_path / "w"
        result = run("warn", "--history", hist, "--window", 90, "--threshold", 0.9,
                     "--x-days", 3, "--out", out)
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "warnings.json").read_text())
        assert len(doc["flags"]) == 31  # days 90..120
        assert doc["flags"][0]["date"] == (date(2025, 1, 1) + timedelta(days=89)).isoformat()

    def test_flat_history_empty_flags_exit_0(self, tmp_path):
        hist = tmp_path / "h.csv"
        write_history(hist, [1.0] * 120)
        out = tmp_path / "w"
        result = run("warn", "--history", hist, "--out", out)
        assert result.exit_code == 0
        doc = json.loads((out / "warnings.json").read_text())
        assert doc["flags"] == [] and doc["joint_events"] == [] and doc["buckets"] == []

    def test_warnings_json_carries_only_its_own_keys(self, tmp_path):
        hist = tmp_path / "h.csv"
        write_history(hist, [float(i) for i in range(1, 121)])
        result = run("warn", "--history", hist, "--out", tmp_path / "w")
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "w" / "warnings.json").read_text())
        assert list(doc) == ["params", "warnings", "flags", "joint_events", "buckets"]

    def test_joint_spike_and_tighten_risk_bucket(self, tmp_path):
        hist = tmp_path / "h.csv"
        lines = ["date,token,metric,value"]
        start = date(2025, 1, 1)
        # vds spikes at day 10, sas at day 12 (window 10, spike = window max)
        for metric, spike_day in (("vds", 9), ("sas", 11)):
            for i in range(13):
                value = 100.0 if i == spike_day else float(i % 3)
                lines.append(f"{(start + timedelta(days=i)).isoformat()},X,{metric},{value}")
        hist.write_text("\n".join(lines) + "\n")
        out = tmp_path / "w"
        result = run("warn", "--history", hist, "--window", 10, "--threshold", 0.9,
                     "--x-days", 3, "--out", out)
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "warnings.json").read_text())
        assert len(doc["joint_events"]) == 1
        event = doc["joint_events"][0]
        assert event["metrics"] == ["vds", "sas"]
        assert event["date"] == (start + timedelta(days=11)).isoformat()
        buckets = {b["date"]: b["bucket"] for b in doc["buckets"]}
        assert buckets[event["date"]] == "tighten_risk"

    def test_no_inputs_exits_2(self, tmp_path):
        result = run("warn", "--out", tmp_path / "w")
        assert result.exit_code == 2

    def test_reports_as_history(self, tmp_path):
        # two dated reports from raw bars feed the warn pipeline
        def universe_for(day_offset: int, out_name: str) -> Path:
            d0 = date(2025, 3, 1) + timedelta(days=day_offset)
            rows = ["date,high,low,close,volume_usd,market_cap_usd"]
            # single-token VDS is scale-driven (self-normalized volatility is 1);
            # the later window has a thinner market, hence a higher score
            money = 4e9 if day_offset == 0 else 1e9
            for i in range(3):
                day = d0 + timedelta(days=i)
                rows.append(f"{day},110,90,100,{money},{money}")
            bars = tmp_path / f"{out_name}.csv"
            bars.write_text("\n".join(rows) + "\n")
            universe = tmp_path / f"{out_name}.json"
            universe.write_text(json.dumps(
                {"tokens": [{"id": "X", "role": "standalone", "bars": f"{out_name}.csv"}]}
            ))
            return universe

        reports = []
        for offset, name in ((0, "early"), (10, "late")):
            out = tmp_path / f"out_{name}"
            result = run("score", "--universe", universe_for(offset, name), "--out", out)
            assert result.exit_code == 0, result.output
            reports.append(out / "report.json")

        out = tmp_path / "w"
        result = run("warn", "--report", reports[0], "--report", reports[1],
                     "--window", 2, "--threshold", 0.5, "--out", out)
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "warnings.json").read_text())
        assert len(doc["flags"]) == 1  # the later, higher VDS observation


OUT_FILES = pytest.mark.parametrize("sub", ["afile", "afile/sub"], ids=["a file", "under a file"])


def file_out(tmp_path, sub):
    (tmp_path / "afile").write_text("kept\n")
    return tmp_path / sub


class TestOutThatIsNotADirectory:
    """An ``--out`` that is, or lies under, a file exits 2 naming it."""

    def assert_named(self, result, out, tmp_path):
        assert_clean_exit(result, 2)
        assert result.stderr.startswith(f"error: --out {out} cannot be made a directory: ")
        assert (tmp_path / "afile").read_text() == "kept\n"

    @OUT_FILES
    def test_score(self, tmp_path, sub):
        out = file_out(tmp_path, sub)
        result = run("score", "--universe", REFERENCE_DIR / "universe.json", "--out", out)
        self.assert_named(result, out, tmp_path)

    @OUT_FILES
    def test_warn(self, tmp_path, sub):
        out = file_out(tmp_path, sub)
        hist = tmp_path / "h.csv"
        write_history(hist, [float(i) for i in range(1, 121)])
        self.assert_named(run("warn", "--history", hist, "--out", out), out, tmp_path)

    @OUT_FILES
    def test_plot(self, tmp_path, sub):
        report = score_reference(tmp_path) / "report.json"
        out = file_out(tmp_path, sub)
        self.assert_named(run("plot", "--report", report, "--out", out), out, tmp_path)


def test_cli_import_leaves_fetch_only_modules_unloaded():
    # the CLI starts for every command; what only ``fetch`` uses is imported where it is used
    src = Path(me2f.__file__).resolve().parent.parent
    code = (f"import sys; sys.path.insert(0, {str(src)!r}); import me2f.cli; "
            "print(sorted({'hashlib', 'requests', 'email.utils'} & set(sys.modules)))")
    loaded = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            check=True).stdout
    assert loaded == "[]\n"


class TestDeterminism:
    def test_score_and_plot_byte_identical(self, tmp_path):
        out1 = score_reference(tmp_path, "run1", extra=("--format", "json,table,chart"))
        out2 = score_reference(tmp_path, "run2", extra=("--format", "json,table,chart"))
        for name in ("report.json", "report.txt", "vds.svg", "sas.svg", "vds.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

        charts1, charts2 = tmp_path / "p1", tmp_path / "p2"
        for charts in (charts1, charts2):
            result = run("plot", "--report", out1 / "report.json", "--out", charts)
            assert result.exit_code == 0
        for name in ("vds.svg", "sas.svg"):
            assert (charts1 / name).read_bytes() == (charts2 / name).read_bytes()


class TestBarsCsvRoundTrip:
    def test_serialized_bars_reload_identically(self, tmp_path):
        from me2f.cli import bars_to_csv
        from me2f.ingest import load_bars_csv
        from conftest import make_series

        series = make_series("X", highs=[110.25, 120.5], lows=[90.125, 100.0],
                             closes=[100.0, 110.1], volumes=[1.5e9, 2e9], mcaps=[3e9, 4e9])
        path = tmp_path / "x.csv"
        path.write_text(bars_to_csv(series))
        assert load_bars_csv(path, token_id="X") == series


# a local port that accepts nothing: a config that wrongly passes fails without leaving the host
PROVIDER = {"name": "prov", "base_url": "http://127.0.0.1:9",
            "fields": {name: name for name in BARS_HEADER}}
BAD_PROVIDER_CONFIGS = {
    "directory": None,
    "not UTF-8": "{\"name\": \"caf\xe9\"}".encode("latin-1"),
    "a list": b"[]",
    **{f"{key}={value!r}": json.dumps(PROVIDER | {key: value}).encode() for key, value in [
        ("rate_limit_per_minute", "abc"), ("timeout_seconds", "abc"), ("page_size", "abc"),
        ("page_size", 0), ("timeout_seconds", float("nan")), ("page_size", float("inf")),
        ("name", 5), ("base_url", None), ("query", {"page": 1}),
        ("path", "/b/{tok}"), ("path", "/b/{}"), ("path", "/b/{token!r}"),
        ("query", {"start": "{"}), ("query", {"end": "}"}), ("query", {"page": "{page:03}"}),
    ]},
}


class TestFetchCommand:
    def test_bad_date_exits_2(self, tmp_path):
        # Python 3.11's date.fromisoformat takes the last two; the loaders' rule does not.
        # The provider config does not exist: the dates are checked first.
        for bad in ["not-a-date", "2024W012", "20240103"]:
            for start, end in [(bad, "2024-01-02"), ("2024-01-01", bad)]:
                result = run("fetch", "--provider-config", tmp_path / "nope.json", "--token", "X",
                             "--start", start, "--end", end, "--cache-dir", tmp_path / "cache")
                assert_clean_exit(result, 2)
                assert repr(bad) in result.stderr

    def test_missing_provider_config_exits_2(self, tmp_path):
        result = run("fetch", "--provider-config", tmp_path / "nope.json", "--token", "X",
                     "--start", "2024-01-01", "--end", "2024-01-02",
                     "--cache-dir", tmp_path / "cache")
        assert result.exit_code == 2

    @pytest.mark.parametrize("content", BAD_PROVIDER_CONFIGS.values(), ids=list(BAD_PROVIDER_CONFIGS))
    def test_bad_provider_config_exits_2_naming_it(self, tmp_path, content):
        config = tmp_path / "provider.json"
        if content is None:
            config.mkdir()
        else:
            config.write_bytes(content)
        result = run("fetch", "--provider-config", config, "--token", "X",
                     "--start", "2024-01-01", "--end", "2024-01-02",
                     "--cache-dir", tmp_path / "cache")
        assert_clean_exit(result, 2)
        assert str(config) in result.stderr

    @pytest.mark.parametrize("failure", [requests.ConnectionError("Connection refused"),
                                         requests.Timeout()], ids=["connection", "timeout"])
    def test_unreachable_provider_exits_3_naming_it(self, tmp_path, monkeypatch, failure):
        monkeypatch.setattr(requests, "Session", lambda: FakeSession([], fail_first=[failure]))
        config = tmp_path / "provider.json"
        config.write_text(json.dumps(PROVIDER))
        result = run("fetch", "--provider-config", config, "--token", "X",
                     "--start", "2024-01-01", "--end", "2024-01-02",
                     "--cache-dir", tmp_path / "cache")
        assert_clean_exit(result, 3)
        assert result.stderr.startswith("error: prov: cannot reach http://127.0.0.1:9: ")

    def test_cache_dir_under_a_file_exits_2_before_any_request(self, tmp_path, monkeypatch):
        session = FakeSession([])
        monkeypatch.setattr(requests, "Session", lambda: session)
        config = tmp_path / "provider.json"
        config.write_text(json.dumps(PROVIDER))
        cache = config / "cache"
        result = run("fetch", "--provider-config", config, "--token", "X",
                     "--start", "2024-01-01", "--end", "2024-01-02", "--cache-dir", cache)
        assert_clean_exit(result, 2)
        assert result.stderr.startswith(f"error: cache directory {cache}")
        assert session.calls == []


class TestWarnInputErrors:
    def assert_one_line_error(self, result, code):
        assert result.exit_code == code, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1
        assert "Traceback" not in result.output

    @pytest.mark.parametrize("flag,value", [
        ("--threshold", 1.5), ("--threshold", 0), ("--x-days", -1), ("--window", 1),
    ])
    def test_bad_params_exit_2_before_loading(self, tmp_path, flag, value):
        # the history file does not exist: parameters are checked first
        result = run("warn", "--history", tmp_path / "missing.csv", flag, value,
                     "--out", tmp_path / "w")
        self.assert_one_line_error(result, 2)
        assert flag in result.stderr
        assert not (tmp_path / "w").exists()

    def test_negative_history_value_exits_3_naming_line(self, tmp_path):
        hist = tmp_path / "h.csv"
        write_history(hist, [1.0, 2.0, -0.5, 3.0])
        result = run("warn", "--history", hist, "--window", 2, "--out", tmp_path / "w")
        self.assert_one_line_error(result, 3)
        assert "line 4" in result.stderr and "'value'" in result.stderr

    @pytest.mark.parametrize("bad", [-0.25, "abc"])
    def test_bad_report_score_exits_3_naming_report_and_token(self, tmp_path, bad):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({
            "window": {"start": "2025-01-01", "end": "2025-01-03"},
            "tokens": [{"id": "PEPE", "raw": {"vds": bad, "wds": None, "sas": 0.1}}],
        }))
        result = run("warn", "--report", report, "--window", 2, "--out", tmp_path / "w")
        self.assert_one_line_error(result, 3)
        assert str(report) in result.stderr and "'PEPE'" in result.stderr

    def test_duplicate_history_row_exits_3_naming_line(self, tmp_path):
        hist = tmp_path / "h.csv"
        hist.write_text(
            "date,token,metric,value\n"
            "2025-01-01,X,vds,1.0\n"
            "2025-01-02,X,vds,2.0\n"
            "2025-01-01,Y,vds,1.0\n"
            "2025-01-02,X,vds,3.0\n"
        )
        result = run("warn", "--history", hist, "--window", 2, "--out", tmp_path / "w")
        self.assert_one_line_error(result, 3)
        assert "line 5" in result.stderr and "'X'" in result.stderr

    def test_duplicate_after_out_of_order_rows_names_line(self, tmp_path):
        hist = tmp_path / "h.csv"
        hist.write_text(
            "date,token,metric,value\n"
            "2025-01-03,X,vds,1.0\n"
            "2025-01-01,X,vds,2.0\n"
            "2025-01-02,X,vds,3.0\n"
            "2025-01-01,X,vds,4.0\n"
        )
        result = run("warn", "--history", hist, "--window", 2, "--out", tmp_path / "w")
        self.assert_one_line_error(result, 3)
        assert "line 5" in result.stderr

    def test_out_of_order_unique_rows_are_accepted(self, tmp_path):
        hist = tmp_path / "h.csv"
        hist.write_text(
            "date,token,metric,value\n"
            "2025-01-03,X,vds,3.0\n"
            "2025-01-01,X,vds,1.0\n"
            "2025-01-02,X,vds,2.0\n"
        )
        result = run("warn", "--history", hist, "--window", 2, "--threshold", 0.5,
                     "--out", tmp_path / "w")
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "w" / "warnings.json").read_text())
        assert [f["date"] for f in doc["flags"]] == ["2025-01-02", "2025-01-03"]

    def test_history_and_report_on_same_day_names_token_and_metric(self, tmp_path):
        hist = tmp_path / "h.csv"
        write_history(hist, [1.0, 2.0, 3.0], token="PEPE")
        report = tmp_path / "report.json"
        report.write_text(json.dumps({
            "window": {"start": "2025-01-01", "end": "2025-01-03"},
            "tokens": [{"id": "PEPE", "raw": {"vds": 0.5}}],
        }))
        result = run("warn", "--history", hist, "--report", report, "--window", 2,
                     "--out", tmp_path / "w")
        self.assert_one_line_error(result, 3)
        assert "PEPE vds" in result.stderr and "2025-01-03" in result.stderr


def assert_clean_exit(result, code):
    """Exit ``code`` with a one-line diagnostic on stderr and no traceback."""
    assert result.exit_code == code, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.stderr.count("\n") == 1
    assert "Traceback" not in result.output


VOL_HEADER = "token,avg_vol_pct,max_vol_pct,max_volume_busd,max_mcap_busd,chain_role,base\n"
FGI_HEADER = "token,f_bar,f_max,f_min,q_g_pct,q_f_pct,delta_f_max,delta_p_max_pct\n"
VOL_ROW = "A,5,40,10,20,standalone,\n"
FGI_ROW = "A,50,90,10,1,1,50,10\n"


def score_tables(tmp_path, vol_rows, fgi_rows=FGI_ROW):
    (tmp_path / "v.csv").write_text(VOL_HEADER + vol_rows)
    (tmp_path / "f.csv").write_text(FGI_HEADER + fgi_rows)
    universe = tmp_path / "u.json"
    universe.write_text(json.dumps({"volatility_table": "v.csv", "fgi_table": "f.csv"}))
    return run("score", "--universe", universe, "--out", tmp_path / "o")


class TestSummaryTableRowErrors:
    def test_average_above_maximum_volatility_exits_3(self, tmp_path):
        result = score_tables(tmp_path, VOL_ROW + "B,50,40,10,20,standalone,\n")
        assert_clean_exit(result, 3)
        assert "v.csv: line 3, column 'avg_vol_pct'" in result.stderr

    def test_fgi_mean_outside_its_range_exits_3(self, tmp_path):
        result = score_tables(tmp_path, VOL_ROW, FGI_ROW.replace("A,50,", "A,95,"))
        assert_clean_exit(result, 3)
        assert "f.csv: line 2, column 'f_bar'" in result.stderr

    def test_fgi_extreme_shares_above_one_exits_3(self, tmp_path):
        result = score_tables(tmp_path, VOL_ROW, "A,50,90,10,60,50,50,10\n")
        assert_clean_exit(result, 3)
        assert "f.csv: line 2, column 'q_g_pct'" in result.stderr

    def test_repeated_volatility_row_exits_3(self, tmp_path):
        # the first row would score with zero volume; a later row must not hide it
        result = score_tables(tmp_path, "A,5,40,0,20,standalone,\n" + VOL_ROW)
        assert_clean_exit(result, 3)
        assert "v.csv: line 3, column 'token'" in result.stderr and "'A'" in result.stderr

    @pytest.mark.parametrize("row,column", [
        ("A,5,40,-10,20,standalone,\n", "max_volume_busd"),
        ("A,5,40,10,-20,standalone,\n", "max_mcap_busd"),
    ])
    def test_negative_size_exits_3(self, tmp_path, row, column):
        result = score_tables(tmp_path, row)
        assert_clean_exit(result, 3)
        assert f"v.csv: line 2, column {column!r}" in result.stderr

    @pytest.mark.parametrize("row,column", [
        ("B,50,90,10,1,1,-1,10\n", "delta_f_max"),
        ("B,50,90,10,1,1,50,-10\n", "delta_p_max_pct"),
    ])
    def test_negative_fgi_move_exits_3(self, tmp_path, row, column):
        # beside a positive maximum, a negative move made the shock index negative and
        # K**delta complex
        result = score_tables(tmp_path, VOL_ROW + VOL_ROW.replace("A,", "B,"), FGI_ROW + row)
        assert_clean_exit(result, 3)
        assert f"f.csv: line 3, column {column!r}" in result.stderr

    def test_repeated_fgi_row_exits_3(self, tmp_path):
        result = score_tables(tmp_path, VOL_ROW, FGI_ROW + "\n" + FGI_ROW)
        assert_clean_exit(result, 3)
        assert "f.csv: line 4, column 'token'" in result.stderr


GOOD_REPORT = {
    "window": {"start": "2025-01-01", "end": "2025-01-03"},
    "tokens": [{"id": "PEPE", "raw": {"vds": 0.5}}],
}


class TestReportReadingErrors:
    @pytest.mark.parametrize("name,text", [
        ("not_json", "{not json"),
        ("bad_end", json.dumps({**GOOD_REPORT, "window": {"end": "2025-13-01"}})),
        # Python 3.11's date.fromisoformat takes these; the loaders' rule does not
        ("week_end", json.dumps({**GOOD_REPORT, "window": {"end": "2024W012"}})),
        ("basic_end", json.dumps({**GOOD_REPORT, "window": {"end": "20240103"}})),
        ("no_id", json.dumps({**GOOD_REPORT, "tokens": [{"raw": {"vds": 0.5}}]})),
    ])
    def test_warn_on_a_bad_report_exits_3_naming_it(self, tmp_path, name, text):
        report = tmp_path / f"{name}.json"
        report.write_text(text)
        result = run("warn", "--report", report, "--window", 2, "--out", tmp_path / "w")
        assert_clean_exit(result, 3)
        assert str(report) in result.stderr

    def test_plot_on_a_non_json_report_exits_3_naming_it(self, tmp_path):
        report = tmp_path / "report.json"
        report.write_text("{not json")
        result = run("plot", "--report", report, "--out", tmp_path / "c")
        assert_clean_exit(result, 3)
        assert str(report) in result.stderr

    @pytest.mark.parametrize("command", ["plot", "warn"])
    def test_report_that_is_a_directory_exits_3_naming_it(self, tmp_path, command):
        report = tmp_path / "report.json"
        report.mkdir()
        result = run(command, "--report", report, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        assert result.stderr.startswith(f"error: {report}: cannot read")

    # Token lists and scores both commands must refuse, as JSON text; before the
    # shared check, plot exited 4 on all but the last two and warn read `true` as 1.0.
    @pytest.mark.parametrize("tokens,named", [
        pytest.param('[{"vds": 0.5}]', "token entry 1", id="no_id"),
        pytest.param('[{"id": "PEPE", "vds": "0.5"}]', "'PEPE'", id="string_score"),
        pytest.param('{"PEPE": {"vds": 0.5}}', "'tokens'", id="tokens_object"),
        pytest.param('["PEPE"]', "token entry 1", id="tokens_strings"),
        pytest.param('[{"id": "PEPE", "vds": 1e400}]', "'PEPE'", id="float_overflow"),
        pytest.param('[{"id": "PEPE", "vds": 1' + "0" * 400 + '}]', "'PEPE'", id="int_overflow"),
        pytest.param('[{"id": "PEPE", "raw": {"vds": true}}]', "'PEPE'", id="bool_score"),
        pytest.param('[{"id": "PEPE", "sas": NaN}]', "'PEPE'", id="nan_score"),
        pytest.param('[{"id": "PEPE", "wds": -0.25}]', "'PEPE'", id="negative_score"),
    ])
    @pytest.mark.parametrize("command", ["plot", "warn"])
    def test_bad_report_tokens_exit_3_naming_file_and_token(self, tmp_path, command, tokens, named):
        report = tmp_path / "report.json"
        report.write_text('{"window": {"start": "2025-01-01", "end": "2025-01-03"}, '
                          f'"tokens": {tokens}}}')
        extra = ("--window", 2) if command == "warn" else ()
        result = run(command, "--report", report, *extra, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        assert result.stderr.startswith(f"error: {report}: ") and named in result.stderr

    def test_unexpected_exception_exits_4_without_traceback(self, tmp_path, monkeypatch):
        from me2f import ingest

        def explode(path, params):
            raise RuntimeError("boom")

        monkeypatch.setattr(ingest, "load_universe", explode)
        result = run("score", "--universe", REFERENCE_DIR / "universe.json",
                     "--out", tmp_path / "o")
        assert_clean_exit(result, 4)
        assert result.stderr == "internal error: RuntimeError: boom\n"


def write_universe(tmp_path, doc):
    universe = tmp_path / "u.json"
    universe.write_text(json.dumps(doc))
    return universe


class TestInputFileErrors:
    @pytest.mark.parametrize("case", [
        "missing_bars", "directory_bars", "latin1_bars", "missing_volatility_table",
        "missing_history",
    ])
    def test_unreadable_input_exits_3_naming_it(self, tmp_path, case):
        bad = tmp_path / "in.csv"
        if case == "directory_bars":
            bad.mkdir()
        elif case == "latin1_bars":
            bad.write_bytes("date,high,low,close,volume_usd,market_cap_usd\n# caf\xe9\n"
                            .encode("latin-1"))
        if case == "missing_history":
            args = ("warn", "--history", bad)
        else:
            doc = ({"volatility_table": "in.csv"} if case == "missing_volatility_table"
                   else {"tokens": [{"id": "X", "role": "standalone", "bars": "in.csv"}]})
            args = ("score", "--universe", write_universe(tmp_path, doc))
        result = run(*args, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        assert result.stderr.startswith(f"error: {bad}: cannot read")


class TestUniverseEntryErrors:
    @pytest.mark.parametrize("tokens,entry", [
        ([{"id": 5}], "token entry 1"),
        ([{"id": "X", "role": "standalone", "bars": 5}], "token 'X': 'bars'"),
        ([{"id": "X", "role": "standalone", "exclude_addresses": 5}],
         "token 'X': 'exclude_addresses'"),
        ([{"id": "", "role": "standalone"}], "token entry 1"),
        ([{"id": "X", "role": "standalone"}, {"id": "X", "role": "hosted", "base": "ETH"}],
         "token entry 2 repeats the id 'X'"),
        # the missing bars file is never read: the misspelt key is named first
        ([{"id": "DOGE", "role": "standalone", "bars": "missing.csv", "bar": "nope.csv"}],
         "token 'DOGE': unknown key 'bar'"),
    ])
    def test_bad_entry_exits_2_naming_file_and_entry(self, tmp_path, tokens, entry):
        universe = write_universe(tmp_path, {
            "volatility_table": str(REFERENCE_DIR / "reference_volatility.csv"),
            "tokens": tokens,
        })
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 2)
        assert f"universe file {universe}: {entry}" in result.stderr
        assert not (tmp_path / "o").exists()

    def test_unknown_top_level_key_exits_2_naming_it(self, tmp_path):
        universe = write_universe(tmp_path, {"tokens": [], "volatility_tabel": "missing.csv"})
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 2)
        assert f"universe file {universe}: unknown key 'volatility_tabel'" in result.stderr

    @pytest.mark.parametrize("case", ["directory", "latin1"])
    def test_unreadable_universe_exits_2_naming_it(self, tmp_path, case):
        universe = tmp_path / "u.json"
        if case == "directory":
            universe.mkdir()
        else:
            universe.write_bytes('{"tokens": [{"id": "caf\xe9"}]}'.encode("latin-1"))
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 2)
        assert result.stderr.startswith(f"error: universe file {universe}: cannot read")

    def test_token_in_tables_and_files_scores_from_its_files(self, tmp_path):
        # A token with both table rows and raw files scores as if the rows were absent.
        doge_bars = tmp_path / "doge.csv"
        doge_bars.write_text("date,high,low,close,volume_usd,market_cap_usd\n"
                             "2024-01-01,0.11,0.09,0.10,2e9,1.4e10\n"
                             "2024-01-02,0.12,0.08,0.11,3e9,1.5e10\n"
                             "2024-01-03,0.13,0.10,0.12,1e9,1.6e10\n")
        doge_fgi = tmp_path / "doge_fgi.csv"
        doge_fgi.write_text("date,fgi,abs_return\n2024-01-01,30,\n2024-01-02,85,0.1\n"
                            "2024-01-03,10,0.09\n")
        entry = {"id": "DOGE", "role": "standalone", "bars": "doge.csv",
                 "sentiment": "doge_fgi.csv"}
        reports = []
        for name, keep in (("both", lambda line: True),
                           ("files", lambda line: not line.startswith("DOGE,"))):
            for table in ("reference_volatility.csv", "reference_fgi.csv"):
                lines = (REFERENCE_DIR / table).read_text().splitlines(keepends=True)
                (tmp_path / f"{name}_{table}").write_text("".join(filter(keep, lines)))
            universe = tmp_path / f"{name}.json"
            universe.write_text(json.dumps({
                "volatility_table": f"{name}_reference_volatility.csv",
                "fgi_table": f"{name}_reference_fgi.csv",
                "tokens": [entry],
            }))
            out = tmp_path / name
            result = run("score", "--universe", universe, "--out", out)
            assert result.exit_code == 0, result.output
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        doge = next(t for t in json.loads(reports[0])["tokens"] if t["id"] == "DOGE")
        assert doge["window"] == {"start": "2024-01-01", "end": "2024-01-03"}
        assert doge["inputs"]["fgi"]["r_f"] == 75.0


# Every scalar slot of both report schemas takes any JSON scalar: the writers
# encode by type, not by slot.
SCALARS = st.one_of(
    st.none(), st.booleans(),
    st.floats(),  # -0.0, subnormals, nan and +-inf included
    st.sampled_from([-0.0, 5e-324, 2.2e-308, 1e16, 1.5e300, math.nan, math.inf, -math.inf]),
    st.integers(), st.integers(min_value=-2**200, max_value=2**200),
    st.text(),  # non-ASCII, control and astral-plane characters included
    st.text(alphabet='"\\\x00\x1f\x7f\u2028\xe9\U0001f600/'),
)


def objects(fields: dict):
    """Objects with these keys in this order (``fixed_dictionaries`` may reorder them)."""
    return st.fixed_dictionaries(fields).map(lambda obj: {key: obj[key] for key in fields})


def scalars(*keys):
    return objects({key: SCALARS for key in keys})


def scalar_lists():
    return st.lists(SCALARS, max_size=3)


WINDOWS = st.none() | scalars("start", "end")
TOKENS = objects({
    "id": SCALARS,
    "role": scalars("kind") | scalars("kind", "base"),
    "vds": SCALARS, "wds": SCALARS, "sas": SCALARS,
    "raw": scalars("vds", "wds", "sas"),
    "inputs": objects({
        "volatility": st.none() | scalars("avg_vol_pct", "max_vol_pct", "max_volume", "max_mcap"),
        "concentration": st.none() | scalars("top_share_pct", "hhi", "internal"),
        "fgi": st.none() | scalars("f_bar", "f_max", "f_min", "r_f", "q_g_pct", "q_f_pct",
                                   "delta_f_max", "delta_p_max_pct"),
    }),
    "window": WINDOWS,
    "warnings": scalar_lists(),
})
SCORE_DOCS = objects({
    "params": scalars("alpha", "beta", "gamma", "delta", "n", "scale_unit"),
    "window": WINDOWS,
    "tokens": st.lists(TOKENS, max_size=3),
    "warnings": scalar_lists(),
})
WARN_DOCS = objects({
    "params": scalars("window_days", "threshold", "x_days"),
    "warnings": scalar_lists(),
    "flags": st.lists(scalars("token", "metric", "date", "value", "window_percentile"),
                      max_size=3),
    "joint_events": st.lists(objects(
        {"token": SCALARS, "date": SCALARS, "metrics": scalar_lists()}), max_size=3),
    "buckets": st.lists(objects(
        {"token": SCALARS, "date": SCALARS, "bucket": SCALARS, "metrics": scalar_lists()}),
        max_size=3),
})
EDGE_TOKEN = {
    "id": "\u00e9\"\\\n\U0001f600", "role": {"kind": "standalone"},
    "vds": -0.0, "wds": None, "sas": math.nan,
    "raw": {"vds": 5e-324, "wds": math.inf, "sas": -math.inf},
    "inputs": {"volatility": None, "concentration": None, "fgi": None},
    "window": None, "warnings": [],
}


# Every token shape: standalone or hosted, each of volatility, concentration,
# fgi and window present or null, and warnings empty or not.
TOKEN_SHAPES = list(product((False, True), repeat=6))
SHAPE_IDS = ["+".join(name for name, here in zip(
    ("hosted", "volatility", "concentration", "fgi", "window", "warnings"), shape) if here) or "bare"
    for shape in TOKEN_SHAPES]


def shaped_report(hosted, volatility, concentration, fgi, window, warned) -> dict:
    """A score document of one token of this shape, every scalar a distinct float."""
    values = (n / 8 for n in count(1))

    def section(here, *keys):
        return {key: next(values) for key in keys} if here else None

    token = {
        "id": "T", "role": {"kind": "hosted", "base": "B"} if hosted else {"kind": "standalone"},
        "vds": next(values), "wds": None, "sas": 3, "raw": section(True, "vds", "wds", "sas"),
        "inputs": {
            "volatility": section(volatility, "avg_vol_pct", "max_vol_pct", "max_volume",
                                  "max_mcap"),
            "concentration": section(concentration, "top_share_pct", "hhi", "internal"),
            "fgi": section(fgi, "f_bar", "f_max", "f_min", "r_f", "q_g_pct", "q_f_pct",
                           "delta_f_max", "delta_p_max_pct"),
        },
        "window": section(window, "start", "end"),
        "warnings": ["first", "second"] if warned else [],
    }
    params = dict.fromkeys(("alpha", "beta", "gamma", "delta", "n", "scale_unit"), 1.0)
    return {"params": params, "window": None, "tokens": [token], "warnings": []}


def warn_doc(flags=(), events=(), buckets=()) -> dict:
    """A warn document; ``flags`` are (value, window_percentile), ``events``
    and ``buckets`` their metrics lists."""
    return {
        "params": {"window_days": 90, "threshold": 0.9, "x_days": 3},
        "warnings": [],
        "flags": [{"token": f"F{i}", "metric": "vds", "date": "2024-01-01", "value": value,
                   "window_percentile": percentile} for i, (value, percentile) in enumerate(flags)],
        "joint_events": [{"token": f"E{i}", "date": "2024-01-02", "metrics": list(metrics)}
                         for i, metrics in enumerate(events)],
        "buckets": [{"token": f"B{i}", "date": "2024-01-03", "bucket": "governance_watch",
                     "metrics": list(metrics)} for i, metrics in enumerate(buckets)],
    }


# Values that compare equal but encode differently sit side by side, so a
# writer that shares rendered text between equal values shows.
EQUAL_METRICS = [[1], [True], [1.0], [1, True, 1.0], [True], [1]]
WARN_CASES = {
    "all arrays empty": warn_doc(),
    "equal metrics side by side": warn_doc(events=EQUAL_METRICS, buckets=EQUAL_METRICS),
    "empty metrics": warn_doc(events=[[], ["vds"], [], []], buckets=[[], [], ["wds", "sas"], []]),
    "only empty metrics": warn_doc(events=[[]], buckets=[[], []]),
    "one flag": warn_doc(flags=[(0.5, 0.9)]),
    "non-finite flags": warn_doc(flags=[(math.nan, 0.9), (math.inf, math.nan), (-math.inf, math.inf),
                                        (1.0, -math.inf)]),
}


class TestJsonWriters:
    """``_dumps`` writes the bytes of ``json.dumps(doc, indent=2)`` plus a newline."""

    @pytest.mark.parametrize("doc", WARN_CASES.values(), ids=list(WARN_CASES))
    def test_warn_cases_match_json_dumps(self, doc):
        assert _dumps(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("array", ["flags", "joint_events", "buckets"])
    def test_unencodable_warn_values_raise_jsons_error(self, array):
        doc = warn_doc(flags=[(1.0, 0.9)] * 2, events=[["vds", "sas"]] * 2,
                       buckets=[["wds"]] * 2)
        for item in doc[array]:
            for key, value in item.items():  # each scalar, and each item of a metrics list
                places = [(value, i) for i in range(len(value))] if key == "metrics" else [(item, key)]
                for holder, at in places:
                    kept = holder[at]
                    holder[at] = object()
                    with pytest.raises(TypeError) as ours:
                        _dumps(doc)
                    with pytest.raises(TypeError) as theirs:
                        json.dumps(doc, indent=2)
                    assert str(ours.value) == str(theirs.value)
                    holder[at] = kept
        assert _dumps(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("shape", TOKEN_SHAPES, ids=SHAPE_IDS)
    def test_every_token_shape_matches_json_dumps(self, shape):
        doc = shaped_report(*shape)
        assert _dumps(doc) == json.dumps(doc, indent=2) + "\n"
        token = doc["tokens"][0]
        nested = [token["role"], token["raw"], *filter(None, token["inputs"].values()),
                  token["window"], token["warnings"]]
        for section in filter(None, nested):
            for key in (range(len(section)) if isinstance(section, list) else list(section)):
                kept = section[key]
                for value in (math.nan, math.inf, -math.inf):
                    section[key] = value
                    assert _dumps(doc) == json.dumps(doc, indent=2) + "\n"
                section[key] = object()
                with pytest.raises(TypeError) as ours:
                    _dumps(doc)
                with pytest.raises(TypeError) as theirs:
                    json.dumps(doc, indent=2)
                assert str(ours.value) == str(theirs.value)
                section[key] = kept

    @settings(derandomize=True, max_examples=300)
    @given(doc=SCORE_DOCS | WARN_DOCS)
    @example(doc={"params": {k: None for k in ("alpha", "beta", "gamma", "delta", "n",
                                               "scale_unit")},
                  "window": None, "tokens": [], "warnings": []})
    @example(doc={"params": {"alpha": 1e16, "beta": 10**30, "gamma": 0, "delta": True,
                             "n": -(2**64), "scale_unit": 1e-320},
                  "window": None, "tokens": [EDGE_TOKEN], "warnings": ["\x00"]})
    @example(doc={"params": {"window_days": 90, "threshold": 0.9, "x_days": 3},
                  "warnings": [], "flags": [], "joint_events": [], "buckets": []})
    def test_matches_json_dumps(self, doc):
        assert _dumps(doc) == json.dumps(doc, indent=2) + "\n"

    def test_matches_json_dumps_on_a_scored_report(self, reference_inputs):
        # the writers' key lists agree with report_to_dict's, every section present
        inputs = dict(reference_inputs)
        inputs["DOGE"] = replace(inputs["DOGE"], holders=HolderSnapshot("DOGE", (0.5, 0.1)),
                                 series=random_series(random.Random(0), "DOGE"))
        params = FrameworkParams()
        doc = report_to_dict(score_universe(build_context(inputs, params)))
        doge = next(t for t in doc["tokens"] if t["id"] == "DOGE")
        assert doge["window"] and doge["inputs"]["concentration"]
        assert any(t["role"]["kind"] == "hosted" for t in doc["tokens"])
        assert _dumps(doc) == json.dumps(doc, indent=2) + "\n"

    def test_unknown_documents_and_scalars_are_rejected(self):
        with pytest.raises(TypeError, match="no JSON writer"):
            _dumps({"tokens": []})
        doc = {"params": {"window_days": 90, "threshold": 0.9, "x_days": 3}, "warnings": [object()],
               "flags": [], "joint_events": [], "buckets": []}
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            _dumps(doc)
