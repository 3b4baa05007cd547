"""Command-line behavior: files written, exit codes, determinism."""
from __future__ import annotations

import csv
import gc
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from datetime import date, timedelta
from itertools import count, product
from pathlib import Path
from xml.dom import minidom

import pytest
import requests
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    EXPECTED_SAS,
    EXPECTED_VDS,
    GOLDEN_DIR,
    REFERENCE_DIR,
    FakeSession,
    loaded_modules,
    random_series,
    write_date_major_history,
    write_raw_universe,
    write_tables_universe,
)
import me2f
from me2f import FrameworkParams, HolderSnapshot, build_context, score_universe, whale
from me2f.cli import _dumps, main, report_to_dict
from me2f.errors import InvalidSummary
from me2f.ingest import BARS_HEADER, load_universe
from me2f.volatility import aggregate

runner = CliRunner()


MAX_FLOAT = sys.float_info.max


def refuse_constant(constant):
    """A ``parse_constant`` for ``json.loads``, which takes NaN and Infinity, not JSON, unless refused."""
    raise AssertionError(f"the report holds {constant}")


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

    @pytest.mark.parametrize("formats", ["", ","])
    def test_format_naming_no_output_exits_2(self, tmp_path, formats):
        result = run("score", "--universe", REFERENCE_DIR / "universe.json",
                     "--out", tmp_path / "o", "--format", formats)
        assert_clean_exit(result, 2)
        assert result.stderr == (f"error: --format {formats!r} names no output format; "
                                 "choose from json, table, chart\n")
        assert not (tmp_path / "o").exists()

    def test_malformed_data_exits_3(self, tmp_path):
        bars = tmp_path / "x.csv"
        bars.write_text("date,high,low,close,volume_usd,market_cap_usd\n2024-01-01,90,110,100,1,1\n")
        universe = tmp_path / "u.json"
        universe.write_text(json.dumps({"tokens": [{"id": "X", "role": "standalone", "bars": "x.csv"}]}))
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert result.exit_code == 3

    @pytest.mark.parametrize("short", [("bars",), ("sentiment",), ("bars", "sentiment")],
                             ids=["bars", "sentiment", "both"])
    def test_short_file_exits_3_naming_it(self, tmp_path, short):
        universe = write_raw_universe(tmp_path, 1, 3)
        files = {kind: tmp_path / f"R0000_{kind}.csv" for kind in short}
        for path in files.values():  # the header and one row
            path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))
        named = short[0]  # with both short, the bars are reduced first
        what = {"bars": "bars", "sentiment": "sentiment points"}[named]
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        assert result.stderr == f"error: {files[named]}: R0000: need >= 2 {what}, got 1\n"

    def test_a_summary_that_breaks_its_rules_names_the_file_it_came_from(self, tmp_path):
        universe = write_raw_universe(tmp_path, 1, 3)  # bars, sentiment and holders
        bars = tmp_path / "R0000_bars.csv"
        bars.write_text("date,high,low,close,volume_usd,market_cap_usd\n"
                        "2024-01-01,1e-300,1e-300,1e-300,1,1\n2024-01-02,1e308,1e-300,1e-300,1,1\n")
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        assert result.stderr == f"error: {bars}: R0000: avg_vol=inf is not finite\n"

    @pytest.mark.parametrize("kind, rows, key, mean", [
        ("bars", "date,high,low,close,volume_usd,market_cap_usd\n"
         + "".join(f"2024-01-0{day},1.3,1,1,1e9,1e10\n" for day in range(1, 9)),
         "volatility", ("avg_vol_pct", 30.0)),
        ("sentiment", "date,fgi,abs_return\n"
         + "".join(f"2024-01-0{day},12.34,\n" for day in range(1, 4)), "fgi", ("f_bar", 12.34)),
    ], ids=["bars", "sentiment"])
    def test_a_constant_column_whose_mean_rounds_past_it_scores(self, tmp_path, kind, rows, key, mean):
        (tmp_path / "a.csv").write_text(rows)
        universe = tmp_path / "u.json"
        universe.write_text(json.dumps({"tokens": [{"id": "A", "role": "standalone", kind: "a.csv"}]}))
        result = run("score", "--universe", universe, "--out", tmp_path / "o", "--format", "json")
        assert result.exit_code == 0, result.output
        (token,) = json.loads((tmp_path / "o" / "report.json").read_text())["tokens"]
        name, value = mean
        assert token["inputs"][key][name] == value

    def test_days_whose_sum_overflows_score(self, tmp_path):
        # math.fsum of the days (100 of 1e306, 100 of 1.5e306) overflows; their mean is a float
        (tmp_path / "a.csv").write_text("date,high,low,close,volume_usd,market_cap_usd\n"
                                        + "".join(f"{date(2024, 1, 1) + timedelta(day)},"
                                                  f"{1e306 if day <= 100 else 1.5e306},1,1,1,1\n"
                                                  for day in range(201)))
        universe = tmp_path / "u.json"
        universe.write_text(json.dumps({"tokens": [{"id": "A", "role": "standalone", "bars": "a.csv"}]}))
        result = run("score", "--universe", universe, "--out", tmp_path / "o", "--format", "json")
        assert result.exit_code == 0, result.output
        (token,) = json.loads((tmp_path / "o" / "report.json").read_text(),
                              parse_constant=refuse_constant)["tokens"]
        assert token["vds"] is not None
        assert token["inputs"]["volatility"]["avg_vol_pct"] == 1.25e308
        assert load_universe(universe, FrameworkParams())["A"].volatility.avg_vol == 1.25e306

    # each exited 0 and wrote the percentage as Infinity, which is not JSON
    @pytest.mark.parametrize("kind, rows, message", [
        ("bars", "date,high,low,close,volume_usd,market_cap_usd\n"
         "2024-01-01,1,1,1,1,1\n2024-01-02,1.5e308,1,1,1,1\n",
         "A: max_vol=1.5e+308 overflows as a percentage"),
        ("sentiment", "date,fgi,abs_return\n2024-01-01,50,\n2024-01-02,60,1e308\n",
         "A: delta_p_max=1e+308 overflows as a percentage"),
    ], ids=["bars", "sentiment"])
    def test_a_percentage_past_the_float_range_names_its_file(self, tmp_path, kind, rows, message):
        (tmp_path / "a.csv").write_text(rows)
        universe = tmp_path / "u.json"
        universe.write_text(json.dumps({"tokens": [{"id": "A", "role": "standalone", kind: "a.csv"}]}))
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        assert result.stderr == f"error: {tmp_path / 'a.csv'}: {message}\n"

    def test_bad_holders_file_is_reported_before_a_short_bars_file(self, tmp_path):
        # a token's files are all read before any is reduced, in the order bars, holders, sentiment
        universe = write_raw_universe(tmp_path, 1, 3)
        bars, holders = tmp_path / "R0000_bars.csv", tmp_path / "R0000_holders.csv"
        bars.write_text("".join(bars.read_text().splitlines(keepends=True)[:2]))  # one row
        holders.write_text("rank,share\n1,oops\n")
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        assert result.stderr == f"error: {holders}: line 2, column 'share': not a number: 'oops'\n"

    def test_every_holder_row_excluded_exits_3_saying_so(self, tmp_path):
        (tmp_path / "h.csv").write_text("address,share\n0xa,0.4\n0xb,0.1\n")
        universe = tmp_path / "u.json"
        universe.write_text(json.dumps({"tokens": [{"id": "A", "role": "standalone", "holders": "h.csv",
                                                    "exclude_addresses": ["0xb", "0xa"]}]}))
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        assert result.stderr == f"error: {tmp_path / 'h.csv'}: every row is excluded by exclude_addresses\n"

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

    @staticmethod
    def scale_universe(tmp_path, bars=True, table=True, volume="2"):
        """A from bars and B from a table row, with the same volatilities and the
        same maxima (2 and 5 USD billions), or one of them; the universe file.
        ``volume`` is B's max_volume_busd cell."""
        (tmp_path / "a.csv").write_text("date,high,low,close,volume_usd,market_cap_usd\n"
                                        "2024-01-01,100,100,100,1e9,5e9\n"
                                        "2024-01-02,125,100,100,2e9,4e9\n"
                                        "2024-01-03,150,100,100,1e9,3e9\n")
        (tmp_path / "v.csv").write_text(VOL_HEADER + f"B,37.5,50,{volume},5,standalone,\n")
        return write_universe(tmp_path, {
            **({"volatility_table": "v.csv"} if table else {}),
            "tokens": [{"id": "A", "role": "standalone", "bars": "a.csv"}] if bars else [],
        })

    @pytest.mark.parametrize("unit", [None, 1e6, 1e-290], ids=["default", "1e6", "1e-290"])
    def test_scale_unit_scales_table_sizes_as_bar_sizes(self, tmp_path, unit):
        # before, --scale-unit divided only A's sizes
        result = run("score", "--universe", self.scale_universe(tmp_path), "--out", tmp_path / "o",
                     *(("--scale-unit", unit) if unit else ()))
        assert result.exit_code == 0, result.output
        a, b = json.loads((tmp_path / "o" / "report.json").read_text())["tokens"]
        assert (a["id"], b["id"]) == ("A", "B")
        assert a["inputs"]["volatility"] == b["inputs"]["volatility"]
        assert a["raw"]["vds"] == b["raw"]["vds"]

    # each exited 3 blaming the data: "B: max_volume=inf is not finite"
    @pytest.mark.parametrize("bars, table, token", [(False, True, "B"), (True, False, "A")],
                             ids=["table only", "bars only"])
    def test_scale_unit_that_overflows_a_size_exits_2(self, tmp_path, bars, table, token):
        result = run("score", "--universe", self.scale_universe(tmp_path, bars, table),
                     "--out", tmp_path / "o", "--scale-unit", 1e-300)
        assert_clean_exit(result, 2)
        assert result.stderr == (f"error: {token}: max_volume of 2000000000.0 USD overflows "
                                 "in units of scale_unit=1e-300\n")
        assert not (tmp_path / "o").exists()

    # a size whose USD figure (1e309) is past the float range exited 2 blaming
    # "max_volume of inf USD", though 1e299 or 1e301 units are finite
    @pytest.mark.parametrize("unit, size", [(1e10, 1e299), (1e8, 1e301)])
    def test_table_size_past_the_float_range_in_usd_converts(self, tmp_path, unit, size):
        result = run("score", "--universe", self.scale_universe(tmp_path, False, True, "1e300"),
                     "--out", tmp_path / "o", "--scale-unit", unit)
        assert result.exit_code == 0, result.output
        (b,) = json.loads((tmp_path / "o" / "report.json").read_text())["tokens"]
        assert b["inputs"]["volatility"]["max_volume"] == pytest.approx(size, rel=1e-15)

    def test_table_size_that_overflows_names_the_tables_figure(self, tmp_path):
        result = run("score", "--universe", self.scale_universe(tmp_path, False, True, "1e300"),
                     "--out", tmp_path / "o", "--scale-unit", 1e-300)
        assert_clean_exit(result, 2)
        assert result.stderr == ("error: B: max_volume of 1e+300 billion USD overflows "
                                 "in units of scale_unit=1e-300\n")
        assert not (tmp_path / "o").exists()

    # a spillover past the float range wrote Infinity (NaN with a huge gamma)
    # for each hosted token's vds, and the chart then exited 4
    @pytest.mark.parametrize("extra", [("--beta", MAX_FLOAT), ("--beta", MAX_FLOAT, "--gamma", MAX_FLOAT)],
                             ids=["beta", "beta and gamma"])
    def test_vds_past_the_float_range_is_a_warning_naming_beta(self, tmp_path, extra):
        out = score_reference(tmp_path, extra=("--format", "json,table,chart", *extra))
        doc = json.loads((out / "report.json").read_text(), parse_constant=refuse_constant)
        hosted = [t for t in doc["tokens"] if t["role"]["kind"] != "standalone"]
        assert hosted
        for token in hosted:
            assert token["vds"] is None and token["raw"]["vds"] is None
            assert token["warnings"] == [f"vds failed: {token['id']}: VDS overflows with beta={MAX_FLOAT!r}"]
        assert "inf" not in (out / "report.txt").read_text()
        result = run("plot", "--report", out / "report.json", "--out", tmp_path / "c")
        assert result.exit_code == 0, result.output


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

    def test_chart_text_and_sidecar_fields_are_escaped(self, tmp_path):
        ids = ["A<&B>", 'C,"D"', "E\r\nF", "G"]
        doc = {"tokens": [{"id": tid, "vds": 0.5 - i / 10, "wds": None, "sas": None}
                          for i, tid in enumerate(ids)]}
        report = tmp_path / "r.json"
        report.write_text(json.dumps(doc))
        result = run("plot", "--report", report, "--out", tmp_path / "c")
        assert result.exit_code == 0, result.output
        texts = minidom.parse(str(tmp_path / "c" / "vds.svg")).getElementsByTagName("text")
        labels = [t.firstChild.data for t in texts]  # the title, 5 ticks, then value and id per bar
        assert labels[0] == "VDS"
        assert labels[7::2] == [tid.replace("\r\n", "\n") for tid in ids]  # XML reads CR LF as LF
        with open(tmp_path / "c" / "vds.csv", newline="", encoding="utf-8") as sidecar:
            assert list(csv.reader(sidecar)) == [["token", "value"]] + [
                [tid, repr(0.5 - i / 10)] for i, tid in enumerate(ids)]

    # 5e-324 exited 4 dividing by a zero axis top, 1e-320 drew its bar above
    # the top gridline, and 1.7e308 wrote nan and inf coordinates
    @pytest.mark.parametrize("value", [5e-324, 1e-320, 1.7e308, MAX_FLOAT])
    def test_extreme_scores_fit_the_axis(self, tmp_path, value):
        report = tmp_path / "r.json"
        report.write_text(json.dumps({"tokens": [{"id": "A", "vds": value, "wds": None, "sas": None}]}))
        result = run("plot", "--report", report, "--out", tmp_path / "c")
        assert result.exit_code == 0, result.output
        svg = (tmp_path / "c" / "vds.svg").read_text()
        assert "nan" not in svg and "inf" not in svg
        rects = minidom.parseString(svg).getElementsByTagName("rect")[1:]  # the bars, after the background
        assert [float(bar.getAttribute("y")) for bar in rects] == [44.0]  # the top margin


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

    @pytest.mark.parametrize("window", [2**63 - 2, 2**63 - 1, 2**63])
    def test_a_window_beyond_every_series_exits_0_with_no_flags(self, tmp_path, window):
        hist = tmp_path / "h.csv"
        write_history(hist, [float(i) for i in range(1, 121)])
        out = tmp_path / "w"
        result = run("warn", "--history", hist, "--window", window, "--out", out)
        assert result.exit_code == 0, result.output
        assert result.stderr == f"0 flag(s), 0 joint event(s) -> {out / 'warnings.json'}\n"
        assert json.loads((out / "warnings.json").read_text())["params"]["window_days"] == window

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


GOLDEN_SCORE = ("score", "--universe", GOLDEN_DIR / "universe.json", "--format", "json,table,chart")
GOLDEN_SCORE_PARAMS = ("score", "--universe", GOLDEN_DIR / "universe.json", "--n", 2,
                       "--scale-unit", "1e6", "--format", "json,table")
GOLDEN_WARN = ("warn", "--history", GOLDEN_DIR / "history.csv", "--window", 3,
               "--threshold", 0.6, "--x-days", 1)


LAZY = {"me2f.remote": "MarketDataClient", "me2f.charts": "bar_chart_svg"}  # and a name each defines


def lazy_code(modules: dict[str, set[str]]) -> set[str]:
    """The ``LAZY`` modules whose code is among ``modules``: loaded, or defined in another."""
    return {module for module, name in LAZY.items()
            if module in modules or any(name in names for names in modules.values())}


def test_cli_import_leaves_fetch_only_modules_unloaded():
    # the CLI starts for every command; what only ``fetch`` or a chart uses is imported where it is used
    modules = loaded_modules("import me2f.cli")
    assert {"hashlib", "requests", "email.utils"} & modules.keys() == set()
    assert lazy_code(modules) == set()


def test_report_import_loads_no_click_chart_or_fetch_code():
    # a library caller writes the CLI's report bytes without click installed
    modules = loaded_modules("import me2f.report")
    assert "click" not in modules
    assert lazy_code(modules) == set()


def command_code(*args) -> set[str]:
    """The ``LAZY`` modules whose code a fresh interpreter loads to run the CLI with ``args``."""
    return lazy_code(loaded_modules(f"from me2f.cli import main; main({list(map(str, args))!r}, "
                                    "standalone_mode=False)"))


@pytest.mark.parametrize("command", [
    ("score", "--universe", REFERENCE_DIR / "universe.json", "--format", "json,table"), GOLDEN_WARN,
], ids=["score", "warn"])
def test_score_and_warn_load_no_fetch_or_chart_code(tmp_path, command):
    assert command_code(*command, "--out", tmp_path) == set()


@pytest.mark.parametrize("command", [
    ("score", "--universe", REFERENCE_DIR / "universe.json", "--format", "chart"),
    ("plot", "--report", GOLDEN_DIR / "score" / "report.json"),
], ids=["score", "plot"])
def test_charts_load_the_chart_code_alone(tmp_path, command):
    assert command_code(*command, "--out", tmp_path) == {"me2f.charts"}


class TestGoldenOutputs:
    """Every output file equals its recorded bytes. The universe holds hosted
    and standalone tokens, each of volatility, concentration, fgi and window
    present and absent, a per-token and a report-level warning, and an id
    that JSON, the table, SVG and CSV each escape; the history gives flags,
    joint events and buckets of one and of two metrics."""

    def assert_golden(self, out: Path, expected: Path):
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in expected.iterdir())
        for path in expected.iterdir():
            assert (out / path.name).read_bytes() == path.read_bytes(), path.name

    def test_score(self, tmp_path):
        result = run(*GOLDEN_SCORE, "--out", tmp_path)
        assert result.exit_code == 0, result.output
        self.assert_golden(tmp_path, GOLDEN_DIR / "score")

    def test_score_with_params(self, tmp_path):
        # --n 2 reads each snapshot's top two shares; --scale-unit converts bar and table sizes
        result = run(*GOLDEN_SCORE_PARAMS, "--out", tmp_path)
        assert result.exit_code == 0, result.output
        self.assert_golden(tmp_path, GOLDEN_DIR / "score_params")

    def test_warn(self, tmp_path):
        result = run(*GOLDEN_WARN, "--out", tmp_path)
        assert result.exit_code == 0, result.output
        self.assert_golden(tmp_path, GOLDEN_DIR / "warn")

    def test_plot(self, tmp_path):
        result = run("plot", "--report", GOLDEN_DIR / "score" / "report.json", "--out", tmp_path)
        assert result.exit_code == 0, result.output
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"{metric}.{ext}" for metric in ("sas", "vds", "wds") for ext in ("csv", "svg")]
        for path in tmp_path.iterdir():
            assert path.read_bytes() == (GOLDEN_DIR / "score" / path.name).read_bytes(), path.name

    def test_the_library_writes_them_without_click(self):
        # the same bytes through ``report`` and ``charts`` alone, on any interpreter: see the script
        script = Path(__file__).resolve().parent / "golden_stdlib.py"
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stdout + done.stderr


def invoke(*args) -> int:
    """Run the CLI in this process as a caller of ``main`` does, without
    CliRunner's wrappers (which may make reference cycles of their own); the exit code."""
    try:
        main.main(args=[str(a) for a in args], prog_name="me2f")
    except SystemExit as exc:
        return exc.code or 0
    return 0


class TestCollectorPolicy:
    """A command runs with the cyclic garbage collector paused, and gives the
    caller's state back on every exit; the library never touches it."""

    @pytest.mark.parametrize("command", [GOLDEN_SCORE, GOLDEN_WARN], ids=["score", "warn"])
    def test_paused_while_the_command_runs(self, tmp_path, monkeypatch, command):
        from me2f import ingest

        seen, write_files = [], ingest.write_files

        def probe(*args):
            seen.append(gc.isenabled())
            return write_files(*args)

        monkeypatch.setattr(ingest, "write_files", probe)
        assert invoke(*command, "--out", tmp_path) == 0
        assert seen == [False]
        assert gc.isenabled()

    def test_back_on_after_every_exit_code(self, tmp_path, monkeypatch):
        from me2f import ingest

        bad_history = tmp_path / "h.csv"
        write_history(bad_history, [1.0, -1.0])
        assert invoke(*GOLDEN_SCORE, "--out", tmp_path / "0") == 0
        assert gc.isenabled()
        assert invoke("score", "--universe", tmp_path / "missing.json", "--out", tmp_path / "2") == 2
        assert gc.isenabled()
        assert invoke("warn", "--history", bad_history, "--out", tmp_path / "3") == 3
        assert gc.isenabled()

        def explode(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(ingest, "write_files", explode)
        assert invoke(*GOLDEN_SCORE, "--out", tmp_path / "4") == 4
        assert gc.isenabled()

    @pytest.mark.parametrize("command", [GOLDEN_SCORE, GOLDEN_WARN], ids=["score", "warn"])
    def test_a_paused_caller_stays_paused_and_the_command_leaves_no_cycles(self, tmp_path, command):
        gc.disable()
        try:
            gc.collect()
            assert invoke(*command, "--out", tmp_path) == 0
            assert not gc.isenabled()
            assert gc.collect() == 0  # so the one collection at the end frees nothing of the command's
        finally:
            gc.enable()

    def test_only_the_cli_imports_gc(self):
        modules = Path(me2f.__file__).parent.glob("*.py")
        assert [m.name for m in modules if "import gc" in m.read_text(encoding="utf-8")] == ["cli.py"]


class TestOneCopyOfTheReport:
    """``score`` drops the report before rendering report.json, and the
    document lives only until report.json, rendered as it is written, is
    written, so no two of them are alive at once."""

    @pytest.mark.parametrize("formats", ["json,table", "json,table,chart"])
    def test_each_stage_frees_what_it_was_made_from(self, tmp_path, monkeypatch, formats):
        from me2f import cli, ingest, scoring

        def alive() -> dict[str, int]:
            objects = gc.get_objects()
            return {
                "reports": sum(isinstance(o, (scoring.TokenReport, scoring.TokenInputs))
                               for o in objects),
                "token dicts": sum(type(o) is dict and "raw" in o and "inputs" in o
                                   for o in objects),
            }

        seen, dumps, write_files = {}, cli._dumps, ingest.write_files

        def dumps_probe(doc):
            seen["_dumps"] = alive()
            return dumps(doc)

        def write_probe(*args):
            seen["write_files"] = alive()
            out = write_files(*args)
            seen["written"] = alive()
            return out

        monkeypatch.setattr(cli, "_dumps", dumps_probe)
        monkeypatch.setattr(ingest, "write_files", write_probe)
        gc.collect()  # what is left is reachable: a baseline the command must return to
        before = alive()
        assert invoke("score", "--universe", GOLDEN_DIR / "universe.json",
                      "--format", formats, "--out", tmp_path) == 0
        assert seen["_dumps"]["reports"] == before["reports"]
        assert seen["_dumps"]["token dicts"] > before["token dicts"]  # the document it renders
        assert seen["write_files"]["reports"] == before["reports"]
        # report.json's pieces are rendered from the document as they are written
        assert seen["write_files"]["token dicts"] == seen["_dumps"]["token dicts"]
        assert seen["written"] == before


class TestWarnHoldsOneCopy:
    """``warn`` drops each series once it is flagged, the flags, events and
    buckets once the document holds them, and the document once
    warnings.json, rendered as it is written, is written."""

    def test_each_stage_frees_what_it_was_made_from(self, tmp_path, monkeypatch, capsys):
        from me2f import cli, ingest, warning

        def alive() -> dict[str, int]:
            objects = gc.get_objects()
            return {
                "stage objects": sum(isinstance(o, (warning.ScoreSeries, warning.WarningFlag))
                                     for o in objects),
                # a dict of strings and floats is not tracked by the collector: count the lists' items
                "flag dicts": sum(type(d) is dict and "window_percentile" in d
                                  for o in objects if type(o) is list for d in o),
            }

        seen, dumps, write_files = {}, cli._dumps, ingest.write_files

        def dumps_probe(doc):
            seen["_dumps"] = alive()
            return dumps(doc)

        def write_probe(*args):
            seen["write_files"] = alive()
            out = write_files(*args)
            seen["written"] = alive()
            return out

        monkeypatch.setattr(cli, "_dumps", dumps_probe)
        monkeypatch.setattr(ingest, "write_files", write_probe)
        gc.collect()  # what is left is reachable: a baseline the command must return to
        before = alive()
        assert invoke(*GOLDEN_WARN, "--out", tmp_path) == 0
        assert seen["_dumps"]["stage objects"] == before["stage objects"]
        assert seen["_dumps"]["flag dicts"] > before["flag dicts"]  # the document it renders
        assert seen["write_files"]["stage objects"] == before["stage objects"]
        # warnings.json's pieces are rendered from the document as they are written
        assert seen["write_files"]["flag dicts"] == seen["_dumps"]["flag dicts"]
        assert seen["written"] == before
        golden = json.loads((GOLDEN_DIR / "warn" / "warnings.json").read_text(encoding="utf-8"))
        assert capsys.readouterr().err == (
            f"{len(golden['flags'])} flag(s), {len(golden['joint_events'])} joint event(s) "
            f"-> {tmp_path / 'warnings.json'}\n")


class TestOutputsAreRenderedAsTheyAreWritten:
    """No whole text of report.json or warnings.json is built: from entering
    ``_dumps`` to ``write_files`` returning, the traced peak stays under half
    of the written file. A writer that builds the text first holds it at
    least twice, as its parts and as their join."""

    def traced_peak(self, monkeypatch, *command) -> int:
        from me2f import cli, ingest

        seen, dumps, write_files = {}, cli._dumps, ingest.write_files

        def dumps_probe(doc):
            tracemalloc.reset_peak()
            seen["base"] = tracemalloc.get_traced_memory()[0]
            return dumps(doc)

        def write_probe(*args):
            out = write_files(*args)
            seen["peak"] = tracemalloc.get_traced_memory()[1] - seen["base"]
            return out

        monkeypatch.setattr(cli, "_dumps", dumps_probe)
        monkeypatch.setattr(ingest, "write_files", write_probe)
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            assert invoke(*command) == 0
        finally:
            if not tracing:
                tracemalloc.stop()
        return seen["peak"]

    def test_score_on_2000_table_tokens(self, tmp_path, monkeypatch):
        universe = write_tables_universe(tmp_path, 2000)
        out = tmp_path / "out"
        peak = self.traced_peak(monkeypatch, "score", "--universe", universe, "--format", "json",
                                "--out", out)
        assert peak < (out / "report.json").stat().st_size / 2

    def test_warn_on_a_300_day_history(self, tmp_path, monkeypatch):
        history = write_date_major_history(tmp_path / "history.csv", 12, 300)
        out = tmp_path / "out"
        peak = self.traced_peak(monkeypatch, "warn", "--history", history, "--window", 30,
                                "--threshold", 0.9, "--out", out)
        assert peak < (out / "warnings.json").stat().st_size / 2


class TestBarsCsvRoundTrip:
    def test_serialized_bars_reload_identically(self, tmp_path):
        from me2f.ingest import bars_to_csv
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
        ("name", "../p"),  # its cache would lie outside --cache-dir
        # each passed as rate_limit=30, page_size=2, timeout=1.0 and query={}
        ("rate_limit", 5), ("page_size", 2.9), ("timeout_seconds", True), ("query", []),
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

    # each made a cache directory outside --cache-dir, before any request
    @pytest.mark.parametrize("token", ["", ".", "..", "../../escaped", "a/b", "a\\b", "A\x01B"])
    def test_token_that_leaves_the_cache_dir_exits_2_before_any_request(
            self, tmp_path, monkeypatch, token):
        session = FakeSession([])
        monkeypatch.setattr(requests, "Session", lambda: session)
        config = tmp_path / "provider.json"
        config.write_text(json.dumps(PROVIDER))
        result = run("fetch", "--provider-config", config, "--token", token,
                     "--start", "2024-01-01", "--end", "2024-01-02",
                     "--cache-dir", tmp_path / "c" / "cache")
        assert_clean_exit(result, 2)
        assert result.stderr.startswith("error: token")
        assert session.calls == [] and list(tmp_path.rglob("*")) == [config]

    @pytest.mark.parametrize("token, start, end, error", [
        ("..", "2024-01-01", "2024-01-02", "error: token '..'"),
        ("X", "2024-02-01", "2024-01-01", "error: date range 2024-02-01..2024-01-01 is inverted\n"),
    ], ids=["token", "inverted range"])
    def test_rejected_fetch_leaves_no_out_directories(self, tmp_path, monkeypatch,
                                                      token, start, end, error):
        session = FakeSession([])
        monkeypatch.setattr(requests, "Session", lambda: session)
        config = tmp_path / "provider.json"
        config.write_text(json.dumps(PROVIDER))
        result = run("fetch", "--provider-config", config, "--token", token,
                     "--start", start, "--end", end,
                     "--cache-dir", tmp_path / "cache", "--out", tmp_path / "new" / "sub" / "bars.csv")
        assert_clean_exit(result, 2)
        assert result.stderr.startswith(error)
        assert session.calls == [] and list(tmp_path.rglob("*")) == [config]

    def fetch_one_day(self, tmp_path, monkeypatch, out=None):
        """``fetch --out out`` (no ``--out`` for None) of one day served by a
        ``FakeSession``; the session."""
        session = FakeSession([{"date": "2024-01-01", **dict.fromkeys(BARS_HEADER[1:], 1.0)}])
        monkeypatch.setattr(requests, "Session", lambda: session)
        config = tmp_path / "provider.json"
        config.write_text(json.dumps(PROVIDER | {"items_path": "data", "query": {"page": "{page}"}}))
        result = run("fetch", "--provider-config", config, "--token", "X", "--start", "2024-01-01",
                     "--end", "2024-01-01", "--cache-dir", tmp_path / "cache",
                     *(("--out", out(config)) if out else ()))
        return result, session

    def test_without_out_only_caches(self, tmp_path, monkeypatch):
        result, session = self.fetch_one_day(tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        assert result.stderr == "1 bar(s) cached for X\n"
        assert len(session.calls) == 1 and len(list((tmp_path / "cache").rglob("*.json"))) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "provider.json"]

    @pytest.mark.parametrize("out", [
        lambda config: config.parent,  # a directory
        lambda config: config / "bars.csv",  # under a file
        lambda config: config / "sub" / "bars.csv",  # under a missing directory under a file
    ], ids=["directory", "parent is a file", "parent under a file"])
    def test_out_that_cannot_be_a_file_exits_2_before_any_request(self, tmp_path, monkeypatch, out):
        result, session = self.fetch_one_day(tmp_path, monkeypatch, out)
        assert_clean_exit(result, 2)
        assert result.stderr.startswith("error: --out ")
        assert session.calls == [] and not (tmp_path / "cache").exists()

    def test_out_under_missing_directories_makes_them(self, tmp_path, monkeypatch):
        result, session = self.fetch_one_day(
            tmp_path, monkeypatch, lambda config: config.parent / "new" / "sub" / "bars.csv")
        assert result.exit_code == 0, result.output
        lines = (tmp_path / "new" / "sub" / "bars.csv").read_text().splitlines()
        assert lines[0] == ",".join(BARS_HEADER) and lines[1].startswith("2024-01-01,")
        assert len(session.calls) == 1

    def test_a_failed_out_write_exits_2_naming_it(self, tmp_path, monkeypatch):
        out, replace = tmp_path / "bars.csv", os.replace

        def failing_replace(source, target):  # the rename that puts each written file in place
            if Path(target) == out:
                raise PermissionError(13, "Permission denied")
            return replace(source, target)

        monkeypatch.setattr(os, "replace", failing_replace)
        result, _ = self.fetch_one_day(tmp_path, monkeypatch, lambda config: out)
        assert_clean_exit(result, 2)
        assert result.stderr == f"error: --out {out}: cannot write: Permission denied\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "provider.json"]


CHARTS = [f"{metric}.{ext}" for metric in ("vds", "wds", "sas") for ext in ("svg", "csv")]
WRITTEN = {  # every file each command writes, in the directory it writes them
    "score": ["report.json", "report.txt", *CHARTS],
    "warn": ["warnings.json"],
    "plot": CHARTS,
    "fetch": ["2024-01-01_2024-01-01.json", "2024-01-01_2024-01-01.json.sha256"],
}


def inputs_of(tmp_path, command) -> tuple:
    """Input arguments on which ``score``, ``warn`` or ``plot`` writes every file of ``WRITTEN``."""
    if command == "plot":
        return "--report", score_reference(tmp_path, "scored") / "report.json"
    if command == "warn":
        write_history(tmp_path / "h.csv", [float(i) for i in range(1, 121)])
        return "--history", tmp_path / "h.csv"
    return "--universe", REFERENCE_DIR / "universe.json", "--format", "json,table,chart"


@pytest.mark.parametrize("command,target", [
    ("score", "report.txt"), ("score", "vds.svg"), ("warn", "warnings.json"), ("plot", "vds.svg"),
    ("fetch", "2024-01-01_2024-01-01.json"),
], ids=["score report.txt", "score vds.svg", "warn", "plot", "fetch cache"])
def test_an_output_file_that_is_a_directory_exits_2_and_writes_nothing(
        tmp_path, monkeypatch, command, target):
    out = tmp_path / "cache" / "prov" / "X" / "bars" if command == "fetch" else tmp_path / "out"
    out.mkdir(parents=True)
    for name in WRITTEN[command]:  # an older set of outputs, with the target a directory
        (out / name).write_text(f"old {name}\n")
    (out / target).unlink()
    (out / target).mkdir()
    (out / target / "kept").write_text("kept\n")
    before = {path: path.is_file() and path.read_bytes() for path in out.rglob("*")}
    if command == "fetch":
        result, what = TestFetchCommand().fetch_one_day(tmp_path, monkeypatch)[0], "cache directory"
    else:
        result, what = run(command, *inputs_of(tmp_path, command), "--out", out), "--out"
    assert_clean_exit(result, 2)
    assert result.stderr.startswith(f"error: {what} {out / target}: cannot write: ")
    assert {path: path.is_file() and path.read_bytes() for path in out.rglob("*")} == before


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
        assert result.stderr == (f"error: {report}: PEPE vds: duplicate date 2025-01-03, "
                                 f"also in --history {hist}\n")

    def test_two_reports_on_the_same_day_name_both(self, tmp_path):
        first, second = tmp_path / "r1.json", tmp_path / "r2.json"
        for report in (first, second):
            report.write_text(json.dumps(GOOD_REPORT))
        result = run("warn", "--report", first, "--report", second, "--window", 2,
                     "--out", tmp_path / "w")
        self.assert_one_line_error(result, 3)
        assert result.stderr == (f"error: {second}: PEPE vds: duplicate date 2025-01-03, "
                                 f"also in {first}\n")


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

    def test_fgi_row_without_a_volatility_row_exits_3_naming_the_fgi_table(self, tmp_path):
        # no table row and no universe entry gives B a chain role
        result = score_tables(tmp_path, VOL_ROW, FGI_ROW + FGI_ROW.replace("A,", "B,"))
        assert_clean_exit(result, 3)
        assert result.stderr == f"error: {tmp_path / 'f.csv'}: no chain role known for B\n"

    @pytest.mark.parametrize("base", ["ZZZ", "B"], ids=["not in the universe", "hosted"])
    def test_base_that_is_not_a_standalone_token_exits_3_naming_the_table(self, tmp_path, base):
        result = score_tables(tmp_path, VOL_ROW + f"B,5,40,10,20,hosted,A\nC,5,40,10,20,hosted,{base}\n")
        assert_clean_exit(result, 3)
        assert result.stderr == (f"error: {tmp_path / 'v.csv'}: token 'C' names base {base!r}, "
                                 "not a standalone token\n")

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

    def test_fgi_value_above_100_exits_3(self, tmp_path):
        result = score_tables(tmp_path, VOL_ROW, FGI_ROW.replace(",90,", ",101,"))
        assert_clean_exit(result, 3)
        assert "f.csv: line 2, column 'f_max'" in result.stderr
        assert "f_max=101.0 outside [0, 100]" in result.stderr

    def test_repeated_fgi_row_exits_3(self, tmp_path):
        result = score_tables(tmp_path, VOL_ROW, FGI_ROW + "\n" + FGI_ROW)
        assert_clean_exit(result, 3)
        assert "f.csv: line 4, column 'token'" in result.stderr


class TestZeroVolatilityMaxima:
    """A volatility component whose universe maximum is 0 scores 0, as a dead SAS
    component does; every other VDS term, and each token's own failure, still counts."""

    FGI_ROWS = "AAA,50,90,10,1,1,50,10\nBBB,60,90,10,1,1,40,5\n"  # no dead SAS component

    def scored(self, tmp_path, vol_rows):
        result = score_tables(tmp_path, vol_rows, self.FGI_ROWS)
        assert result.exit_code == 0, result.output
        doc = json.loads((tmp_path / "o" / "report.json").read_text())
        return doc, {t["id"]: t for t in doc["tokens"]}

    def test_zero_averages_score_from_the_maxima(self, tmp_path):
        # S = 2 / (1/1 + 1/2) = 4/3, so resilience is 0.6 and VDS = sqrt(0.5 * v_m * 0.6)
        doc, tokens = self.scored(tmp_path, "AAA,0,12.5,1,2,standalone,\nBBB,0,40,1,2,standalone,\n")
        assert tokens["BBB"]["raw"]["vds"] == pytest.approx(math.sqrt(0.3))
        assert tokens["AAA"]["raw"]["vds"] == pytest.approx(math.sqrt(0.3 * 12.5 / 40))
        assert (tokens["BBB"]["vds"], tokens["AAA"]["vds"]) == (0.548, 0.306)
        assert doc["warnings"] == ["degenerate volatility maxima (component scored 0): avg_vol"]

    def test_a_zero_size_fails_its_vds_in_an_all_flat_universe(self, tmp_path):
        doc, tokens = self.scored(tmp_path, "AAA,0,0,1,2,standalone,\nBBB,0,0,0,2,standalone,\n")
        assert tokens["AAA"]["vds"] == 0.0 and tokens["AAA"]["warnings"] == []
        assert tokens["BBB"]["vds"] is None
        assert tokens["BBB"]["warnings"] == ["vds failed: volume=0.0, mcap=2.0 must both be > 0"]
        assert doc["warnings"] == ["degenerate volatility maxima (component scored 0): avg_vol, max_vol"]


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
        ("no_window", json.dumps({"tokens": GOOD_REPORT["tokens"]})),
        ("null_window", json.dumps({**GOOD_REPORT, "window": None})),
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
        pytest.param('[{"id": "PEPE", "raw": [0.5]}]', "'PEPE' has a 'raw' that is not an object",
                     id="raw_not_object"),
        pytest.param('[{"id": "PEPE", "sas": NaN}]', "'PEPE'", id="nan_score"),
        pytest.param('[{"id": "PEPE", "wds": -0.25}]', "'PEPE'", id="negative_score"),
        # plot charted the id twice, and warn named neither the file nor the entry
        pytest.param('[{"id": "X", "vds": 0.5}, {"id": "X", "vds": 0.6}]', "token entry 2 repeats the id 'X'",
                     id="repeated_id"),
        # no "tokens" key at all: warn flagged nothing and plot skipped all three charts, both exiting 0
        pytest.param(None, "'tokens' must be a list", id="no_tokens"),
    ])
    @pytest.mark.parametrize("command", ["plot", "warn"])
    def test_bad_report_tokens_exit_3_naming_file_and_token(self, tmp_path, command, tokens, named):
        report = tmp_path / "report.json"
        report.write_text('{"window": {"start": "2025-01-01", "end": "2025-01-03"}'
                          + ("" if tokens is None else f', "tokens": {tokens}') + "}")
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


# Each way json.loads fails: a decode error, an integer over 4,300 digits
# (ValueError) and deep nesting (RecursionError); before the one JSON reader
# the last exited 4 from every command, and the huge integer from score and fetch.
BAD_JSON = {"truncated": '{"tokens": [', "huge_int": '{"tokens": ' + "9" * 5000 + "}",
            "deep": "[" * 100_000 + "]" * 100_000}


class TestJsonDocumentErrors:
    @pytest.mark.parametrize("text", BAD_JSON.values(), ids=list(BAD_JSON))
    @pytest.mark.parametrize("args,code,where", [
        (("score", "--universe"), 2, "universe file "),
        (("fetch", "--token", "X", "--start", "2024-01-01", "--end", "2024-01-01",
          "--provider-config"), 2, "provider config "),
        (("plot", "--report"), 3, ""),
        (("warn", "--report"), 3, ""),
    ], ids=["universe", "provider", "plot", "warn"])
    def test_undecodable_document_exits_cleanly_naming_it(self, tmp_path, args, code, where, text):
        doc = tmp_path / "doc.json"
        doc.write_text(text)
        extra = ("--cache-dir", tmp_path / "cache") if args[0] == "fetch" else ("--out", tmp_path / "o")
        result = run(*args, doc, *extra)
        assert_clean_exit(result, code)
        assert result.stderr.startswith(f"error: {where}{doc} is not valid JSON: ")

    def test_non_finite_summary_from_bars_exits_3_naming_token_and_field(self, tmp_path):
        # A close of 1e-320 is finite and positive, but the next day's range over it
        # is inf; before, report.json held NaN for X's VDS and 0.000 for every other token.
        # The error names the file whose reduction broke the summary's rule.
        bars = ("date,high,low,close,volume_usd,market_cap_usd\n2024-01-01,111,89,1e-320,1e6,2e7\n"
                "2024-01-02,112,88,102,2e6,2e7\n2024-01-03,113,87,100,3e6,2e7\n")
        (tmp_path / "bars.csv").write_text(bars)
        universe = write_universe(tmp_path, {
            "volatility_table": str(REFERENCE_DIR / "reference_volatility.csv"),
            "tokens": [{"id": "X", "role": "standalone", "bars": "bars.csv"}],
        })
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        assert result.stderr == f"error: {tmp_path / 'bars.csv'}: X: avg_vol=inf is not finite\n"
        assert not (tmp_path / "o").exists()
        with pytest.raises(InvalidSummary) as caught:  # library callers still read the broken field
            load_universe(universe, FrameworkParams())
        assert caught.value.field == "avg_vol"


def write_universe(tmp_path, doc):
    universe = tmp_path / "u.json"
    universe.write_text(json.dumps(doc))
    return universe


# A lone surrogate UTF-8 cannot encode, and a C0 control XML 1.0 cannot hold;
# before the token-id rule the first made score exit 4 writing report.txt, and
# the second wrote a vds.svg that XML parsers reject.
BAD_IDS = [pytest.param("\ud800", id="lone_surrogate"), pytest.param("A\x01B", id="c0_control")]


class TestTokenIdRule:
    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_universe_id_exits_2_naming_file_and_entry(self, tmp_path, bad):
        universe = write_universe(tmp_path, {"tokens": [{"id": "SOL", "role": "standalone"},
                                                        {"id": bad, "role": "standalone"}]})
        result = run("score", "--universe", universe, "--out", tmp_path / "o",
                     "--format", "json,table,chart")
        assert_clean_exit(result, 2)
        assert f"universe file {universe}: token entry 2: token id {bad!r}" in result.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", BAD_IDS)
    @pytest.mark.parametrize("table", ["volatility", "fgi"])
    def test_table_token_exits_3_at_its_line(self, tmp_path, table, bad):
        vol_rows, fgi_rows = VOL_ROW, FGI_ROW
        if table == "volatility":
            vol_rows += VOL_ROW.replace("A,", f"{bad},")
        else:
            fgi_rows += FGI_ROW.replace("A,", f"{bad},")
        (tmp_path / "v.csv").write_text(VOL_HEADER + vol_rows, errors="surrogatepass")
        (tmp_path / "f.csv").write_text(FGI_HEADER + fgi_rows, errors="surrogatepass")
        universe = write_universe(tmp_path, {"volatility_table": "v.csv", "fgi_table": "f.csv"})
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        path = tmp_path / f"{table[0]}.csv"
        if bad == "\ud800":  # its bytes are not UTF-8: the file cannot be read as text
            assert result.stderr.startswith(f"error: {path}: cannot read")
        else:
            assert f"{path}: line 3, column 'token'" in result.stderr and repr(bad) in result.stderr

    @pytest.mark.parametrize("bad", BAD_IDS)
    def test_history_token_exits_3_at_its_line(self, tmp_path, bad):
        hist = tmp_path / "h.csv"
        hist.write_text("date,token,metric,value\n2025-01-01,X,vds,1.0\n"
                        f"2025-01-02,{bad},vds,2.0\n2025-01-02,X,vds,2.0\n", errors="surrogatepass")
        result = run("warn", "--history", hist, "--window", 2, "--out", tmp_path / "w")
        assert_clean_exit(result, 3)
        if bad == "\ud800":
            assert result.stderr.startswith(f"error: {hist}: cannot read")
        else:
            assert f"{hist}: line 3, column 'token'" in result.stderr and repr(bad) in result.stderr

    @pytest.mark.parametrize("bad", BAD_IDS)
    @pytest.mark.parametrize("command", ["plot", "warn"])
    def test_report_id_exits_3_naming_file_and_token(self, tmp_path, command, bad):
        report = tmp_path / "report.json"
        report.write_text(json.dumps({**GOOD_REPORT, "tokens": [{"id": "X"}, {"id": bad}]}))
        extra = ("--window", 2) if command == "warn" else ()
        result = run(command, "--report", report, *extra, "--out", tmp_path / "o")
        assert_clean_exit(result, 3)
        assert result.stderr.startswith(f"error: {report}: token id {bad!r} holds")
        assert not (tmp_path / "o").exists()


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
        ({"X": {"role": "standalone"}}, "'tokens' must be a list"),
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
        # a base is checked once the table is read, before any token's own file
        ([{"id": "A", "role": "hosted", "base": "ZZZ", "bars": "missing.csv"}],
         "token 'A': 'base': base chain 'ZZZ' not in universe"),
        ([{"id": "A", "role": "hosted", "base": "SHIB", "bars": "missing.csv"}],
         "token 'A': 'base': base chain 'SHIB' is itself hosted"),
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

    @pytest.mark.parametrize("entry,named", [
        ({"role": "standalone", "base": "SOL"}, "'base': standalone token ETH must not name a base"),
        ({"base": "SOL"}, "'role': unknown role None"),
        ({"role": "hosted"}, "'base': hosted token ETH needs a base"),
        ({"role": "hosted", "base": ["SOL"]}, "'base': hosted token ETH needs a base"),
        ({"role": "Hosted", "base": "SOL"}, "'role': unknown role 'Hosted'"),
    ])
    def test_bad_role_or_base_exits_2_naming_entry_and_key(self, tmp_path, entry, named):
        # before the one role rule, the first two scored ETH as standalone, dropping the base
        universe = write_universe(tmp_path, {"tokens": [{"id": "SOL", "role": "standalone"},
                                                        {"id": "ETH", **entry}]})
        result = run("score", "--universe", universe, "--out", tmp_path / "o")
        assert_clean_exit(result, 2)
        assert result.stderr == f"error: universe file {universe}: token 'ETH': {named}\n"

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


def dumped(doc: dict) -> str:
    """The text that ``_dumps`` yields in pieces."""
    return "".join(_dumps(doc))


class TestJsonWriters:
    """``_dumps`` yields the text of ``json.dumps(doc, indent=2)`` plus a newline."""

    @pytest.mark.parametrize("doc", WARN_CASES.values(), ids=list(WARN_CASES))
    def test_warn_cases_match_json_dumps(self, doc):
        assert dumped(doc) == json.dumps(doc, indent=2) + "\n"

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
                        dumped(doc)
                    with pytest.raises(TypeError) as theirs:
                        json.dumps(doc, indent=2)
                    assert str(ours.value) == str(theirs.value)
                    holder[at] = kept
        assert dumped(doc) == json.dumps(doc, indent=2) + "\n"

    @pytest.mark.parametrize("shape", TOKEN_SHAPES, ids=SHAPE_IDS)
    def test_every_token_shape_matches_json_dumps(self, shape):
        doc = shaped_report(*shape)
        assert dumped(doc) == json.dumps(doc, indent=2) + "\n"
        token = doc["tokens"][0]
        nested = [token["role"], token["raw"], *filter(None, token["inputs"].values()),
                  token["window"], token["warnings"]]
        for section in filter(None, nested):
            for key in (range(len(section)) if isinstance(section, list) else list(section)):
                kept = section[key]
                for value in (math.nan, math.inf, -math.inf):
                    section[key] = value
                    assert dumped(doc) == json.dumps(doc, indent=2) + "\n"
                section[key] = object()
                with pytest.raises(TypeError) as ours:
                    dumped(doc)
                with pytest.raises(TypeError) as theirs:
                    json.dumps(doc, indent=2)
                assert str(ours.value) == str(theirs.value)
                section[key] = kept

    @pytest.mark.parametrize("batch", [1, 2, 3])
    def test_pieces_of_any_batch_size_join_to_json_dumps(self, monkeypatch, batch):
        from me2f import report

        monkeypatch.setattr(report, "_BATCH", batch)
        tokens = [{**shaped_report(*shape)["tokens"][0], "id": f"T{i}"}
                  for i, shape in enumerate(TOKEN_SHAPES)]
        docs = [{**shaped_report(*TOKEN_SHAPES[0]), "tokens": tokens[:n]}
                for n in (0, 1, batch, batch + 1, len(tokens))]
        docs += WARN_CASES.values()
        docs.append(warn_doc(flags=[(n / 8, 0.9) for n in range(7)], events=EQUAL_METRICS * 2,
                             buckets=EQUAL_METRICS * 2))
        for doc in docs:
            assert dumped(doc) == json.dumps(doc, indent=2) + "\n"

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
        assert dumped(doc) == json.dumps(doc, indent=2) + "\n"

    def test_matches_json_dumps_on_a_scored_report(self, reference_inputs):
        # the writers' key lists agree with report_to_dict's, every section present
        params = FrameworkParams()
        inputs = dict(reference_inputs)
        series = random_series(random.Random(0), "DOGE")
        inputs["DOGE"] = replace(
            inputs["DOGE"], concentration=whale.concentration(HolderSnapshot("DOGE", (0.5, 0.1)), params.n),
            volatility=aggregate(series, params.scale_unit), window=series.window())
        doc = report_to_dict(score_universe(build_context(inputs, params)))
        doge = next(t for t in doc["tokens"] if t["id"] == "DOGE")
        assert doge["window"] and doge["inputs"]["concentration"]
        assert any(t["role"]["kind"] == "hosted" for t in doc["tokens"])
        assert dumped(doc) == json.dumps(doc, indent=2) + "\n"

    def test_unknown_documents_and_scalars_are_rejected(self):
        with pytest.raises(TypeError, match="no JSON writer"):
            _dumps({"tokens": []})
        doc = {"params": {"window_days": 90, "threshold": 0.9, "x_days": 3}, "warnings": [object()],
               "flags": [], "joint_events": [], "buckets": []}
        with pytest.raises(TypeError, match="object is not JSON serializable"):
            dumped(doc)
