"""Whole-pipeline relations: restating the same input another way leaves every
output byte, or every score, where it was, and a higher warn threshold keeps a
subset of the flags. Derandomized, so each run draws the same examples."""
from __future__ import annotations

import json
import math
import random
import re
import shutil
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (GOLDEN_DIR, make_series, random_series, write_date_major_history,
                      write_raw_universe, write_tables_universe)
from me2f import FrameworkParams, build_context, score_universe
from me2f.cli import bars_to_csv, main
from me2f.ingest import (load_bars_csv, load_fgi_table, load_sentiment_csv, load_universe,
                         load_volatility_table)
from me2f.sentiment import fgi_indicators, sentiment_maxima
from me2f.volatility import aggregate

PROPERTY_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None)


def outputs(*args) -> dict[str, bytes]:
    """Run the CLI with ``args`` into a fresh directory; each file it wrote, by name."""
    with tempfile.TemporaryDirectory() as out:
        result = CliRunner().invoke(main, [*map(str, args), "--out", out])
        assert result.exit_code == 0, result.output
        return {path.name: path.read_bytes() for path in Path(out).iterdir()}


def score(universe: Path) -> dict[str, bytes]:
    return outputs("score", "--universe", universe, "--format", "json,table,chart")


def raw_scores(universe: Path, *options) -> dict[str, dict]:
    """Each token's full-precision scores, by id, as ``score`` reports them."""
    report = json.loads(outputs("score", "--universe", universe, "--format", "json", *options)
                        ["report.json"])
    return {token["id"]: token["raw"] for token in report["tokens"]}


def shuffle_rows(path: Path, rng) -> None:
    """Shuffle the data rows of the CSV file ``path``; the header stays first."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rng.shuffle(rows)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def shuffle_universe(universe: Path, rng) -> None:
    """Shuffle the rows of ``universe``'s volatility and FGI tables and its token entries."""
    doc = json.loads(universe.read_text(encoding="utf-8"))
    for key in ("volatility_table", "fgi_table"):
        shuffle_rows(universe.parent / doc[key], rng)
    rng.shuffle(doc.get("tokens", []))
    universe.write_text(json.dumps(doc), encoding="utf-8")


class TestRowOrder:
    """The order of table rows and of universe entries is not data."""

    @PROPERTY_SETTINGS
    @given(rng=st.randoms(use_true_random=False))
    def test_shuffled_golden_universe_gives_the_golden_outputs(self, rng):
        with tempfile.TemporaryDirectory() as work:
            universe = Path(shutil.copytree(GOLDEN_DIR, Path(work) / "u")) / "universe.json"
            shuffle_universe(universe, rng)
            assert score(universe) == {path.name: path.read_bytes()
                                       for path in (GOLDEN_DIR / "score").iterdir()}

    @PROPERTY_SETTINGS
    @given(tokens=st.integers(1, 30), seed=st.integers(0, 2**16),
           rng=st.randoms(use_true_random=False))
    def test_shuffled_tables_give_the_same_outputs(self, tokens, seed, rng):
        with tempfile.TemporaryDirectory() as work:
            universe = write_tables_universe(Path(work), tokens, seed)
            before = score(universe)
            shuffle_universe(universe, rng)
            assert score(universe) == before


class TestSplitHistory:
    """A day's scores read from a report are the same scores as in the history."""

    @PROPERTY_SETTINGS
    @given(tokens=st.integers(1, 3), window=st.integers(2, 12), more_days=st.integers(0, 30),
           seed=st.integers(0, 2**16), threshold=st.sampled_from([0.5, 0.6, 0.75, 0.9]),
           x_days=st.integers(0, 4))
    def test_last_day_as_a_report_gives_the_same_warnings(self, tokens, window, more_days, seed,
                                                          threshold, x_days):
        with tempfile.TemporaryDirectory() as work:
            history = write_date_major_history(Path(work) / "h.csv", tokens, window + more_days, seed)
            options = ("--window", window, "--threshold", threshold, "--x-days", x_days)
            whole = outputs("warn", "--history", history, *options)
            header, *rows = history.read_text(encoding="utf-8").splitlines()
            kept, last = rows[:-3 * tokens], [row.split(",") for row in rows[-3 * tokens:]]
            history.write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")
            day = last[0][0]
            raw = {}
            for _, token, metric, value in last:
                raw.setdefault(token, {})[metric] = float(value)
            report = Path(work) / "report.json"
            report.write_text(json.dumps({
                "window": {"start": day, "end": day},
                "tokens": [{"id": token, "raw": scores} for token, scores in raw.items()],
            }), encoding="utf-8")
            assert outputs("warn", "--history", history, "--report", report, *options) == whole


def write_raw_token(directory: Path, rng, token_id: str, flat: bool) -> tuple[Path, Path]:
    """A token's bars and FGI files: random, or where ``flat`` one constant price
    and an FGI of 50 every day; their paths."""
    series = random_series(rng, token_id)
    days = len(series.dates)
    if flat:
        price = [series.close[0]] * days
        series = make_series(token_id, price, price, price, start=series.dates[0])
    fgi = [50.0] * days if flat else [rng.uniform(0.0, 100.0) for _ in range(days)]
    returns = ["", *(repr(abs(b / a - 1)) for a, b in zip(series.close, series.close[1:]))]
    bars, sentiment = directory / f"{token_id}_bars.csv", directory / f"{token_id}_fgi.csv"
    bars.write_text(bars_to_csv(series), encoding="utf-8")
    sentiment.write_text("date,fgi,abs_return\n" + "".join(
        f"{day},{value!r},{ret}\n" for day, value, ret in zip(series.dates, fgi, returns)),
        encoding="utf-8")
    return bars, sentiment


class TestRawAndTableAgree:
    """A token given as raw files scores as it does given as table rows of the
    library's own aggregates: the ``_pct`` columns' trip through x100 and /100 moves
    a float by an ulp at most, so scores agree to 1e-12."""

    @PROPERTY_SETTINGS
    @given(flat=st.lists(st.booleans(), min_size=1, max_size=5),
           hosted=st.lists(st.booleans(), min_size=5, max_size=5), seed=st.integers(0, 2**16),
           unit=st.sampled_from([None, 1e6, 1e10]))
    def test_same_vds_and_sas_from_either_source(self, flat, hosted, seed, unit):
        rng = random.Random(seed)
        with tempfile.TemporaryDirectory() as work:
            work = Path(work)
            entries = []
            vol = ["token,avg_vol_pct,max_vol_pct,max_volume_busd,max_mcap_busd,chain_role,base"]
            fgi = ["token,f_bar,f_max,f_min,q_g_pct,q_f_pct,delta_f_max,delta_p_max_pct"]
            for i, token_flat in enumerate(flat):
                tid, on_base = f"T{i}", i > 0 and hosted[i]  # T0 is every hosted token's base
                bars, sentiment = write_raw_token(work, rng, tid, token_flat)
                entries.append({"id": tid, "bars": bars.name, "sentiment": sentiment.name,
                                **({"role": "hosted", "base": "T0"} if on_base
                                   else {"role": "standalone"})})
                agg = aggregate(load_bars_csv(bars, tid))  # sizes in USD billions
                ind = fgi_indicators(load_sentiment_csv(sentiment, tid))
                vol.append(f"{tid},{agg.avg_vol * 100!r},{agg.max_vol * 100!r},{agg.max_volume!r},"
                           f"{agg.max_mcap!r},{'hosted,T0' if on_base else 'standalone,'}")
                fgi.append(f"{tid},{ind.f_bar!r},{ind.f_max!r},{ind.f_min!r},{ind.q_g * 100!r},"
                           f"{ind.q_f * 100!r},{ind.delta_f_max!r},{ind.delta_p_max * 100!r}")
            (work / "v.csv").write_text("\n".join(vol) + "\n", encoding="utf-8")
            (work / "f.csv").write_text("\n".join(fgi) + "\n", encoding="utf-8")
            raw, table = work / "raw.json", work / "table.json"
            raw.write_text(json.dumps({"tokens": entries}), encoding="utf-8")
            table.write_text(json.dumps({"volatility_table": "v.csv", "fgi_table": "f.csv"}),
                             encoding="utf-8")
            options = ("--scale-unit", unit) if unit else ()
            from_files, from_rows = raw_scores(raw, *options), raw_scores(table, *options)
            assert from_files.keys() == from_rows.keys()
            for tid, scores in from_files.items():
                for metric in ("vds", "sas"):
                    assert math.isclose(scores[metric], from_rows[tid][metric], rel_tol=1e-12), (
                        tid, metric, scores[metric], from_rows[tid][metric])


class TestDominatedToken:
    """VDS and SAS divide by universe maxima, so a standalone token below every
    one of them leaves every other token's scores exactly where they were."""

    @PROPERTY_SETTINGS
    @given(tokens=st.integers(1, 20), seed=st.integers(0, 2**16),
           shares=st.lists(st.floats(0.0, 0.99), min_size=8, max_size=8),
           lean=st.floats(-0.99, 0.99))
    def test_a_dominated_token_moves_no_other_score(self, tokens, seed, shares, lean):
        with tempfile.TemporaryDirectory() as work:
            universe = write_tables_universe(Path(work), tokens, seed)
            before = raw_scores(universe)
            rows = load_volatility_table(universe.parent / "volatility.csv").values()
            aggs = [agg for agg, _ in rows]
            top = sentiment_maxima(load_fgi_table(universe.parent / "fgi.csv").values())
            avg, peak, below, above, greed, fear, jump, move = shares
            max_vol = peak * max(agg.max_vol for agg in aggs)
            avg_vol = avg * min(max_vol, max(agg.avg_vol for agg in aggs))
            below, above = (share * min(50.0, top.r_f / 2) for share in (below, above))
            mean = 50.0 + lean * min(above if lean > 0 else below, top.mean_bias)
            q_g = greed * top.extreme_share
            q_f = fear * (top.extreme_share - q_g)
            with open(universe.parent / "volatility.csv", "a", encoding="utf-8") as table:
                table.write(f"DOMINATED,{avg_vol * 100!r},{max_vol * 100!r},1,1,standalone,\n")
            with open(universe.parent / "fgi.csv", "a", encoding="utf-8") as table:
                table.write(f"DOMINATED,{mean!r},{50.0 + above!r},{50.0 - below!r},{q_g * 100!r},"
                            f"{q_f * 100!r},{jump * top.delta_f!r},{move * top.delta_p * 100!r}\n")
            after = raw_scores(universe)
            assert after.pop("DOMINATED")["vds"] is not None
            assert after == before


def concentrations(universe: Path, params: FrameworkParams) -> dict:
    """Each token's ``ConcentrationResult``, by id."""
    report = score_universe(build_context(load_universe(universe, params), params))
    return {t.token_id: t.concentration for t in report.tokens}


def scale_columns(path: Path, columns: tuple[int, ...], factor: float) -> None:
    """Multiply the cells of ``columns`` in every data row of the CSV file ``path`` by ``factor``."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    for i, row in enumerate(rows):
        cells = row.split(",")
        for column in columns:
            cells[column] = repr(float(cells[column]) * factor)
        rows[i] = ",".join(cells)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def assert_same_vds(before: dict[str, dict], after: dict[str, dict]) -> None:
    assert before.keys() == after.keys()
    for tid, scores in before.items():
        vds, moved = scores["vds"], after[tid]["vds"]
        assert vds is not None and math.isclose(moved, vds, rel_tol=1e-12), (tid, vds, moved)


class TestUnits:
    """VDS reads a token's prices only as ratios of its own prices, and its sizes
    only in ``--scale-unit``s, so neither unit moves any VDS (to 1e-12, as a unit
    change rounds each value once)."""

    @PROPERTY_SETTINGS
    @given(tokens=st.integers(3, 7), days=st.integers(2, 30), seed=st.integers(0, 2**16),
           base=st.booleans(), other=st.integers(1, 6),
           c=st.sampled_from([1e-6, 3.7, 1e6]) | st.floats(1e-6, 1e6))
    def test_one_tokens_price_unit_moves_no_vds(self, tokens, days, seed, base, other, c):
        with tempfile.TemporaryDirectory() as work:
            universe = write_raw_universe(Path(work), tokens, days, seed)
            before = raw_scores(universe)
            scaled = "R0000" if base else f"R{1 + other % (tokens - 1):04d}"  # R0000 is R0002's base
            scale_columns(universe.parent / f"{scaled}_bars.csv", (1, 2, 3), c)  # high, low, close
            assert_same_vds(before, raw_scores(universe))

    @PROPERTY_SETTINGS
    @given(tokens=st.integers(1, 7), days=st.integers(2, 30), seed=st.integers(0, 2**16),
           k=st.sampled_from([1e-3, 7.0, 1e4]) | st.floats(1e-3, 1e4))
    def test_size_unit_with_the_scale_unit_moves_no_vds(self, tokens, days, seed, k):
        with tempfile.TemporaryDirectory() as work:
            universe = write_raw_universe(Path(work), tokens, days, seed)
            before = raw_scores(universe)
            for bars in universe.parent.glob("*_bars.csv"):
                scale_columns(bars, (4, 5), k)  # volume_usd, market_cap_usd
            assert_same_vds(before, raw_scores(universe, "--scale-unit", 1e9 * k))


class TestHolderForm:
    """A holder file's first column, rank or address, and its row order are not
    data: the loader sorts the shares."""

    @PROPERTY_SETTINGS
    @given(tokens=st.integers(1, 4), seed=st.integers(0, 2**16), n=st.sampled_from([2, 100]),
           forms=st.lists(st.sampled_from(["rank", "address"]), min_size=4, max_size=4),
           rng=st.randoms(use_true_random=False))
    def test_either_form_in_any_order_gives_the_same_concentration(self, tokens, seed, n, forms,
                                                                   rng):
        params = FrameworkParams(n=n)
        with tempfile.TemporaryDirectory() as work:
            universe = write_raw_universe(Path(work), tokens, 2, seed)
            before = concentrations(universe, params)
            for holders, form in zip(sorted(universe.parent.glob("*_holders.csv")), forms):
                _, *rows = holders.read_text(encoding="utf-8").splitlines()
                shares = [row.split(",")[1] for row in rows]  # ranked 1, 2, ...
                keys = [str(rank) if form == "rank" else f"0x{rank:040x}"
                        for rank in range(1, len(shares) + 1)]
                rows = [f"{key},{share}" for key, share in zip(keys, shares)]
                rng.shuffle(rows)
                holders.write_text("\n".join([f"{form},share", *rows]) + "\n", encoding="utf-8")
            assert concentrations(universe, params) == before


def warnings_json(history: Path, *options) -> bytes:
    return outputs("warn", "--history", history, *options)["warnings.json"]


class TestWarnRelations:
    """A flag depends on the threshold only through whether it is raised, and
    a token id only through its order among the ids."""

    @PROPERTY_SETTINGS
    @given(tokens=st.integers(1, 3), window=st.integers(2, 12), more_days=st.integers(0, 60),
           seed=st.integers(0, 2**16),
           thresholds=st.lists(st.sampled_from([0.5, 0.6, 0.7, 0.75, 0.9, 0.95]), min_size=2,
                               max_size=2, unique=True))
    def test_a_higher_threshold_keeps_a_subset_of_the_flags(self, tokens, window, more_days, seed,
                                                             thresholds):
        with tempfile.TemporaryDirectory() as work:
            history = write_date_major_history(Path(work) / "h.csv", tokens, window + more_days, seed)
            low, high = ({(f["token"], f["metric"], f["date"]): f for f in json.loads(
                warnings_json(history, "--window", window, "--threshold", threshold))["flags"]}
                for threshold in sorted(thresholds))
            assert high.keys() <= low.keys()
            assert all(low[key] == flag for key, flag in high.items())  # value and percentile

    @PROPERTY_SETTINGS
    @given(tokens=st.integers(1, 4), window=st.integers(2, 12), more_days=st.integers(0, 60),
           seed=st.integers(0, 2**16), threshold=st.sampled_from([0.5, 0.75, 0.9]),
           x_days=st.integers(0, 4),
           names=st.lists(st.text(st.sampled_from("AZaz09_.-\u00c6\u00e9\u20ac\U0001f600"),
                                  min_size=1, max_size=6), min_size=4, max_size=4, unique=True))
    def test_renaming_tokens_in_order_changes_only_the_names(self, tokens, window, more_days, seed,
                                                            threshold, x_days, names):
        renamed = dict(zip((f"H{t:02d}" for t in range(tokens)), sorted(names)))  # in order
        back = {new: old for old, new in renamed.items()}
        options = ("--window", window, "--threshold", threshold, "--x-days", x_days)
        with tempfile.TemporaryDirectory() as work:
            history = write_date_major_history(Path(work) / "h.csv", tokens, window + more_days, seed)
            before = warnings_json(history, *options)
            header, *rows = history.read_text(encoding="utf-8").splitlines()
            rows = [",".join((day, renamed[token], *rest))
                    for day, token, *rest in (row.split(",") for row in rows)]
            history.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
            after = warnings_json(history, *options).decode("ascii")
        mapped = re.sub(r'"token": ("(?:[^"\\]|\\.)*")',
                        lambda m: '"token": ' + json.dumps(back[json.loads(m[1])]), after)
        assert mapped.encode("ascii") == before
