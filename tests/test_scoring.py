"""Universe scoring: context construction, report assembly, reference values."""
from __future__ import annotations

import json
import tracemalloc
from dataclasses import fields, replace
from datetime import date
from pathlib import Path

import pytest

from conftest import EXPECTED_SAS, EXPECTED_VDS, make_series, write_raw_universe
from me2f.domain import (
    ChainRole,
    FrameworkParams,
    HolderSnapshot,
    SentimentPoint,
    SentimentSeries,
    TokenSeries,
)
from me2f.errors import EmptyUniverse, MissingBaseChain
from me2f.ingest import (FGI_TABLE_HEADER, SENTIMENT_HEADER, VOLATILITY_TABLE_HEADER,
                         bars_to_csv, load_universe)
from me2f.scoring import TokenInputs, build_context, score_universe
from me2f.sentiment import SentimentMaxima, fgi_indicators
from me2f.volatility import VolatilityAggregate, aggregate, normalize_cross_section
from me2f.whale import concentration

PARAMS = FrameworkParams()


def _agg(token, avg, vmax, z, c):
    return VolatilityAggregate(token, avg, vmax, z, c)


def load_token(tmp_path: Path, series: TokenSeries | None = None,
               sentiment: SentimentSeries | None = None, **tables: str) -> dict[str, TokenInputs]:
    """The inputs ``load_universe`` gives for a universe file of ``tables`` and a
    standalone token X whose bars and sentiment files hold ``series`` and ``sentiment``."""
    entry = {"id": "X", "role": "standalone"}
    if series is not None:
        (tmp_path / "x_bars.csv").write_text(bars_to_csv(series), encoding="utf-8")
        entry["bars"] = "x_bars.csv"
    if sentiment is not None:
        (tmp_path / "x_sentiment.csv").write_text(",".join(SENTIMENT_HEADER) + "\n" + "".join(
            f"{p.date},{p.fgi!r},{'' if p.abs_return is None else repr(p.abs_return)}\n"
            for p in sentiment.points), encoding="utf-8")
        entry["sentiment"] = "x_sentiment.csv"
    universe = tmp_path / "universe.json"
    universe.write_text(json.dumps({"tokens": [entry], **tables}), encoding="utf-8")
    return load_universe(universe, PARAMS)


def _normalized(ctx):
    """The context's volatility cross-section, normalized as scoring does."""
    return normalize_cross_section(
        m.volatility for m in ctx.members.values() if m.volatility is not None
    )


class TestBuildContext:
    def test_reference_universe_maxima(self, reference_inputs):
        ctx = build_context(reference_inputs, PARAMS)
        for token_id, nv in _normalized(ctx).items():
            agg = ctx.members[token_id].volatility
            assert nv.v_a * 0.1526 == pytest.approx(agg.avg_vol), token_id
            assert nv.v_m * 3.0177 == pytest.approx(agg.max_vol), token_id
        assert ctx.sent_maxima.r_f == pytest.approx(87.0)

    def test_maxima_recomputable(self, reference_inputs):
        ctx = build_context(reference_inputs, PARAMS)
        fgis = [m.fgi for m in ctx.members.values() if m.fgi is not None]
        assert SentimentMaxima.over(fgis) == ctx.sent_maxima

    def test_single_token_is_its_own_maximum(self):
        inputs = {"X": TokenInputs(ChainRole.standalone(), volatility=_agg("X", 0.1, 0.2, 1.0, 1.0))}
        nv = _normalized(build_context(inputs, PARAMS))["X"]
        assert (nv.v_a, nv.v_m) == (1.0, 1.0)

    def test_hosted_without_base(self):
        inputs = {"X": TokenInputs(ChainRole.hosted_on("ETH"), volatility=_agg("X", 0.1, 0.2, 1, 1))}
        with pytest.raises(MissingBaseChain):
            build_context(inputs, PARAMS)

    def test_base_must_be_standalone(self):
        inputs = {
            "A": TokenInputs(ChainRole.hosted_on("B"), volatility=_agg("A", 0.1, 0.2, 1, 1)),
            "B": TokenInputs(ChainRole.hosted_on("C"), volatility=_agg("B", 0.1, 0.2, 1, 1)),
            "C": TokenInputs(ChainRole.standalone(), volatility=_agg("C", 0.1, 0.2, 1, 1)),
        }
        with pytest.raises(MissingBaseChain):
            build_context(inputs, PARAMS)

    def test_empty_universe(self):
        with pytest.raises(EmptyUniverse):
            build_context({}, PARAMS)

    def test_raw_series_aggregated_with_scale_unit(self, tmp_path):
        series = make_series("X", highs=[110, 120], lows=[90, 100], closes=[100, 110],
                             volumes=[5e9, 3e9], mcaps=[7e9, 9e9])
        member = build_context(load_token(tmp_path, series), PARAMS).members["X"]
        assert member.volatility.max_volume == pytest.approx(5.0)
        assert member.volatility.max_mcap == pytest.approx(9.0)
        assert member.window == (date(2024, 1, 1), date(2024, 1, 2))

    def test_series_replace_summaries_given_beside_them(self, tmp_path):
        series = make_series("X", highs=[110, 120, 130], lows=[90, 100, 105],
                             closes=[100, 110, 120], start=date(2024, 2, 1))
        sentiment = SentimentSeries("X", [SentimentPoint(date(2024, 1, 1), 30.0, None),
                                          SentimentPoint(date(2024, 1, 2), 70.0, 0.1)])
        # table rows of _agg("X", 0.5, 0.9, 1.0, 1.0) and of
        # FgiIndicators("X", 50.0, 90.0, 10.0, 0.1, 0.1, 40.0, 0.2), which the files replace
        (tmp_path / "v.csv").write_text(",".join(VOLATILITY_TABLE_HEADER) + "\nX,50,90,1,1,standalone,\n")
        (tmp_path / "f.csv").write_text(",".join(FGI_TABLE_HEADER) + "\nX,50,90,10,10,10,40,20\n")
        given = load_token(tmp_path, series, sentiment, volatility_table="v.csv", fgi_table="f.csv")
        member = build_context(given, PARAMS).members["X"]
        assert member.volatility == aggregate(series, PARAMS.scale_unit)
        assert member.fgi == fgi_indicators(sentiment)
        assert member.window == (date(2024, 2, 1), date(2024, 2, 3))

    def test_token_without_series_is_stored_as_given(self, reference_inputs):
        ctx = build_context(reference_inputs, PARAMS)
        assert all(ctx.members[tid] is ti for tid, ti in reference_inputs.items())

    def test_sentiment_alone_gives_the_window_and_is_dropped(self, tmp_path):
        sentiment = SentimentSeries("X", [SentimentPoint(date(2024, 1, 1), 30.0, None),
                                          SentimentPoint(date(2024, 1, 5), 70.0, 0.1)])
        member = build_context(load_token(tmp_path, sentiment=sentiment), PARAMS).members["X"]
        assert member == TokenInputs(ChainRole.standalone(), fgi=fgi_indicators(sentiment),
                                     window=(date(2024, 1, 1), date(2024, 1, 5)))


class TestScoreMemory:
    """Each token's bars and sentiment are reduced as they are read, so scoring a
    raw universe holds one token's daily rows at a time, not tokens x days."""

    def test_a_loaded_raw_universe_holds_no_series(self, tmp_path):
        inputs = load_universe(write_raw_universe(tmp_path, 7, 10), PARAMS)
        assert len(inputs) == 7
        assert all(ti.window is not None and not any(
            isinstance(getattr(ti, f.name), (TokenSeries, SentimentSeries, HolderSnapshot))
            for f in fields(ti)) for ti in inputs.values())

    def test_traced_peak_does_not_double_with_the_days(self, tmp_path):
        universes = []
        for days in (50, 100):
            (tmp_path / str(days)).mkdir()
            universes.append(write_raw_universe(tmp_path / str(days), 20, days))
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            peaks = []
            for universe in [universes[0], *universes]:  # the first run pays first-use allocations
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
                score_universe(build_context(load_universe(universe, PARAMS), PARAMS))
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
        finally:
            if not tracing:
                tracemalloc.stop()
        # one token's rows, read as it is loaded, grow with the days; 20 tokens' would double
        assert peaks[2] < 1.5 * peaks[1], peaks


class TestScoreUniverse:
    def test_reference_vds_column(self, reference_inputs):
        report = score_universe(build_context(reference_inputs, PARAMS))
        scores = {t.token_id: t.vds for t in report.tokens}
        for token, expected in EXPECTED_VDS.items():
            assert scores[token] == pytest.approx(expected, abs=0.002), token

    def test_reference_sas_column(self, reference_inputs):
        report = score_universe(build_context(reference_inputs, PARAMS))
        scores = {t.token_id: t.sas for t in report.tokens}
        for token, expected in EXPECTED_SAS.items():
            assert scores[token] == pytest.approx(expected, abs=0.002), token

    def test_libra_sas_absent(self, reference_inputs):
        report = score_universe(build_context(reference_inputs, PARAMS))
        libra = next(t for t in report.tokens if t.token_id == "LIBRA")
        assert libra.sas is None
        assert libra.inputs.fgi is None

    def test_report_points_at_its_members(self, reference_inputs):
        ctx = build_context(reference_inputs, PARAMS)
        report = score_universe(ctx)
        assert all(t.inputs is ctx.members[t.token_id] for t in report.tokens)

    def test_tokens_ordered_by_ascending_vds(self, reference_inputs):
        report = score_universe(build_context(reference_inputs, PARAMS))
        ids = [t.token_id for t in report.tokens]
        assert ids[0] == "ETH" and ids[-2:] == ["MELANIA", "LIBRA"]
        values = [t.vds for t in report.tokens]
        assert values == sorted(values)

    def test_report_completeness(self, reference_inputs):
        report = score_universe(build_context(reference_inputs, PARAMS))
        assert sorted(t.token_id for t in report.tokens) == sorted(reference_inputs)

    def test_deterministic_and_order_independent(self, reference_inputs):
        a = score_universe(build_context(reference_inputs, PARAMS))
        reversed_inputs = dict(reversed(list(reference_inputs.items())))
        b = score_universe(build_context(reversed_inputs, PARAMS))
        assert a == b

    def test_flat_single_token_scores_zero_with_warning(self):
        series = make_series("X", highs=[100, 100, 100], lows=[100, 100, 100],
                             closes=[100, 100, 100])
        report = score_universe(build_context(
            {"X": TokenInputs(ChainRole.standalone(), aggregate(series, PARAMS.scale_unit))}, PARAMS))
        (token,) = report.tokens
        assert token.vds == 0.0
        assert any("degenerate" in w for w in report.warnings)

    def test_wds_computed_when_holders_present(self, reference_inputs):
        inputs = dict(reference_inputs)
        inputs["DOGE"] = replace(inputs["DOGE"],
                                 concentration=concentration(HolderSnapshot("DOGE", (0.5,)), PARAMS.n))
        report = score_universe(build_context(inputs, PARAMS))
        doge = next(t for t in report.tokens if t.token_id == "DOGE")
        assert doge.wds == 0.5  # single holder: wds equals its share
        others = [t.wds for t in report.tokens if t.token_id != "DOGE"]
        assert all(w is None for w in others)

    def test_per_token_failure_isolation(self):
        # base chain present but without volatility data: only the hosted
        # token's VDS fails, and it fails into a warning
        inputs = {
            "BASE": TokenInputs(ChainRole.standalone(),
                                concentration=concentration(HolderSnapshot("BASE", (0.4,)), PARAMS.n)),
            "HOSTED": TokenInputs(ChainRole.hosted_on("BASE"),
                                  volatility=_agg("HOSTED", 0.1, 0.2, 1.0, 1.0)),
        }
        report = score_universe(build_context(inputs, PARAMS))
        by_id = {t.token_id: t for t in report.tokens}
        assert by_id["HOSTED"].vds is None
        assert any("vds failed" in w for w in by_id["HOSTED"].warnings)
        assert by_id["BASE"].wds == 0.4

    @pytest.mark.parametrize("factor", [0.1, 0.5, 2.0, 10.0, 1000.0])
    def test_vds_ranking_stable_under_uniform_volume_rescale(self, reference_inputs, factor):
        base = score_universe(build_context(reference_inputs, PARAMS))
        rescaled_inputs = {
            tid: replace(
                ti,
                volatility=replace(
                    ti.volatility,
                    max_volume=ti.volatility.max_volume * factor,
                    max_mcap=ti.volatility.max_mcap * factor,
                ),
            )
            for tid, ti in reference_inputs.items()
        }
        rescaled = score_universe(build_context(rescaled_inputs, PARAMS))
        base_order = [t.token_id for t in base.tokens]
        rescaled_order = [t.token_id for t in rescaled.tokens]
        assert base_order == rescaled_order
        base_by_id = {t.token_id: t.vds for t in base.tokens}
        rescaled_by_id = {t.token_id: t.vds for t in rescaled.tokens}
        if factor != 1.0:
            assert any(rescaled_by_id[t] != base_by_id[t] for t in base_by_id)


def test_readme_library_snippet_runs(monkeypatch, capsys):
    root = Path(__file__).resolve().parent.parent
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    snippet = section.split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)  # the snippet names the fixture relative to the repository
    exec(compile(snippet, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == [
        "ETH", "SOL", "DOGE", "SHIB", "TRUMP", "PEPE", "FLOKI", "MELANIA", "LIBRA"
    ]
