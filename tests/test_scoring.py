"""Universe scoring: context construction, report assembly, reference values."""
from __future__ import annotations

from dataclasses import replace
from datetime import date

import pytest

from conftest import EXPECTED_SAS, EXPECTED_VDS, make_series
from me2f.domain import ChainRole, FrameworkParams, HolderSnapshot
from me2f.errors import EmptyUniverse, MissingBaseChain
from me2f.scoring import TokenInputs, build_context, score_universe
from me2f.sentiment import sentiment_maxima
from me2f.volatility import VolatilityAggregate, normalize_cross_section

PARAMS = FrameworkParams()


def _agg(token, avg, vmax, z, c):
    return VolatilityAggregate(token, avg, vmax, z, c)


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
        assert sentiment_maxima(fgis) == ctx.sent_maxima

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

    def test_raw_series_aggregated_with_scale_unit(self):
        series = make_series("X", highs=[110, 120], lows=[90, 100], closes=[100, 110],
                             volumes=[5e9, 3e9], mcaps=[7e9, 9e9])
        ctx = build_context({"X": TokenInputs(ChainRole.standalone(), series=series)}, PARAMS)
        member = ctx.members["X"]
        assert member.volatility.max_volume == pytest.approx(5.0)
        assert member.volatility.max_mcap == pytest.approx(9.0)
        assert member.window == (date(2024, 1, 1), date(2024, 1, 2))


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
        assert libra.fgi is None

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
        report = score_universe(
            build_context({"X": TokenInputs(ChainRole.standalone(), series=series)}, PARAMS)
        )
        (token,) = report.tokens
        assert token.vds == 0.0
        assert any("degenerate" in w for w in report.warnings)

    def test_wds_computed_when_holders_present(self, reference_inputs):
        inputs = dict(reference_inputs)
        inputs["DOGE"] = replace(inputs["DOGE"], holders=HolderSnapshot("DOGE", (0.5,)))
        report = score_universe(build_context(inputs, PARAMS))
        doge = next(t for t in report.tokens if t.token_id == "DOGE")
        assert doge.wds == 0.5  # single holder: wds equals its share
        others = [t.wds for t in report.tokens if t.token_id != "DOGE"]
        assert all(w is None for w in others)

    def test_per_token_failure_isolation(self):
        # base chain present but without volatility data: only the hosted
        # token's VDS fails, and it fails into a warning
        inputs = {
            "BASE": TokenInputs(ChainRole.standalone(), holders=HolderSnapshot("BASE", (0.4,))),
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
