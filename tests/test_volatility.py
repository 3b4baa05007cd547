"""Volatility pipeline: worked examples and structural properties."""
from __future__ import annotations

import sys
from datetime import date, timedelta
from operator import add, truediv

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EXPECTED_VDS, make_series
from me2f.domain import ChainRole, DailyBar, FrameworkParams, TokenSeries
from me2f.errors import (
    DegenerateUniverse,
    InsufficientHistory,
    MissingBaseChain,
    NonPositiveScale,
    ZeroPrevClose,
)
from me2f.volatility import (
    NormalizedVolatility,
    VolatilityAggregate,
    aggregate,
    composite,
    daily_range_volatility,
    normalize_cross_section,
    resilience,
    scale_factor,
    spillover_factor,
    vds_scores,
)

STANDALONE = ChainRole.standalone()


def _bar(day, high, low, close):
    return DailyBar(date(2024, 1, day), high, low, close, 1e9, 2e9)


def reference_maps(reference_inputs):
    aggs = {tid: ti.volatility for tid, ti in reference_inputs.items()}
    roles = {tid: ti.role for tid, ti in reference_inputs.items()}
    return aggs, roles


class TestDailyRangeVolatility:
    def test_direct_substitution(self):
        assert daily_range_volatility(_bar(2, 110, 90, 100), 100.0) == pytest.approx(0.20)

    def test_flat_day(self):
        assert daily_range_volatility(_bar(2, 50, 50, 50), 100.0) == 0.0

    def test_wide_range(self):
        assert daily_range_volatility(_bar(2, 50, 20, 40), 40.0) == pytest.approx(0.75)

    def test_zero_prev_close(self):
        with pytest.raises(ZeroPrevClose):
            daily_range_volatility(_bar(2, 110, 90, 100), 0.0)


class TestAggregate:
    def test_two_point_mean_max(self):
        # V = {0.1, 0.3}: ranges 10 and 30 against closes of 100
        series = make_series("X", highs=[105, 105, 115], lows=[95, 95, 85], closes=[100, 100, 100])
        agg = aggregate(series)
        assert agg.avg_vol == pytest.approx(0.2)
        assert agg.max_vol == pytest.approx(0.3)

    def test_flat_series(self):
        series = make_series("X", highs=[100] * 4, lows=[100] * 4, closes=[100] * 4)
        agg = aggregate(series)
        assert agg.avg_vol == 0.0 and agg.max_vol == 0.0

    def test_four_bar_hand_oracle(self):
        # Per-day oracle: V_t = (high_t - low_t) / close_{t-1}
        # -> {45/100, 15/120, 4/90} = {0.45, 0.125, 0.0444}
        series = make_series(
            "X", highs=[125, 130, 95, 92], lows=[95, 85, 80, 88], closes=[100, 120, 90, 90]
        )
        agg = aggregate(series)
        expected = [45 / 100, 15 / 120, 4 / 90]
        assert agg.avg_vol == pytest.approx(sum(expected) / 3)
        assert agg.max_vol == pytest.approx(0.45)

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            aggregate(make_series("X", highs=[100], lows=[90], closes=[95]))

    def test_first_bar_contributes_to_scale_maxima(self):
        series = TokenSeries("X", (
            DailyBar(date(2024, 1, 1), 100, 90, 95, 9e9, 8e9),
            DailyBar(date(2024, 1, 2), 100, 90, 95, 1e9, 1e9),
        ))
        agg = aggregate(series, scale_unit=1e9)
        assert agg.max_volume == pytest.approx(9.0)
        assert agg.max_mcap == pytest.approx(8.0)


class TestNormalizeCrossSection:
    def test_single_token_is_its_own_maximum(self):
        agg = VolatilityAggregate("X", 0.1, 0.2, 1.0, 1.0)
        nv = normalize_cross_section([agg])["X"]
        assert (nv.v_a, nv.v_m) == (1.0, 1.0)

    def test_reference_ratios(self, reference_inputs):
        aggs, _ = reference_maps(reference_inputs)
        nvs = normalize_cross_section(aggs.values())
        assert nvs["DOGE"].v_a == pytest.approx(6.27 / 15.26, abs=1e-9)
        assert nvs["DOGE"].v_m == pytest.approx(41.19 / 301.77, abs=1e-9)
        assert nvs["ETH"].v_a == pytest.approx(0.2831, abs=1e-4)
        assert nvs["ETH"].v_m == pytest.approx(0.0878, abs=1e-4)
        # maxima attained by TRUMP (average) and PEPE (extreme)
        assert nvs["TRUMP"].v_a == 1.0
        assert nvs["PEPE"].v_m == 1.0

    def test_degenerate_universe(self):
        with pytest.raises(DegenerateUniverse):
            normalize_cross_section([VolatilityAggregate("X", 0.0, 0.0, 1.0, 1.0)])

    def test_empty(self):
        with pytest.raises(DegenerateUniverse):
            normalize_cross_section([])


class TestComposite:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.5, 1.0])
    def test_fixed_point(self, alpha):
        nv = NormalizedVolatility("X", 0.42, 0.42)
        assert composite(nv, alpha) == pytest.approx(0.42)

    def test_reference_doge(self, reference_inputs):
        aggs, _ = reference_maps(reference_inputs)
        nv = normalize_cross_section(aggs.values())["DOGE"]
        assert composite(nv, 0.5) == pytest.approx(0.2737, abs=1e-4)

    def test_alpha_one_selects_average_component(self):
        nv = NormalizedVolatility("X", 0.7, 0.2)
        assert composite(nv, 1.0) == pytest.approx(0.7)


class TestScaleAndResilience:
    def test_harmonic_mean_of_equals(self):
        assert scale_factor(10.0, 10.0) == pytest.approx(10.0)

    def test_reference_doge(self):
        assert scale_factor(399.36, 687.49) == pytest.approx(505.23, abs=0.01)

    def test_reference_libra(self):
        assert scale_factor(16.68, 1.19) == pytest.approx(2.2215, abs=1e-4)

    def test_bounded_by_inputs(self):
        s = scale_factor(3.0, 11.0)
        assert 3.0 <= s <= 11.0

    def test_non_positive(self):
        with pytest.raises(NonPositiveScale):
            scale_factor(0.0, 5.0)

    def test_resilience_at_zero_scale(self):
        assert resilience(0.0, 0.5) == 1.0

    def test_resilience_reference_values(self):
        assert resilience(scale_factor(399.36, 687.49), 0.5) == pytest.approx(0.003943, abs=1e-6)
        assert resilience(scale_factor(924.54, 4884.02), 0.5) == pytest.approx(0.001285, abs=1e-6)


class TestSpillover:
    def test_zero_volatility_base(self):
        assert spillover_factor(NormalizedVolatility("B", 0.0, 0.0), 100.0, 0.5) == 1.0

    def test_reference_eth_base(self, reference_inputs):
        aggs, _ = reference_maps(reference_inputs)
        nvs = normalize_cross_section(aggs.values())
        eth_scale = scale_factor(aggs["ETH"].max_volume, aggs["ETH"].max_mcap)
        assert spillover_factor(nvs["ETH"], eth_scale, 0.5) == pytest.approx(1.6815, abs=1e-3)

    def test_reference_sol_base(self, reference_inputs):
        aggs, _ = reference_maps(reference_inputs)
        nvs = normalize_cross_section(aggs.values())
        sol_scale = scale_factor(aggs["SOL"].max_volume, aggs["SOL"].max_mcap)
        assert spillover_factor(nvs["SOL"], sol_scale, 0.5) == pytest.approx(1.8266, abs=1e-3)


class TestVds:
    def test_reference_values(self, reference_inputs):
        aggs, roles = reference_maps(reference_inputs)
        scores = vds_scores(aggs, roles, FrameworkParams())
        for token, expected in EXPECTED_VDS.items():
            assert scores[token] == pytest.approx(expected, abs=0.002), token

    def test_missing_base_chain(self):
        aggs = {"X": VolatilityAggregate("X", 0.1, 0.2, 1.0, 1.0)}
        roles = {"X": ChainRole.hosted_on("ETH")}
        with pytest.raises(MissingBaseChain):
            vds_scores(aggs, roles, FrameworkParams())

    def test_hosted_base_itself_hosted(self):
        aggs = {
            "X": VolatilityAggregate("X", 0.1, 0.2, 1.0, 1.0),
            "Y": VolatilityAggregate("Y", 0.1, 0.2, 1.0, 1.0),
        }
        roles = {"X": ChainRole.hosted_on("Y"), "Y": ChainRole.hosted_on("X")}
        with pytest.raises(MissingBaseChain):
            vds_scores(aggs, roles, FrameworkParams())


# --- properties ----------------------------------------------------------

positive_price = st.floats(min_value=0.01, max_value=1e6, allow_nan=False, allow_infinity=False)


@st.composite
def bar_series(draw, min_bars=2, max_bars=15):
    n = draw(st.integers(min_value=min_bars, max_value=max_bars))
    bars = []
    for i in range(n):
        low = draw(positive_price)
        high = low * draw(st.floats(min_value=1.0, max_value=3.0))
        close = low + (high - low) * draw(st.floats(min_value=0.0, max_value=1.0))
        bars.append(DailyBar(date(2020, 1, 1) + timedelta(days=i),
                             high, low, close, 1e9, 2e9))
    return TokenSeries("T", tuple(bars))


def scaled(series: TokenSeries, factor: float) -> TokenSeries:
    return TokenSeries(series.token_id, tuple(
        DailyBar(b.date, b.high * factor, b.low * factor, b.close * factor,
                 b.volume_usd, b.market_cap_usd)
        for b in series.bars
    ))


class TestProperties:
    @given(bar_series(), st.integers(min_value=-6, max_value=6))
    @settings(max_examples=60)
    def test_price_scale_invariance_exact_for_pow2(self, series, k):
        factor = 2.0**k
        a1 = aggregate(series)
        a2 = aggregate(scaled(series, factor))
        assert a1.avg_vol == a2.avg_vol
        assert a1.max_vol == a2.max_vol

    @given(bar_series(), st.floats(min_value=0.1, max_value=10.0, allow_nan=False))
    @example(  # high one ulp above low: the scaled range is off by 1.2e-12
        TokenSeries("T", (
            DailyBar(date(2020, 1, 1), 0.015625, 0.015625, 0.015625, 1e9, 2e9),
            DailyBar(date(2020, 1, 2), 192.00000000000006, 192.0, 192.0, 1e9, 2e9),
        )),
        0.75,
    )
    @settings(max_examples=60, derandomize=True)
    def test_price_scale_invariance_approx_general(self, series, factor):
        a1 = aggregate(series)
        a2 = aggregate(scaled(series, factor))
        # Scaling rounds high and low apart, so high - low moves by up to about
        # eps * (high + low), however close the two are: relative to the
        # previous close, eps * (high + low) / prev_close. Twice that bounds it.
        bound = 2 * sys.float_info.epsilon * max(
            map(truediv, map(add, series.high[1:], series.low[1:]), series.close[:-1])
        )
        assert a2.avg_vol == pytest.approx(a1.avg_vol, rel=1e-9, abs=bound)
        assert a2.max_vol == pytest.approx(a1.max_vol, rel=1e-9, abs=bound)

    @given(st.lists(st.tuples(st.floats(min_value=0.0, max_value=2.0),
                              st.floats(min_value=0.0, max_value=3.0)),
                    min_size=1, max_size=8))
    @settings(max_examples=100)
    def test_normalization_bounds_and_maximizer(self, pairs):
        aggs = [
            VolatilityAggregate(f"T{i}", min(a, a + m), a + m, 1.0, 1.0)
            for i, (a, m) in enumerate(pairs)
        ]
        if all(x.avg_vol == 0 for x in aggs) or all(x.max_vol == 0 for x in aggs):
            with pytest.raises(DegenerateUniverse):
                normalize_cross_section(aggs)
            return
        nvs = normalize_cross_section(aggs)
        assert all(0.0 <= nv.v_a <= 1.0 and 0.0 <= nv.v_m <= 1.0 for nv in nvs.values())
        assert any(nv.v_a == 1.0 for nv in nvs.values())
        assert any(nv.v_m == 1.0 for nv in nvs.values())

    @given(st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.001, max_value=1e4), st.floats(min_value=0.01, max_value=5.0))
    @settings(max_examples=100)
    def test_spillover_at_least_one(self, v_a, v_m, base_scale, beta):
        assert spillover_factor(NormalizedVolatility("B", v_a, v_m), base_scale, beta) >= 1.0

    def test_standalone_vds_at_most_one(self):
        # phi = composite * resilience, both in [0, 1]
        aggs = {
            "A": VolatilityAggregate("A", 1.5, 3.0, 0.001, 0.001),
            "B": VolatilityAggregate("B", 0.2, 0.4, 10.0, 10.0),
        }
        roles = {"A": STANDALONE, "B": STANDALONE}
        scores = vds_scores(aggs, roles, FrameworkParams())
        assert all(0.0 <= s <= 1.0 for s in scores.values())

    def test_removing_non_maximizer_leaves_others_unchanged(self, reference_inputs):
        aggs, roles = reference_maps(reference_inputs)
        params = FrameworkParams()
        before = vds_scores(aggs, roles, params)
        # MELANIA maximizes neither column and is nobody's base chain
        pruned_aggs = {t: a for t, a in aggs.items() if t != "MELANIA"}
        pruned_roles = {t: r for t, r in roles.items() if t != "MELANIA"}
        after = vds_scores(pruned_aggs, pruned_roles, params)
        for token, score in after.items():
            assert score == before[token]
