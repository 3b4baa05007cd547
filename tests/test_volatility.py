"""Volatility pipeline: worked examples and structural properties."""
from __future__ import annotations

import sys
from datetime import date, timedelta
from operator import add, truediv

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EXPECTED_VDS, make_series, nudged
from me2f.domain import ChainRole, DailyBar, FrameworkParams, TokenSeries
from me2f.errors import (
    ConfigError,
    DegenerateUniverse,
    InsufficientHistory,
    InvalidSummary,
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

    def test_a_scale_unit_that_overflows_a_size_is_a_config_error(self):
        series = make_series("X", highs=[100, 110], lows=[90, 95], closes=[95, 100])
        with pytest.raises(ConfigError, match=r"^X: max_volume of 1000000000\.0 USD overflows "
                                              r"in units of scale_unit=1e-300$"):
            aggregate(series, scale_unit=1e-300)
        assert aggregate(series, scale_unit=1e-290).max_volume == 1e9 / 1e-290


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


class TestVolatilityAggregateRules:
    @pytest.mark.parametrize("args,field,message", [
        ((0.1, 0.2, -1.0, 2.0), "max_volume", "negative size -1.0"),
        ((0.1, 0.2, 1.0, -2.0), "max_mcap", "negative size -2.0"),
        ((0.3, 0.2, 1.0, 2.0), "avg_vol", "X: need 0 <= avg_vol <= max_vol, got (0.3, 0.2)"),
        ((-0.1, 0.2, 1.0, 2.0), "avg_vol", "X: need 0 <= avg_vol <= max_vol, got (-0.1, 0.2)"),
        # finite, but the report's max_vol_pct of it was Infinity, which is not JSON
        ((0.1, 1.5e308, 1.0, 2.0), "max_vol", "X: max_vol=1.5e+308 overflows as a percentage"),
    ])
    def test_a_broken_rule_raises_naming_its_field(self, args, field, message):
        with pytest.raises(InvalidSummary) as err:
            VolatilityAggregate("X", *args)
        assert (err.value.field, str(err.value)) == (field, message)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field", ["avg_vol", "max_vol", "max_volume", "max_mcap"])
    def test_a_non_finite_number_is_rejected_naming_its_field(self, field, value):
        # NaN passed the old "not negative" size rules, and inf every rule
        kwargs = {"avg_vol": 0.1, "max_vol": 0.2, "max_volume": 1.0, "max_mcap": 2.0, field: value}
        with pytest.raises(InvalidSummary) as err:
            VolatilityAggregate("X", **kwargs)
        assert (err.value.field, str(err.value)) == (field, f"X: {field}={value!r} is not finite")

    @pytest.mark.parametrize("highs,lows,closes", [
        ([111, 112, 113], [89, 88, 87], [1e-320, 102, 100]),  # one day's range over the close is inf
    ], ids=["inf_day"])
    def test_aggregate_of_extreme_bars_is_rejected_not_inf(self, highs, lows, closes):
        with pytest.raises(InvalidSummary, match=r"^X: avg_vol=inf is not finite$"):
            aggregate(make_series("X", highs=highs, lows=lows, closes=closes))

    # The largest day whose percentage is finite is sys.float_info.max / 100, so a sum
    # overflows only past 100 days.
    @pytest.mark.parametrize("days,mean", [
        ([1.5e306] * 200, 1.5e306),
        ([1e306] * 100 + [1.5e306] * 100, 1.25e306),
        *(([sys.float_info.max / 100] * n, None) for n in (101, 1000)),
    ], ids=["equal", "mixed", "top_x101", "top_x1000"])
    def test_finite_days_whose_sum_overflows_have_their_finite_mean(self, days, mean):
        n = len(days) + 1  # the first bar gives no day: its close is 1, as every other one
        agg = aggregate(make_series("X", highs=[1.0, *days], lows=[1.0] * n, closes=[1.0] * n))
        assert agg.max_vol == max(days)
        if mean is None:  # the exact mean is the max, within the rounding of a sum and a division
            assert agg.max_vol * (1 - 2 ** -51) <= agg.avg_vol <= agg.max_vol
        else:
            assert agg.avg_vol == mean

    # Their sum overflows, and a plain fsum(v / n) would too at n = 3, 6, 7 and 9, raising
    # OverflowError; the scaled sum gives the float maximum, whose percentage is not finite.
    @pytest.mark.parametrize("n", [2, 3, 6, 7, 9, 100])
    def test_days_at_the_float_maximum_are_rejected_not_overflowed(self, n):
        days = [sys.float_info.max] * n
        with pytest.raises(InvalidSummary) as err:
            aggregate(make_series("X", highs=[1.0, *days], lows=[1.0] * (n + 1), closes=[1.0] * (n + 1)))
        assert (err.value.field, str(err.value)) == (
            "max_vol", f"X: max_vol={sys.float_info.max!r} overflows as a percentage")

    def test_zero_sizes_are_accepted(self):
        assert VolatilityAggregate("X", 0.0, 0.0, 0.0, -0.0).max_volume == 0.0

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

    # the spillover overflowed to an Infinity VDS, and to NaN with a huge gamma too
    @pytest.mark.parametrize("gamma", [1.0, sys.float_info.max])
    def test_spillover_past_the_float_range_names_beta(self, reference_inputs, gamma):
        aggs, roles = reference_maps(reference_inputs)
        params = FrameworkParams(beta=sys.float_info.max, gamma=gamma)
        with pytest.raises(ConfigError, match=r"^[A-Z]+: VDS overflows with beta=1\.7976931348623157e\+308$"):
            vds_scores(aggs, roles, params)


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

    @given(st.floats(1e-6, 1e6), st.floats(0.0, 10.0),
           st.lists(st.integers(0, 3), min_size=2, max_size=60))
    @example(1.0, 0.3, [0] * 8)  # seven days of 0.30000000000000004, whose mean rounds above them
    @settings(max_examples=60, derandomize=True)
    def test_near_constant_days_have_a_valid_mean(self, price, move, ulps):
        # the exact mean is at most the greatest day; the rounded one is put back there
        n = len(ulps)
        days = [date(2024, 1, 1) + timedelta(days=i) for i in range(n)]
        high = [nudged(price * (1 + move), steps) for steps in ulps]
        agg = aggregate(TokenSeries.from_columns("T", days, high, [price] * n, [price] * n,
                                                 [1e9] * n, [1e10] * n))
        assert 0 <= agg.avg_vol <= agg.max_vol

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
