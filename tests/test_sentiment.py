"""Sentiment indicators, band classification, and SAS math."""
from __future__ import annotations

import math
import random
from datetime import date, timedelta

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from me2f.domain import SentimentPoint, SentimentSeries
from me2f.errors import DegenerateUniverse, InsufficientHistory, InvalidSummary, OutOfRange
from me2f.ingest import load_fgi_table
from me2f.sentiment import (
    FgiBand,
    FgiIndicators,
    SentimentMaxima,
    classify_fgi,
    fgi_indicators,
    instability_index,
    sas,
    shock_index,
)
from conftest import REFERENCE_DIR, nudged


def series_from(fgi_values, returns=None, token="X"):
    returns = returns or [None] * len(fgi_values)
    points = tuple(
        SentimentPoint(date(2024, 1, 1) + timedelta(days=i), f, r)
        for i, (f, r) in enumerate(zip(fgi_values, returns))
    )
    return SentimentSeries(token, points)


@pytest.fixture(scope="module")
def reference_fgi():
    return load_fgi_table(REFERENCE_DIR / "reference_fgi.csv")


class TestClassifyFgi:
    @pytest.mark.parametrize("value,band", [
        (0, FgiBand.EXTREME_FEAR),
        (10, FgiBand.EXTREME_FEAR),
        (19.99, FgiBand.EXTREME_FEAR),
        (20, FgiBand.FEAR),
        (39.5, FgiBand.FEAR),
        (40, FgiBand.NEUTRAL),
        (50, FgiBand.NEUTRAL),
        (60, FgiBand.GREED),
        (79.999, FgiBand.GREED),
        (80, FgiBand.EXTREME_GREED),
        (94.5, FgiBand.EXTREME_GREED),
        (100, FgiBand.EXTREME_GREED),
    ])
    def test_bands(self, value, band):
        assert classify_fgi(value) is band

    @pytest.mark.parametrize("value", [-1, 100.5, float("nan")])
    def test_out_of_range(self, value):
        with pytest.raises(OutOfRange):
            classify_fgi(value)


class TestFgiIndicators:
    def test_constant_series(self):
        ind = fgi_indicators(series_from([50.0] * 5))
        assert ind.f_bar == 50.0
        assert ind.r_f == 0.0
        assert ind.q_g == 0.0 and ind.q_f == 0.0
        assert ind.delta_f_max == 0.0
        assert ind.delta_p_max == 0.0

    def test_three_point_hand_oracle(self):
        ind = fgi_indicators(series_from([10.0, 85.0, 40.0], [None, 0.12, 0.05]))
        assert ind.f_bar == pytest.approx(45.0)
        assert ind.r_f == pytest.approx(75.0)
        assert ind.q_g == pytest.approx(1 / 3)
        assert ind.q_f == pytest.approx(1 / 3)
        assert ind.delta_f_max == pytest.approx(75.0)
        assert ind.delta_p_max == pytest.approx(0.12)

    def test_insufficient_history(self):
        with pytest.raises(InsufficientHistory):
            fgi_indicators(series_from([50.0]))

    def test_matches_second_implementation(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(2, 60)
            fgis = [rng.uniform(0, 100) for _ in range(n)]
            rets = [None] + [rng.uniform(0, 0.5) for _ in range(n - 1)]
            ind = fgi_indicators(series_from(fgis, rets))
            # brute-force second pass
            assert ind.f_bar == pytest.approx(sum(fgis) / n, abs=1e-9)
            assert ind.f_max == max(fgis) and ind.f_min == min(fgis)
            assert ind.r_f == max(fgis) - min(fgis)
            assert ind.q_g == sum(1 for f in fgis if f >= 80) / n
            assert ind.q_f == sum(1 for f in fgis if f < 20) / n
            assert ind.delta_f_max == max(
                abs(fgis[i] - fgis[i - 1]) for i in range(1, n)
            )
            assert ind.delta_p_max == max(r for r in rets if r is not None)

    def test_band_count_consistency(self):
        rng = random.Random(5)
        fgis = [rng.uniform(0, 100) for _ in range(200)]
        ind = fgi_indicators(series_from(fgis))
        bands = [classify_fgi(f) for f in fgis]
        assert ind.q_g == bands.count(FgiBand.EXTREME_GREED) / len(fgis)
        assert ind.q_f == bands.count(FgiBand.EXTREME_FEAR) / len(fgis)


def _indicator(token="X", f_bar=50.0, f_max=80.0, f_min=20.0, q_g=0.1, q_f=0.1,
               delta_f=10.0, delta_p=0.1):
    return FgiIndicators(token, f_bar, f_max, f_min, q_g, q_f, delta_f, delta_p)


class TestInstabilityAndShock:
    def test_self_maximum_scores_one(self):
        ind = _indicator(f_bar=70.0)
        maxima = SentimentMaxima.over([ind])
        assert instability_index(ind, maxima) == pytest.approx(1.0)
        assert shock_index(ind, maxima) == pytest.approx(1.0)

    def test_reference_trump(self, reference_fgi):
        maxima = SentimentMaxima.over(reference_fgi.values())
        u = instability_index(reference_fgi["TRUMP"], maxima)
        k = shock_index(reference_fgi["TRUMP"], maxima)
        assert u == pytest.approx(0.7008, abs=1e-4)
        assert k == pytest.approx(0.9099, abs=1e-4)
        # component decomposition: 81.5/87.0, 1.73/2.21, 1.24/3.24
        assert u == pytest.approx((81.5 / 87.0 + 1.73 / 2.21 + 1.24 / 3.24) / 3, abs=1e-9)
        assert k == pytest.approx((50.5 / 55.5) * (22.40 / 22.40), abs=1e-9)

    def test_reference_doge(self, reference_fgi):
        maxima = SentimentMaxima.over(reference_fgi.values())
        assert instability_index(reference_fgi["DOGE"], maxima) == pytest.approx(0.6489, abs=1e-4)
        assert shock_index(reference_fgi["DOGE"], maxima) == pytest.approx(0.3408, abs=1e-4)

    def test_reference_maxima_holders(self, reference_fgi):
        maxima = SentimentMaxima.over(reference_fgi.values())
        assert maxima.r_f == pytest.approx(87.0)        # widest sentiment range: ETH
        assert maxima.extreme_share == pytest.approx(0.0221)  # ETH
        assert maxima.mean_bias == pytest.approx(3.24)  # MELANIA
        assert maxima.delta_f == pytest.approx(55.5)    # SOL
        assert maxima.delta_p == pytest.approx(0.2240)  # TRUMP

    def test_degenerate_maxima_component_scores_zero(self):
        ind = _indicator(f_bar=50.0, f_max=50.0, f_min=50.0, q_g=0.0, q_f=0.0,
                         delta_f=0.0, delta_p=0.0)
        maxima = SentimentMaxima.over([ind])
        assert instability_index(ind, maxima) == 0.0
        assert shock_index(ind, maxima) == 0.0
        assert set(maxima.degenerate_components()) == {
            "r_f", "extreme_share", "mean_bias", "delta_f", "delta_p"
        }

    @pytest.mark.parametrize("field,move", [("delta_f", -1.0), ("delta_p", -5e-324)])
    def test_negative_largest_move_is_rejected(self, field, move):
        # it would make the shock index negative and K**delta complex
        with pytest.raises(InvalidSummary, match=f"{field}_max={move!r} is negative"):
            _indicator(**{field: move})

    @pytest.mark.parametrize("field,value", [
        ("f_min", -1.0), ("f_max", 101.0), ("f_bar", 100 + 1e-12), ("f_min", float("nan")),
    ])
    def test_fgi_value_outside_0_100_is_rejected(self, field, value):
        kwargs = {"f_bar": 50.0, "f_max": 100.0, "f_min": 0.0, field: value}
        with pytest.raises(InvalidSummary) as err:
            FgiIndicators("X", kwargs["f_bar"], kwargs["f_max"], kwargs["f_min"], 0.1, 0.1, 1.0, 0.1)
        assert err.value.field == field
        assert str(err.value) == f"X: {field}={value!r} outside [0, 100]"

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("field,name", [("q_g", "q_g"), ("q_f", "q_f"), ("delta_f", "delta_f_max"),
                                            ("delta_p", "delta_p_max")])
    def test_a_non_finite_number_is_rejected_naming_its_field(self, field, name, value):
        # NaN passed the old "not negative" rules, and inf the move rules
        with pytest.raises(InvalidSummary) as err:
            _indicator(**{field: value})
        assert (err.value.field, str(err.value)) == (name, f"X: {name}={value!r} is not finite")

    @pytest.mark.parametrize("kwargs,field", [
        ({"delta_f": -1.0}, "delta_f_max"), ({"delta_p": -1.0}, "delta_p_max"),
        ({"f_bar": 90.0}, "f_bar"), ({"q_g": 0.6, "q_f": 0.5}, "q_g"), ({"q_f": -0.1}, "q_g"),
        ({"delta_p": 1e307}, "delta_p_max"),  # its delta_p_max_pct would be Infinity
    ])
    def test_each_rule_names_its_field(self, kwargs, field):
        with pytest.raises(InvalidSummary) as err:
            _indicator(**kwargs)
        assert err.value.field == field

    def test_empty_universe(self):
        with pytest.raises(DegenerateUniverse):
            SentimentMaxima.over([])


class TestSas:
    def test_reference_trump(self):
        assert sas(0.700768, 0.909910, 1.5) == pytest.approx(0.608, abs=0.002)

    def test_reference_doge(self):
        assert sas(0.648967, 0.340794, 1.5) == pytest.approx(0.129, abs=0.002)

    def test_zero_shock(self):
        assert sas(0.9, 0.0, 1.5) == 0.0


# --- properties ----------------------------------------------------------

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


class TestProperties:
    @given(unit, unit, st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=100)
    def test_sas_bounds(self, u, k, delta):
        value = sas(u, k, delta)
        assert 0.0 <= value <= 1.0
        assert value <= u + 1e-15
        assert value <= k**delta + 1e-15

    @given(unit, unit, st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=100)
    def test_shock_exponent_only_shrinks(self, u, k, delta):
        assert sas(u, k, delta) <= u * k + 1e-15

    @given(unit, unit, unit, unit)
    @settings(max_examples=60)
    def test_sas_monotone(self, u1, u2, k1, k2):
        u_lo, u_hi = sorted([u1, u2])
        k_lo, k_hi = sorted([k1, k2])
        assert sas(u_lo, k_lo, 1.5) <= sas(u_hi, k_lo, 1.5) + 1e-15
        assert sas(u_hi, k_lo, 1.5) <= sas(u_hi, k_hi, 1.5) + 1e-15

    @given(st.floats(0.0, 100.0), st.lists(st.integers(-3, 3), min_size=2, max_size=60))
    @example(12.34, [0] * 3)  # whose mean rounds above 12.34
    @settings(max_examples=60, derandomize=True)
    def test_near_constant_fgi_has_a_valid_mean(self, value, ulps):
        # the exact mean lies in [f_min, f_max]; the rounded one is put back there
        ind = fgi_indicators(series_from([min(max(nudged(value, steps), 0.0), 100.0)
                                          for steps in ulps]))
        assert ind.f_min <= ind.f_bar <= ind.f_max

    def test_adding_strictly_dominated_token_changes_nothing(self, reference_fgi):
        maxima = SentimentMaxima.over(reference_fgi.values())
        dominated = _indicator(token="TINY", f_bar=50.1, f_max=60.0, f_min=45.0,
                               q_g=0.001, q_f=0.0, delta_f=1.0, delta_p=0.001)
        extended = SentimentMaxima.over(list(reference_fgi.values()) + [dominated])
        assert extended == maxima
        for ind in reference_fgi.values():
            assert instability_index(ind, extended) == instability_index(ind, maxima)
            assert shock_index(ind, extended) == shock_index(ind, maxima)
