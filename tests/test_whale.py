"""Concentration metrics: worked examples, oracle checks, and properties."""
from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from me2f.domain import HolderSnapshot
from me2f.errors import ConfigError, InvalidSummary
from me2f.whale import ConcentrationResult, concentration, wds


def snapshot(*shares: float) -> HolderSnapshot:
    return HolderSnapshot("X", tuple(sorted(shares, reverse=True)))


def brute_force_wds(shares, n):
    """Independent float-arithmetic composition of the four formulas."""
    shares = sorted(shares, reverse=True)[:n]
    c = sum(shares)
    if c == 0:
        return 0.0
    h = sum(s * s for s in shares)
    n_int = ((h / (c * c)) - 1.0 / n) / (1.0 - 1.0 / n)
    return c * n_int


def random_snapshot(rng: random.Random, max_holders: int = 100) -> HolderSnapshot:
    count = rng.randint(1, max_holders)
    raw = [rng.random() for _ in range(count)]
    total = sum(raw)
    budget = rng.uniform(0.05, 1.0)
    return snapshot(*(x / total * budget for x in raw))


class TestConcentrationResultRules:
    @pytest.mark.parametrize("c,n_internal,field", [
        (1.5, 0.5, "c"), (-0.1, 0.5, "c"), (float("nan"), 0.5, "c"),
        (0.5, 1 + 1e-12, "n_internal"), (0.5, -1e-12, "n_internal"),
    ])
    def test_out_of_range_raises_naming_its_field(self, c, n_internal, field):
        with pytest.raises(InvalidSummary) as err:
            ConcentrationResult("X", c, 0.1, n_internal, 0.1)
        assert err.value.field == field
        assert str(err.value) == f"X: {field}={c if field == 'c' else n_internal} outside [0, 1]"


class TestCumulativeShare:
    def test_empty(self):
        assert concentration(HolderSnapshot("X", ()), 100).c == 0.0

    def test_hundred_equal(self):
        assert concentration(snapshot(*[0.005] * 100), 100).c == pytest.approx(0.5)

    def test_single(self):
        assert concentration(snapshot(0.6), 100).c == 0.6


class TestHhi:
    def test_hundred_equal(self):
        assert concentration(snapshot(*[0.005] * 100), 100).h == pytest.approx(0.0025)

    def test_single(self):
        assert concentration(snapshot(0.6), 100).h == pytest.approx(0.36)

    def test_matches_brute_force_on_random_vector(self):
        rng = random.Random(7)
        snap = random_snapshot(rng, 100)
        assert concentration(snap, 100).h == pytest.approx(
            sum(s * s for s in snap.shares), abs=1e-15
        )


class TestInternalConcentration:
    def test_equal_distribution_is_zero(self):
        assert concentration(snapshot(*[0.005] * 100), 100).n_internal == 0.0

    def test_single_holder_is_one(self):
        assert concentration(snapshot(0.6), 100).n_internal == 1.0

    def test_two_equal_holders_hand_oracle(self):
        # four holders of 0.125: c = 0.5, h = 0.0625, h / c^2 = 0.25
        assert concentration(snapshot(*[0.125] * 4), 100).n_internal == pytest.approx(
            (0.25 - 0.01) / 0.99, abs=1e-12
        )

    def test_n_below_two(self):
        with pytest.raises(ConfigError):
            concentration(snapshot(0.5, 0.1), 1)


class TestWds:
    def test_hundred_equal_is_exactly_zero(self):
        assert wds(snapshot(*[0.005] * 100), 100) == 0.0

    def test_single_holder_equals_share_exactly(self):
        assert wds(snapshot(0.6), 100) == 0.6

    def test_empty_snapshot(self):
        assert wds(HolderSnapshot("X", ()), 100) == 0.0

    def test_all_zero_shares(self):
        assert wds(snapshot(0.0, 0.0, 0.0), 100) == 0.0

    def test_truncates_to_top_n(self):
        shares = [0.004] * 150
        # top 100 of 150 equal holders: equal distribution -> 0
        assert wds(snapshot(*shares), 100) == 0.0

    def test_matches_brute_force_composition(self):
        rng = random.Random(11)
        for _ in range(50):
            snap = random_snapshot(rng)
            assert wds(snap, 100) == pytest.approx(
                brute_force_wds(snap.shares, 100), abs=1e-12
            )

    def test_concentration_result_consistency(self):
        snap = snapshot(0.4, 0.2, 0.1)
        result = concentration(snap, 100)
        assert result.wds == result.c * result.n_internal
        assert result.c == pytest.approx(0.7)
        assert result.h == pytest.approx(0.16 + 0.04 + 0.01)


# --- properties ----------------------------------------------------------

share_lists = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False), min_size=1, max_size=60
).map(lambda xs: [x / (sum(xs) + 1.0) for x in xs])  # sum < 1 by construction


class TestProperties:
    @given(share_lists)
    @settings(max_examples=100)
    def test_permutation_invariance(self, shares):
        snap = snapshot(*shares)
        # C and H are order-free sums; the snapshot itself canonicalizes order
        result = concentration(snap, len(shares) + 1)
        assert result.c == pytest.approx(math.fsum(shares), abs=1e-15)
        assert result.h == pytest.approx(math.fsum(s * s for s in shares), abs=1e-15)

    @given(share_lists, st.integers(min_value=2, max_value=150))
    @settings(max_examples=100)
    def test_bounds(self, shares, n):
        snap = snapshot(*shares)
        result = concentration(snap, n)
        assert 0.0 <= result.n_internal <= 1.0
        assert 0.0 <= result.wds <= result.c <= 1.0

    @given(share_lists.filter(lambda xs: all(x == 0 or x > 1e-12 for x in xs)),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=100)
    def test_scaling_shares_by_pow2_preserves_internal_concentration(self, shares, k):
        # power-of-two scaling is exact in floats (no underflow at these sizes)
        lam = 2.0**-k
        before = concentration(snapshot(*shares), 100)
        after = concentration(snapshot(*(s * lam for s in shares)), 100)
        assert after.n_internal == before.n_internal  # exact: lambda is a power of two
        assert after.wds == pytest.approx(before.wds * lam, rel=1e-12, abs=1e-15)

    @given(share_lists.filter(lambda xs: len(xs) >= 2 and min(xs) > 1e-6))
    @settings(max_examples=100)
    def test_regressive_transfer_increases_wds(self, shares):
        ordered = sorted(shares, reverse=True)
        i, j = 0, len(ordered) - 1
        eps = ordered[j] * 0.5
        transferred = list(ordered)
        transferred[i] += eps
        transferred[j] -= eps
        before = wds(snapshot(*ordered), 100)
        after = wds(snapshot(*transferred), 100)
        assert after > before


# --- the exact rational formula the float one replaced --------------------

def fraction_concentration(shares, n):
    """(c, n_internal, wds) with h / c^2 rescaled in exact rational arithmetic."""
    shares = shares[:n]
    c_exact = sum((Fraction(s) for s in shares), Fraction(0))
    total = math.fsum(shares)
    c = 1.0 if total > 1.0 else total
    if c_exact == 0:
        return 0.0, 0.0, 0.0
    h_exact = sum((Fraction(s) ** 2 for s in shares), Fraction(0))
    ratio = h_exact / (c_exact * c_exact)
    n_internal = float((ratio - Fraction(1, n)) / (1 - Fraction(1, n)))
    return c, n_internal, c * n_internal


@st.composite
def sized_snapshots(draw):
    """(shares, n) with k = len(shares) below, at or above n, zero tails,
    runs of equal shares and shares small enough to underflow when squared."""
    n = draw(st.sampled_from([2, 3, 10, 100]) | st.integers(min_value=2, max_value=150))
    k = draw(st.sampled_from([1, n - 1, n, n + 5]) | st.integers(min_value=1, max_value=n + 10))
    k = max(1, k)
    value = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.0, 1e-200, 0.25])
    if draw(st.booleans()):
        raw = [draw(value)] * k
    else:
        raw = draw(st.lists(value, min_size=k, max_size=k))
    raw += [0.0] * draw(st.integers(min_value=0, max_value=3))
    total = math.fsum(raw)
    budget = draw(st.floats(min_value=1e-6, max_value=1.0))
    if total > budget:
        raw = [x / total * budget for x in raw]
    return tuple(sorted(raw, reverse=True)), n


class TestFloatMatchesFractionOracle:
    @given(sized_snapshots())
    @settings(max_examples=200)
    def test_within_1e12_of_fraction_oracle(self, case):
        shares, n = case
        result = concentration(HolderSnapshot("X", shares), n)
        c, n_internal, expected = fraction_concentration(shares, n)
        assert result.c == c
        assert abs(result.n_internal - n_internal) <= 1e-12
        assert abs(result.wds - expected) <= 1e-12

    @given(st.floats(min_value=1e-300, max_value=1.0 / 150),
           st.integers(min_value=2, max_value=150))
    def test_equal_shares_over_all_n_slots_are_exactly_zero(self, share, n):
        assert wds(HolderSnapshot("EQ", (share,) * n), n) == 0.0

    @given(st.floats(min_value=5e-324, max_value=1.0), st.integers(min_value=2, max_value=150))
    def test_single_holder_is_exactly_its_share(self, share, n):
        assert wds(HolderSnapshot("ONE", (share,)), n) == share

    def test_tiny_shares_do_not_underflow(self):
        shares = (3e-170, 1e-170, 1e-170)
        result = concentration(HolderSnapshot("X", shares), 3)
        assert result.n_internal == pytest.approx(fraction_concentration(shares, 3)[1], abs=1e-12)
