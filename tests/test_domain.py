"""Domain type invariants and validation."""
from __future__ import annotations

import math
from datetime import date
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from me2f.domain import (
    ChainRole,
    DailyBar,
    FrameworkParams,
    HolderSnapshot,
    SentimentPoint,
    SentimentSeries,
    TokenSeries,
    check_share_sum,
    validate_series,
)
from me2f.errors import (
    ConfigError,
    FgiOutOfRange,
    InvalidBar,
    InvalidShares,
    LowAboveHigh,
    NegativePrice,
    NonMonotonicDates,
    OutOfRange,
)


def bar(day, high=110.0, low=90.0, close=100.0, volume=1e9, mcap=2e9):
    return DailyBar(date(2024, 1, day), high, low, close, volume, mcap)


class TestDailyBar:
    def test_well_formed(self):
        b = bar(1)
        assert b.high == 110.0 and b.low == 90.0

    def test_low_above_high(self):
        with pytest.raises(LowAboveHigh) as err:
            bar(1, high=100.0, low=110.0)
        assert "2024-01-01" in str(err.value)

    @pytest.mark.parametrize("field,value", [
        ("high", 0.0), ("low", -1.0), ("close", float("nan")), ("close", float("inf")),
    ])
    def test_bad_prices(self, field, value):
        kwargs = {"high": 110.0, "low": 90.0, "close": 100.0}
        kwargs[field] = value
        if field == "low" and value < 0:
            kwargs["high"] = 110.0
        with pytest.raises(NegativePrice):
            bar(1, **kwargs)

    def test_negative_volume(self):
        with pytest.raises(InvalidBar):
            bar(1, volume=-5.0)

    def test_nan_mcap(self):
        with pytest.raises(InvalidBar):
            bar(1, mcap=float("nan"))


class TestTokenSeries:
    def test_three_well_formed_bars_pass_validation(self):
        series = TokenSeries("X", (bar(1), bar(2), bar(3)))
        assert validate_series(series) is series
        assert len(series.bars) == 3

    def test_duplicate_date(self):
        with pytest.raises(NonMonotonicDates) as err:
            TokenSeries("X", (bar(1), bar(2), bar(2)))
        assert "duplicate" in str(err.value) and "2024-01-02" in str(err.value)

    def test_out_of_order_date(self):
        with pytest.raises(NonMonotonicDates):
            TokenSeries("X", (bar(2), bar(1)))

    def test_validate_is_idempotent(self):
        series = TokenSeries("X", (bar(1), bar(2)))
        assert validate_series(validate_series(series)) is series

    def test_window(self):
        series = TokenSeries("X", (bar(1), bar(5)))
        assert series.window() == (date(2024, 1, 1), date(2024, 1, 5))
        assert TokenSeries("X", ()).window() is None


def days(n):
    return tuple(date(2024, 1, d) for d in range(1, n + 1))


class TestColumnRoundTrip:
    """from_columns, the row view and the rows constructor agree, and
    validate_series on a replaced column raises the first bad row's error."""

    def test_token_series(self):
        columns = (days(3), (110.0, 120.0, 130.0), (90.0, 100.0, 110.0),
                   (100.0, 110.0, 120.0), (1e9, 0.0, 2e9), (2e9, 3e9, 4e9))
        series = TokenSeries.from_columns("X", *columns)
        assert TokenSeries("X", series.bars) == series
        assert TokenSeries.from_columns("X", *zip(*(
            (b.date, b.high, b.low, b.close, b.volume_usd, b.market_cap_usd) for b in series.bars
        ))) == series
        object.__setattr__(series, "low", (90.0, 121.0, 131.0))
        with pytest.raises(LowAboveHigh) as err:
            validate_series(series)
        assert str(err.value) == "low=121.0 > high=120.0 on 2024-01-02"

    def test_sentiment_series(self):
        series = SentimentSeries.from_columns("X", days(3), (50.0, 0.0, 100.0), (None, 0.05, 0.0))
        assert SentimentSeries("X", series.points) == series
        assert SentimentSeries.from_columns("X", *zip(*(
            (p.date, p.fgi, p.abs_return) for p in series.points
        ))) == series
        object.__setattr__(series, "fgi", (50.0, 101.0, -1.0))
        with pytest.raises(FgiOutOfRange) as err:
            validate_series(series)
        assert str(err.value) == "fgi=101.0 on 2024-01-02 outside [0, 100]"


class TestHolderSnapshot:
    def test_descending_ok(self):
        snap = HolderSnapshot("X", (0.3, 0.2, 0.2, 0.1))
        assert snap.shares == (0.3, 0.2, 0.2, 0.1)

    def test_not_descending(self):
        with pytest.raises(InvalidShares):
            HolderSnapshot("X", (0.1, 0.2))

    def test_share_above_one(self):
        with pytest.raises(InvalidShares):
            HolderSnapshot("X", (1.2,))

    def test_negative_share(self):
        with pytest.raises(InvalidShares):
            HolderSnapshot("X", (0.2, -0.1))

    def test_sum_above_one(self):
        with pytest.raises(InvalidShares):
            HolderSnapshot("X", (0.6, 0.5))

    def test_sum_dust_tolerated(self):
        HolderSnapshot("X", (0.5 + 1e-12, 0.5))  # sum exceeds 1 by dust only

    def test_fewer_than_n_holders_valid(self):
        assert HolderSnapshot("X", (0.4,)).shares == (0.4,)

    @given(st.data())
    @settings(max_examples=300)
    def test_bulk_check_matches_per_share_oracle(self, data):
        shares = sorted(data.draw(st.lists(st.floats(0.0, 0.3), max_size=8)), reverse=True)
        for _ in range(data.draw(st.integers(0, 2)) if shares else 0):
            i = data.draw(st.integers(0, len(shares) - 1))
            if data.draw(st.booleans()):
                shares[i] = data.draw(st.sampled_from(SHARE_EDGES))
            else:
                j = data.draw(st.integers(0, len(shares) - 1))
                shares[i], shares[j] = shares[j], shares[i]
        assert holder_outcome(HolderSnapshot, shares) == holder_outcome(oracle_snapshot, shares)


SHARE_EDGES = [math.nan, math.inf, -math.inf, -0.0, 0.0, -1e-12, -0.5, 1.0, 1.0 + 1e-12, 1.5]


def oracle_snapshot(token_id, shares):
    """The per-share checks of ``HolderSnapshot``, one share and one pair at a time."""
    for k, share in enumerate(shares):
        if not math.isfinite(share) or share < 0 or share > 1:
            raise InvalidShares(f"share #{k + 1} = {share!r} outside [0, 1]")
    for k, (bigger, smaller) in enumerate(pairwise(shares)):
        if smaller > bigger:
            raise InvalidShares(f"shares not descending at position {k + 2}")
    check_share_sum(shares)


def holder_outcome(check, shares):
    """None when ``shares`` pass, else the error's class and message."""
    try:
        check("X", tuple(shares))
    except InvalidShares as exc:
        return type(exc), str(exc)
    return None


class TestSentimentSeries:
    def test_fgi_bounds(self):
        with pytest.raises(FgiOutOfRange):
            SentimentPoint(date(2024, 1, 1), 101.0)
        with pytest.raises(FgiOutOfRange):
            SentimentPoint(date(2024, 1, 1), -0.5)

    def test_real_valued_fgi_accepted(self):
        assert SentimentPoint(date(2024, 1, 1), 94.5).fgi == 94.5

    def test_negative_return(self):
        with pytest.raises(OutOfRange):
            SentimentPoint(date(2024, 1, 1), 50.0, abs_return=-0.1)

    def test_dates_strictly_increasing(self):
        p1 = SentimentPoint(date(2024, 1, 2), 50.0)
        p2 = SentimentPoint(date(2024, 1, 1), 60.0)
        with pytest.raises(NonMonotonicDates):
            SentimentSeries("X", (p1, p2))


class TestFrameworkParams:
    def test_defaults_match_reference_parameterization(self):
        p = FrameworkParams()
        assert (p.alpha, p.beta, p.gamma, p.delta, p.n) == (0.5, 0.5, 0.5, 1.5, 100)
        assert p.scale_unit == 1e9

    @pytest.mark.parametrize("kwargs", [
        {"alpha": 1.5}, {"alpha": -0.1}, {"beta": 0.0}, {"gamma": -1.0},
        {"delta": 0.0}, {"n": 0}, {"n": 2.5}, {"scale_unit": 0.0},
        {"n": 1},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ConfigError):
            FrameworkParams(**kwargs)


class TestChainRole:
    def test_standalone(self):
        assert ChainRole.standalone().is_standalone

    def test_hosted(self):
        role = ChainRole.hosted_on("ETH")
        assert not role.is_standalone and role.base == "ETH"

    def test_empty_base_rejected(self):
        with pytest.raises(ConfigError):
            ChainRole.hosted_on("")
