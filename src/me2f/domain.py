"""Shared domain types: market bars, holder snapshots, sentiment series.

All types are frozen dataclasses that validate their invariants at
construction time, so a value that exists is a value that is valid. They
are safe to share across threads.

The two daily series store one tuple per column and check each column
once, in bulk; only when a bulk check fails are the rows rescanned, so
that the error names the first offending row as the per-row types do.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date as Date
from itertools import pairwise
from operator import le, lt
from typing import Iterable, Sequence

from .errors import (
    ConfigError,
    DataError,
    FgiOutOfRange,
    InvalidBar,
    InvalidShares,
    LowAboveHigh,
    NegativePrice,
    NonMonotonicDates,
    OutOfRange,
)

_SHARE_SUM_TOLERANCE = 1e-9


def _require_finite_positive(name: str, value: float, day: Date) -> None:
    if not math.isfinite(value) or value <= 0:
        raise NegativePrice(f"{name}={value!r} on {day}")


@dataclass(frozen=True)
class DailyBar:
    """One day of trading: intraday extremes, close, volume, market cap (USD)."""

    date: Date
    high: float
    low: float
    close: float
    volume_usd: float
    market_cap_usd: float

    def __post_init__(self):  # each message opens with the failing "field="
        _require_finite_positive("high", self.high, self.date)
        _require_finite_positive("low", self.low, self.date)
        _require_finite_positive("close", self.close, self.date)
        for name in ("volume_usd", "market_cap_usd"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise InvalidBar(f"{name}={value!r} on {self.date}")
        if self.low > self.high:
            raise LowAboveHigh(f"low={self.low!r} > high={self.high!r} on {self.date}")


def _check_dates(dates: Iterable[Date]) -> None:
    for prev, cur in pairwise(dates):
        if cur <= prev:
            what = "duplicate" if cur == prev else "out-of-order"
            raise NonMonotonicDates(f"{what} date {cur}")


def _check_lengths(token_id: str, columns: Sequence[tuple]) -> None:
    if len(set(map(len, columns))) > 1:
        raise DataError(f"{token_id}: columns differ in length")


def _ascending(dates: tuple[Date, ...]) -> bool:
    return all(map(lt, dates, dates[1:]))


@dataclass(frozen=True, init=False)
class TokenSeries:
    """Date-ascending daily bars for one token, one tuple per column.

    ``TokenSeries(token_id, bars)`` takes ``DailyBar`` rows;
    ``from_columns`` takes the columns themselves. Either way every bar
    invariant and strictly ascending dates are checked at construction.
    """

    token_id: str
    dates: tuple[Date, ...]
    high: tuple[float, ...]
    low: tuple[float, ...]
    close: tuple[float, ...]
    volume_usd: tuple[float, ...]
    market_cap_usd: tuple[float, ...]

    def __init__(self, token_id: str, bars: Iterable[DailyBar] = ()):
        rows = [(b.date, b.high, b.low, b.close, b.volume_usd, b.market_cap_usd) for b in bars]
        _set_columns(self, token_id, list(zip(*rows)) or [()] * 6)
        _check_bars(self)

    @classmethod
    def from_columns(
        cls,
        token_id: str,
        dates: Iterable[Date],
        high: Iterable[float],
        low: Iterable[float],
        close: Iterable[float],
        volume_usd: Iterable[float],
        market_cap_usd: Iterable[float],
    ) -> "TokenSeries":
        series = object.__new__(cls)
        _set_columns(series, token_id, (dates, high, low, close, volume_usd, market_cap_usd))
        _check_bars(series)
        return series

    @property
    def bars(self) -> tuple[DailyBar, ...]:
        """The rows as ``DailyBar`` values, built on each access."""
        return tuple(map(
            DailyBar, self.dates, self.high, self.low, self.close,
            self.volume_usd, self.market_cap_usd,
        ))

    def window(self) -> tuple[Date, Date] | None:
        if not self.dates:
            return None
        return self.dates[0], self.dates[-1]


def _set_columns(series, token_id: str, columns) -> None:
    object.__setattr__(series, "token_id", token_id)
    names = [f for f in series.__dataclass_fields__ if f != "token_id"]
    for name, column in zip(names, columns, strict=True):
        object.__setattr__(series, name, tuple(column))


def _check_bars(s: TokenSeries) -> None:
    prices = (s.high, s.low, s.close)
    sizes = (s.volume_usd, s.market_cap_usd)
    _check_lengths(s.token_id, (s.dates, *prices, *sizes))
    if not s.dates:
        return
    if (
        all(all(map(math.isfinite, column)) for column in prices + sizes)
        and min(map(min, prices)) > 0
        and min(map(min, sizes)) >= 0
        and all(map(le, s.low, s.high))
        and _ascending(s.dates)
    ):
        return
    for row in zip(s.dates, *prices, *sizes):
        DailyBar(*row)
    _check_dates(s.dates)


def validate_series(series: TokenSeries) -> TokenSeries:
    """Re-check every bar and series invariant; return the series unchanged.

    Construction already runs the same check, so this only matters for a
    series whose columns were set some other way.
    """
    _check_bars(series)
    return series


@dataclass(frozen=True)
class HolderSnapshot:
    """Top holder ownership shares (fractions of total supply), descending.

    Snapshots may carry fewer entries than the scoring parameter ``n``;
    absent tail holders count as zero shares.
    """

    token_id: str
    shares: tuple[float, ...]
    as_of: Date | None = None

    def __post_init__(self):
        object.__setattr__(self, "shares", tuple(self.shares))
        for k, share in enumerate(self.shares):
            if not math.isfinite(share) or share < 0 or share > 1:
                raise InvalidShares(f"share #{k + 1} = {share!r} outside [0, 1]")
        for k, (bigger, smaller) in enumerate(pairwise(self.shares)):
            if smaller > bigger:
                raise InvalidShares(f"shares not descending at position {k + 2}")
        total = math.fsum(self.shares)
        if total > 1 + _SHARE_SUM_TOLERANCE:
            raise InvalidShares(f"shares sum to {total}, exceeding total supply")


@dataclass(frozen=True)
class SentimentPoint:
    """Daily fear-and-greed index value with that day's absolute price return.

    ``abs_return`` is None on days without a previous close (typically the
    first observation).
    """

    date: Date
    fgi: float
    abs_return: float | None = None

    def __post_init__(self):
        if not math.isfinite(self.fgi) or not 0 <= self.fgi <= 100:
            raise FgiOutOfRange(f"fgi={self.fgi!r} on {self.date} outside [0, 100]")
        if self.abs_return is not None:
            if not math.isfinite(self.abs_return) or self.abs_return < 0:
                raise OutOfRange(f"abs_return={self.abs_return!r} on {self.date} must be >= 0")


@dataclass(frozen=True, init=False)
class SentimentSeries:
    """Date-ascending sentiment observations for one token, one tuple per column.

    ``SentimentSeries(token_id, points)`` takes ``SentimentPoint`` rows;
    ``from_columns`` takes the columns. Either way the point invariants and
    strictly ascending dates are checked at construction.
    """

    token_id: str
    dates: tuple[Date, ...]
    fgi: tuple[float, ...]
    abs_return: tuple[float | None, ...]

    def __init__(self, token_id: str, points: Iterable[SentimentPoint] = ()):
        rows = [(p.date, p.fgi, p.abs_return) for p in points]
        _set_columns(self, token_id, list(zip(*rows)) or [()] * 3)
        _check_sentiment(self)

    @classmethod
    def from_columns(
        cls,
        token_id: str,
        dates: Iterable[Date],
        fgi: Iterable[float],
        abs_return: Iterable[float | None],
    ) -> "SentimentSeries":
        series = object.__new__(cls)
        _set_columns(series, token_id, (dates, fgi, abs_return))
        _check_sentiment(series)
        return series

    @property
    def points(self) -> tuple[SentimentPoint, ...]:
        """The rows as ``SentimentPoint`` values, built on each access."""
        return tuple(map(SentimentPoint, self.dates, self.fgi, self.abs_return))

    def window(self) -> tuple[Date, Date] | None:
        if not self.dates:
            return None
        return self.dates[0], self.dates[-1]


def _check_sentiment(s: SentimentSeries) -> None:
    _check_lengths(s.token_id, (s.dates, s.fgi, s.abs_return))
    if not s.dates:
        return
    # filter(None, ...) drops absent returns and zeros; zeros are valid.
    if (
        all(map(math.isfinite, s.fgi))
        and 0 <= min(s.fgi)
        and max(s.fgi) <= 100
        and all(map(math.isfinite, filter(None, s.abs_return)))
        and min(filter(None, s.abs_return), default=0.0) >= 0
        and _ascending(s.dates)
    ):
        return
    for row in zip(s.dates, s.fgi, s.abs_return):
        SentimentPoint(*row)
    _check_dates(s.dates)


@dataclass(frozen=True)
class FrameworkParams:
    """Scoring parameters.

    alpha      weight between persistent and extreme volatility, in [0, 1]
    beta       base-chain spillover gain, > 0
    gamma      scale down-weighting strength, > 0
    delta      sentiment shock exponent, > 0
    n          number of top holders considered
    scale_unit USD divisor applied to volume/market cap before scale math
    """

    alpha: float = 0.5
    beta: float = 0.5
    gamma: float = 0.5
    delta: float = 1.5
    n: int = 100
    scale_unit: float = 1e9

    def __post_init__(self):
        if not 0 <= self.alpha <= 1:
            raise ConfigError(f"alpha={self.alpha} outside [0, 1]")
        for name in ("beta", "gamma", "delta", "scale_unit"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0:
                raise ConfigError(f"{name}={value!r} must be > 0")
        if not isinstance(self.n, int) or self.n < 1:
            raise ConfigError(f"n={self.n!r} must be a positive integer")


@dataclass(frozen=True)
class ChainRole:
    """Standalone chain, or token hosted on a standalone base chain."""

    base: str | None = None

    def __post_init__(self):
        if self.base is not None and not self.base:
            raise ConfigError("hosted role requires a non-empty base token id")

    @property
    def is_standalone(self) -> bool:
        return self.base is None

    @classmethod
    def standalone(cls) -> "ChainRole":
        return cls()

    @classmethod
    def hosted_on(cls, base_token_id: str) -> "ChainRole":
        return cls(base=base_token_id)
