"""Shared domain types: market bars, holder snapshots, sentiment series.

All types are frozen dataclasses that validate their invariants at
construction time, so a value that exists is a value that is valid. They
are safe to share across threads.

The daily series (bars, FGI, and score histories in ``warning``) share one
implementation: they store one tuple per column and check each column once,
in bulk; only when a bulk check fails are the rows rescanned through the
row type, so that the error names the first offending row as the per-row
types do. Holder snapshots are checked the same way.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from datetime import date as Date
from itertools import pairwise
from operator import attrgetter, ge, le, lt
from typing import Iterable, TypeVar

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


_Series = TypeVar("_Series", bound="_DailySeries")


@dataclass(frozen=True, init=False)
class _DailySeries:
    """Date-ascending daily rows under key fields, one tuple per column.

    A subclass declares any key fields after ``token_id``, then one column
    per field of its ``row_type``, ``dates`` first, and ``_columns_ok``, the
    bulk form of the row checks. ``Series(*keys, rows)`` takes row values;
    ``from_columns(*keys, *columns)`` takes the columns, in field order.
    Either way every row invariant and strictly ascending dates are checked
    at construction.
    """

    token_id: str

    def __init__(self, *keys_and_rows):
        *keys, rows = keys_and_rows
        names = [f.name for f in fields(self.row_type)]
        columns = list(zip(*map(attrgetter(*names), rows))) or [()] * len(names)
        self._set(*keys, *columns)

    @classmethod
    def from_columns(cls: type[_Series], *keys_and_columns) -> _Series:
        """A series from its key fields, then its columns, in field order."""
        series = object.__new__(cls)
        series._set(*keys_and_columns)
        return series

    def _set(self, *values) -> None:
        names = [f.name for f in fields(self)]
        n_keys = len(names) - len(fields(self.row_type))
        for i, (name, value) in enumerate(zip(names, values, strict=True)):
            object.__setattr__(self, name, value if i < n_keys else tuple(value))
        self._check()

    def _columns(self) -> list[tuple]:
        return [getattr(self, f.name) for f in fields(self)[-len(fields(self.row_type)):]]

    def _check(self) -> None:
        """Check every column in bulk; on failure raise the first bad row's error."""
        columns = self._columns()
        if len(set(map(len, columns))) > 1:
            raise DataError(f"{self.token_id}: columns differ in length")
        if not self.dates or (self._columns_ok() and all(map(lt, self.dates, self.dates[1:]))):
            return
        for row in zip(*columns):
            self.row_type(*row)
        for prev, cur in pairwise(self.dates):
            if cur <= prev:
                what = "duplicate" if cur == prev else "out-of-order"
                raise NonMonotonicDates(f"{what} date {cur}")

    def _rows(self) -> tuple:
        return tuple(map(self.row_type, *self._columns()))

    def window(self) -> tuple[Date, Date] | None:
        if not self.dates:
            return None
        return self.dates[0], self.dates[-1]


@dataclass(frozen=True, init=False)
class TokenSeries(_DailySeries):
    """Date-ascending daily bars for one token: ``TokenSeries(token_id, bars)``."""

    dates: tuple[Date, ...]
    high: tuple[float, ...]
    low: tuple[float, ...]
    close: tuple[float, ...]
    volume_usd: tuple[float, ...]
    market_cap_usd: tuple[float, ...]

    row_type = DailyBar
    bars = property(
        _DailySeries._rows, doc="The rows as ``DailyBar`` values, built on each access."
    )

    def _columns_ok(self) -> bool:
        prices = (self.high, self.low, self.close)
        sizes = (self.volume_usd, self.market_cap_usd)
        return (
            all(all(map(math.isfinite, column)) for column in prices + sizes)
            and min(map(min, prices)) > 0
            and min(map(min, sizes)) >= 0
            and all(map(le, self.low, self.high))
        )


def validate_series(series: _Series) -> _Series:
    """Re-check every row and series invariant; return the series unchanged.

    Construction already runs the same check, so this only matters for a
    series whose columns were set some other way.
    """
    series._check()
    return series


@dataclass(frozen=True)
class HolderSnapshot:
    """Top holder ownership shares (fractions of total supply), descending.

    Snapshots may carry fewer entries than the scoring parameter ``n``;
    absent tail holders count as zero shares.
    """

    token_id: str
    shares: tuple[float, ...]

    def __post_init__(self):  # checked in bulk; only a failure rescans, to name the share
        shares = tuple(self.shares)
        object.__setattr__(self, "shares", shares)
        if not (
            all(map(math.isfinite, shares))
            and min(shares, default=0.0) >= 0
            and max(shares, default=0.0) <= 1
            and all(map(ge, shares, shares[1:]))
        ):
            for k, share in enumerate(shares):
                if not math.isfinite(share) or share < 0 or share > 1:
                    raise InvalidShares(f"share #{k + 1} = {share!r} outside [0, 1]")
            for k, (bigger, smaller) in enumerate(pairwise(shares)):
                if smaller > bigger:
                    raise InvalidShares(f"shares not descending at position {k + 2}")
        check_share_sum(shares)


def check_share_sum(shares: Iterable[float]) -> None:
    """Raise ``InvalidShares`` if holder shares sum past 1 beyond the tolerance."""
    total = math.fsum(shares)
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
class SentimentSeries(_DailySeries):
    """Date-ascending FGI observations for one token: ``SentimentSeries(token_id, points)``."""

    dates: tuple[Date, ...]
    fgi: tuple[float, ...]
    abs_return: tuple[float | None, ...]

    row_type = SentimentPoint
    points = property(
        _DailySeries._rows, doc="The rows as ``SentimentPoint`` values, built on each access."
    )

    def _columns_ok(self) -> bool:
        # filter(None, ...) drops absent returns and zeros; zeros are valid.
        return (
            all(map(math.isfinite, self.fgi))
            and 0 <= min(self.fgi)
            and max(self.fgi) <= 100
            and all(map(math.isfinite, filter(None, self.abs_return)))
            and min(filter(None, self.abs_return), default=0.0) >= 0
        )


@dataclass(frozen=True)
class FrameworkParams:
    """Scoring parameters.

    alpha      weight between persistent and extreme volatility, in [0, 1]
    beta       base-chain spillover gain, > 0
    gamma      scale down-weighting strength, > 0
    delta      sentiment shock exponent, > 0
    n          number of top holders considered, >= 2
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
        if not isinstance(self.n, int) or self.n < 2:  # the HHI rescaling divides by 1 - 1/n
            raise ConfigError(f"n={self.n!r} must be an integer >= 2")


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
