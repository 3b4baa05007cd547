"""Sentiment Amplification Score (SAS).

From a token's fear-and-greed index (FGI) series we derive summary
indicators, combine them into an instability index U (baseline sentiment
instability) and a shock index K (joint sentiment/price shock strength),
and score SAS = U * K^delta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from operator import add, le, sub
from typing import Iterable

from .domain import Checked, Rule, SentimentSeries, finite_in
from .errors import DegenerateMaxima, InsufficientHistory, InvalidSummary, OutOfRange


_EXTREME_FEAR_BELOW = 20.0
_EXTREME_GREED_FROM = 80.0


class FgiBand(Enum):
    EXTREME_FEAR = "extreme_fear"
    FEAR = "fear"
    NEUTRAL = "neutral"
    GREED = "greed"
    EXTREME_GREED = "extreme_greed"


def classify_fgi(value: float) -> FgiBand:
    """Assign an FGI value to one of the five sentiment bands.

    Bands are half-open at 20/40/60/80 so real-valued indices classify
    unambiguously; 100 belongs to extreme greed.
    """
    if not math.isfinite(value) or not 0 <= value <= 100:
        raise OutOfRange(f"fgi={value!r} outside [0, 100]")
    if value < _EXTREME_FEAR_BELOW:
        return FgiBand.EXTREME_FEAR
    if value < 40:
        return FgiBand.FEAR
    if value < 60:
        return FgiBand.NEUTRAL
    if value < _EXTREME_GREED_FROM:
        return FgiBand.GREED
    return FgiBand.EXTREME_GREED


@dataclass(frozen=True)
class FgiIndicators(Checked):
    """Summary indicators of one token's FGI history.

    q_g/q_f are fractions of observations in the extreme-greed /
    extreme-fear bands; delta_f_max is the largest one-day absolute FGI
    move; delta_p_max the largest one-day absolute price return (fraction).
    """

    token_id: str
    f_bar: float
    f_max: float
    f_min: float
    q_g: float
    q_f: float
    delta_f_max: float
    delta_p_max: float

    # a negative largest move would make the shock index, and K**delta, complex
    rules = (
        *(Rule(name, finite_in(name), InvalidSummary, f"{{token_id}}: {name}={{{name}!r}} is not finite")
          for name in ("q_g", "q_f", "delta_f_max", "delta_p_max")),
        Rule("delta_f_max", finite_in("delta_f_max", 0), InvalidSummary,
             "{token_id}: delta_f_max={delta_f_max!r} is negative"),
        Rule("delta_p_max", finite_in("delta_p_max", 0), InvalidSummary,
             "{token_id}: delta_p_max={delta_p_max!r} is negative"),
        *(Rule(name, finite_in(name, 0, 100), InvalidSummary,
               f"{{token_id}}: {name}={{{name}!r}} outside [0, 100]")
          for name in ("f_bar", "f_max", "f_min")),
        Rule("f_bar", lambda c: all(map(le, c["f_min"], c["f_bar"]))
             and all(map(le, c["f_bar"], c["f_max"])),
             InvalidSummary, "{token_id}: f_min <= f_bar <= f_max violated"),
        Rule("q_g", lambda c: finite_in("q_g", 0)(c) and finite_in("q_f", 0)(c)
             and not any(map((1 + 1e-9).__lt__, map(add, c["q_g"], c["q_f"]))),
             InvalidSummary, "{token_id}: q_g + q_f outside [0, 1]"),
    )

    @property
    def r_f(self) -> float:
        """The FGI range, f_max - f_min."""
        return self.f_max - self.f_min


def fgi_indicators(series: SentimentSeries) -> FgiIndicators:
    """Compute all FGI indicators for one token from its columns.

    The series was range-checked at construction, so the two extreme bands
    of ``classify_fgi`` reduce to one comparison per value each.
    """
    values = series.fgi
    n = len(values)
    if n < 2:
        raise InsufficientHistory(
            f"{series.token_id}: need >= 2 sentiment points, got {n}"
        )
    return FgiIndicators(
        token_id=series.token_id,
        f_bar=math.fsum(values) / n,
        f_max=max(values),
        f_min=min(values),
        q_g=sum(map(_EXTREME_GREED_FROM.__le__, values)) / n,
        q_f=sum(map(_EXTREME_FEAR_BELOW.__gt__, values)) / n,
        delta_f_max=max(map(abs, map(sub, values[1:], values[:-1]))),
        delta_p_max=max((r for r in series.abs_return if r is not None), default=0.0),
    )


@dataclass(frozen=True)
class SentimentMaxima:
    """Cross-sectional maxima used to normalize U and K components."""

    r_f: float
    extreme_share: float
    mean_bias: float
    delta_f: float
    delta_p: float

    def degenerate_components(self) -> list[str]:
        """Names of components whose maximum is zero (they score 0 for everyone)."""
        return [name for name in ("r_f", "extreme_share", "mean_bias", "delta_f", "delta_p")
                if getattr(self, name) <= 0]


def sentiment_maxima(indicators: Iterable[FgiIndicators]) -> SentimentMaxima:
    inds = list(indicators)
    if not inds:
        raise DegenerateMaxima("no sentiment indicators in the universe")
    return SentimentMaxima(
        r_f=max(i.r_f for i in inds),
        extreme_share=max(i.q_g + i.q_f for i in inds),
        mean_bias=max(abs(i.f_bar - 50.0) for i in inds),
        delta_f=max(i.delta_f_max for i in inds),
        delta_p=max(i.delta_p_max for i in inds),
    )


def _ratio(value: float, maximum: float) -> float:
    # A dead indicator (zero maximum) contributes 0 rather than aborting
    # the universe; callers surface it as a report warning.
    return value / maximum if maximum > 0 else 0.0


def instability_index(ind: FgiIndicators, maxima: SentimentMaxima) -> float:
    """Mean of the normalized sentiment range, extreme-state frequency, and
    deviation of the average FGI from the neutral mid-point of 50."""
    return (
        _ratio(ind.r_f, maxima.r_f)
        + _ratio(ind.q_g + ind.q_f, maxima.extreme_share)
        + _ratio(abs(ind.f_bar - 50.0), maxima.mean_bias)
    ) / 3.0


def shock_index(ind: FgiIndicators, maxima: SentimentMaxima) -> float:
    """Product of the normalized largest FGI jump and price move; high only
    when sentiment shock and price response are jointly pronounced."""
    return _ratio(ind.delta_f_max, maxima.delta_f) * _ratio(ind.delta_p_max, maxima.delta_p)


def sas(u: float, k: float, delta: float) -> float:
    """U * K^delta; delta > 1 makes abrupt shocks dominate gradual drift."""
    return u * k**delta
