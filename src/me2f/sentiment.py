"""Sentiment Amplification Score (SAS).

From a token's fear-and-greed index (FGI) series we derive summary
indicators, combine them into an instability index U (baseline sentiment
instability) and a shock index K (joint sentiment/price shock strength),
and score SAS = U * K^delta.
"""
from __future__ import annotations

import math
from enum import Enum
from operator import add, le, sub

from .domain import (Checked, Maxima, Rule, SentimentPoint, SentimentSeries, finite_in,
                     ratio_to_max, value_type)
from .errors import FgiOutOfRange, InsufficientHistory, InvalidSummary


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
    if not SentimentPoint.rules[0].holds({"fgi": (value,)}):  # its FGI range rule
        raise FgiOutOfRange(f"fgi={value!r} outside [0, 100]")
    if value < _EXTREME_FEAR_BELOW:
        return FgiBand.EXTREME_FEAR
    if value < 40:
        return FgiBand.FEAR
    if value < 60:
        return FgiBand.NEUTRAL
    if value < _EXTREME_GREED_FROM:
        return FgiBand.GREED
    return FgiBand.EXTREME_GREED


@value_type
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
        Rule("delta_p_max", lambda c: all(math.isfinite(v * 100) for v in c["delta_p_max"]),
             InvalidSummary,  # the report gives it as delta_p_max_pct
             "{token_id}: delta_p_max={delta_p_max!r} overflows as a percentage"),
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
    f_max, f_min = max(values), min(values)  # the exact mean lies between, its rounding may not
    return FgiIndicators(
        token_id=series.token_id,
        f_bar=min(max(math.fsum(values) / n, f_min), f_max),
        f_max=f_max,
        f_min=f_min,
        q_g=sum(map(_EXTREME_GREED_FROM.__le__, values)) / n,
        q_f=sum(map(_EXTREME_FEAR_BELOW.__gt__, values)) / n,
        delta_f_max=max(map(abs, map(sub, values[1:], values[:-1]))),
        delta_p_max=max((r for r in series.abs_return if r is not None), default=0.0),
    )


@value_type
class SentimentMaxima(Maxima):
    """Cross-sectional maxima used to normalize U and K components."""

    r_f: float
    extreme_share: float
    mean_bias: float
    delta_f: float
    delta_p: float

    @staticmethod
    def components(ind: FgiIndicators) -> tuple[float, ...]:
        """One token's values of the components, in field order."""
        return ind.r_f, ind.q_g + ind.q_f, abs(ind.f_bar - 50.0), ind.delta_f_max, ind.delta_p_max


def instability_index(ind: FgiIndicators, maxima: SentimentMaxima) -> float:
    """Mean of the normalized sentiment range, extreme-state frequency, and
    deviation of the average FGI from the neutral mid-point of 50."""
    return (
        ratio_to_max(ind.r_f, maxima.r_f)
        + ratio_to_max(ind.q_g + ind.q_f, maxima.extreme_share)
        + ratio_to_max(abs(ind.f_bar - 50.0), maxima.mean_bias)
    ) / 3.0


def shock_index(ind: FgiIndicators, maxima: SentimentMaxima) -> float:
    """Product of the normalized largest FGI jump and price move; high only
    when sentiment shock and price response are jointly pronounced."""
    return ratio_to_max(ind.delta_f_max, maxima.delta_f) * ratio_to_max(ind.delta_p_max, maxima.delta_p)


def sas(u: float, k: float, delta: float) -> float:
    """U * K^delta; delta > 1 makes abrupt shocks dominate gradual drift."""
    return u * k**delta
