"""Volatility Dynamics Score (VDS).

Pipeline: per-day range volatility -> per-token average/maximum ->
cross-sectional normalization -> composite -> scale resilience ->
base-chain spillover (hosted tokens only) -> square-root rescaling.
"""
from __future__ import annotations

import math
from operator import attrgetter, le, sub, truediv
from typing import Iterable, Mapping

from .domain import (ChainRole, Checked, DailyBar, FrameworkParams, Maxima, Rule, TokenSeries,
                     Value, finite_in, ratio_to_max, value_type)
from .errors import (
    ConfigError,
    InsufficientHistory,
    InvalidSummary,
    MissingBaseChain,
    NonPositiveScale,
    ZeroPrevClose,
)

_STANDALONE = ChainRole.standalone()


@value_type
class VolatilityAggregate(Checked):
    """Per-token volatility and scale summary.

    ``avg_vol``/``max_vol`` are unit-free fractions (0.05 = 5%);
    ``max_volume``/``max_mcap`` are expressed in scale units (USD billions
    under the default ``scale_unit``).
    """

    token_id: str
    avg_vol: float
    max_vol: float
    max_volume: float
    max_mcap: float

    rules = (
        *(Rule(name, finite_in(name), InvalidSummary, f"{{token_id}}: {name}={{{name}!r}} is not finite")
          for name in ("avg_vol", "max_vol", "max_volume", "max_mcap")),
        Rule("max_volume", finite_in("max_volume", 0), InvalidSummary, "negative size {max_volume}"),
        Rule("max_mcap", finite_in("max_mcap", 0), InvalidSummary, "negative size {max_mcap}"),
        Rule("avg_vol", lambda c: all(map(le, c["avg_vol"], c["max_vol"])) and min(c["avg_vol"]) >= 0,
             InvalidSummary, "{token_id}: need 0 <= avg_vol <= max_vol, got ({avg_vol}, {max_vol})"),
        # the report gives both as percentages, and avg_vol <= max_vol
        Rule("max_vol", lambda c: all(math.isfinite(v * 100) for v in c["max_vol"]), InvalidSummary,
             "{token_id}: max_vol={max_vol!r} overflows as a percentage"),
    )


@value_type
class VolatilityMaxima(Maxima):
    """Universe maxima of the average and the maximum volatility."""

    avg_vol: float
    max_vol: float

    components = staticmethod(attrgetter("avg_vol", "max_vol"))  # of a VolatilityAggregate

    def normalize(self, aggs: Iterable[VolatilityAggregate]) -> dict[str, NormalizedVolatility]:
        """Map each token's (avg, max) volatility to ratios of these maxima."""
        return {a.token_id: NormalizedVolatility(a.token_id, ratio_to_max(a.avg_vol, self.avg_vol),
                                                 ratio_to_max(a.max_vol, self.max_vol))
                for a in aggs}


@value_type
class NormalizedVolatility(Value):
    """Average and maximum volatility as ratios to the universe maxima."""

    token_id: str
    v_a: float
    v_m: float


def daily_range_volatility(bar: DailyBar, prev_close: float) -> float:
    """(high - low) / previous close for one day."""
    if not DailyBar.rules[2].holds({"close": (prev_close,)}):  # its positive-close rule
        raise ZeroPrevClose(f"prev_close={prev_close!r} on {bar.date}")
    return (bar.high - bar.low) / prev_close


def in_scale_units(token_id: str, name: str, usd: float, scale_unit: float) -> float:
    """``usd`` divided into ``scale_unit``s; a quotient past the float range is
    the unit's fault, not the data's, so it raises ConfigError naming both."""
    size = usd / scale_unit
    if math.isinf(size):
        raise ConfigError(f"{token_id}: {name} of {usd!r} USD overflows in units of "
                          f"scale_unit={scale_unit!r}")
    return size


def aggregate(series: TokenSeries, scale_unit: float = 1e9) -> VolatilityAggregate:
    """Summarize a bar series into average/max volatility and peak scale.

    The first bar yields no volatility observation (it has no previous
    close) but still contributes to the volume and market-cap maxima.
    Gaps in the calendar are fine: each day is measured against the most
    recent prior close present.
    """
    high, low, close = series.high, series.low, series.close
    if len(close) < 2:
        raise InsufficientHistory(
            f"{series.token_id}: need >= 2 bars, got {len(close)}"
        )
    # Construction checked every close > 0, so no day can divide by zero.
    vols = list(map(truediv, map(sub, high[1:], low[1:]), close[:-1]))
    max_vol = max(vols)
    try:  # the exact mean is at most the max, where its rounding may not be
        avg_vol = min(math.fsum(vols) / len(vols), max_vol)
    except OverflowError:  # finite days whose sum passes the float range: sum them scaled
        k = len(vols).bit_length()  # by 2**-k < 1/n, exactly, so the sum stays below the max
        avg_vol = min(math.ldexp(math.fsum(math.ldexp(v, -k) for v in vols) / len(vols), k), max_vol)
    return VolatilityAggregate(
        token_id=series.token_id,
        avg_vol=avg_vol,
        max_vol=max_vol,
        max_volume=in_scale_units(series.token_id, "max_volume", max(series.volume_usd), scale_unit),
        max_mcap=in_scale_units(series.token_id, "max_mcap", max(series.market_cap_usd), scale_unit),
    )


def normalize_cross_section(
    aggs: Iterable[VolatilityAggregate],
) -> dict[str, NormalizedVolatility]:
    """Map each token's (avg, max) volatility to ratios of the universe maxima."""
    aggs = list(aggs)
    return VolatilityMaxima.over(aggs).normalize(aggs)


def composite(nv: NormalizedVolatility, alpha: float) -> float:
    """Convex combination of persistent (v_a) and extreme (v_m) volatility."""
    return alpha * nv.v_a + (1 - alpha) * nv.v_m


def scale_factor(z: float, c: float) -> float:
    """Harmonic mean of peak volume and peak market cap (scale units)."""
    if not (z > 0 and c > 0):
        raise NonPositiveScale(f"volume={z!r}, mcap={c!r} must both be > 0")
    return 2.0 / (1.0 / z + 1.0 / c)


def resilience(s: float, gamma: float) -> float:
    """Down-weighting factor in (0, 1]; large, liquid tokens score lower."""
    return 1.0 / (1.0 + gamma * s)


def spillover_factor(base_nv: NormalizedVolatility, base_scale: float, beta: float) -> float:
    """Amplification (>= 1) a hosted token inherits from its base chain.

    Uses the base chain's universe-normalized volatilities and its scale
    factor: 1 + beta * mean(v_a, v_m) * ln(1 + S_base).
    """
    return 1.0 + beta * 0.5 * (base_nv.v_a + base_nv.v_m) * math.log1p(base_scale)


def vds_from_normalized(
    token_id: str,
    aggregates: Mapping[str, VolatilityAggregate],
    roles: Mapping[str, ChainRole],
    normalized: Mapping[str, NormalizedVolatility],
    params: FrameworkParams,
) -> float:
    """VDS for one token given an already-normalized cross-section.

    Lets callers share a single normalization across per-token scoring
    (and isolate per-token failures). Tokens absent from the role map
    default to standalone. A spillover that leaves the float range is a
    ``ConfigError`` naming ``beta``, the one parameter that can push it there.
    """
    agg = aggregates[token_id]
    phi = composite(normalized[token_id], params.alpha) * resilience(
        scale_factor(agg.max_volume, agg.max_mcap), params.gamma
    )
    role = roles.get(token_id, _STANDALONE)
    if not role.is_standalone:
        base_id = role.base
        if base_id not in aggregates:
            raise MissingBaseChain(f"{token_id}: base chain {base_id!r} has no volatility data")
        if not roles.get(base_id, _STANDALONE).is_standalone:
            raise MissingBaseChain(f"{token_id}: base chain {base_id!r} is itself hosted")
        base_agg = aggregates[base_id]
        base_scale = scale_factor(base_agg.max_volume, base_agg.max_mcap)
        phi *= spillover_factor(normalized[base_id], base_scale, params.beta)
        if not math.isfinite(phi):
            raise ConfigError(f"{token_id}: VDS overflows with beta={params.beta!r}")
    return math.sqrt(phi)


def vds_scores(
    aggregates: Mapping[str, VolatilityAggregate],
    roles: Mapping[str, ChainRole],
    params: FrameworkParams,
) -> dict[str, float]:
    """VDS for every token, sharing one cross-sectional normalization."""
    normalized = normalize_cross_section(aggregates.values())
    return {
        token_id: vds_from_normalized(token_id, aggregates, roles, normalized, params)
        for token_id in aggregates
    }
