"""Early-warning flags over fragility score histories.

A score observation is flagged when it sits in the top tail of its own
trailing window (rank percentile). Flags on two different scores close
together in time form a joint spike, and per-date flag combinations map
to one of three action buckets.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from datetime import date as Date
from enum import Enum
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .domain import Checked, Rule, Value, _DailySeries, finite_in, value_type
from .errors import ConfigError, OutOfRange, WindowTooShort


class Metric(str, Enum):
    VDS = "vds"
    WDS = "wds"
    SAS = "sas"


_METRICS = tuple(Metric)  # iterating the Enum class itself costs more, once per token


class ActionBucket(str, Enum):
    TIGHTEN_RISK = "tighten_risk"
    GOVERNANCE_WATCH = "governance_watch"
    STANDARD_MONITORING = "standard_monitoring"


@value_type
class ScorePoint(Checked):
    """One day's value of one score, finite and >= 0."""

    date: Date
    value: float

    rules = (
        Rule("value", finite_in("value", 0), OutOfRange, "value={value!r} on {date} must be >= 0"),
    )


@value_type(init=False)
class ScoreSeries(_DailySeries):
    """Date-ascending history of one score: ``ScoreSeries(token_id, metric, points)``."""

    metric: Metric
    dates: tuple[Date, ...]
    value: tuple[float, ...]

    row_type = ScorePoint


@value_type
class WarningFlag(Value):
    """A score observation whose trailing-window percentile reached the threshold."""

    token_id: str
    metric: Metric
    date: Date
    value: float
    window_percentile: float


@value_type
class JointSpike(Value):
    """Two metrics flagged within x days of each other; dated at the later flag."""

    token_id: str
    date: Date
    metrics: tuple[Metric, Metric]


@value_type
class BucketAssignment(Value):
    """A token's action bucket on a flag day, from the metrics flagged within x days."""

    token_id: str
    date: Date
    bucket: ActionBucket
    metrics: tuple[Metric, ...]


def rolling_flags(
    series: ScoreSeries, window_days: int, threshold: float
) -> list[WarningFlag]:
    """Flag observations unusually high relative to their trailing window.

    The percentile of an observation is the fraction of the trailing
    ``window_days`` values (inclusive of the observation) strictly below
    it; tied values share their group's percentile, so a constant series
    never flags. A flag is emitted when the percentile reaches
    ``threshold``. Nothing is flagged before a full window accumulates.

    The percentile reaches ``threshold`` exactly when at least ``need`` of
    the ``window_days - 1`` previous values lie below the observation, for
    the least ``need`` with ``need / window_days >= threshold``. So one
    order statistic of the sorted previous values decides each
    observation, and only a flag's percentile takes a bisection.
    """
    if window_days < 2:
        raise WindowTooShort(f"window_days={window_days} must be >= 2")
    if not 0 < threshold < 1:
        raise ConfigError(f"threshold={threshold} must be in (0, 1)")
    values, dates = series.value, series.dates
    flags: list[WarningFlag] = []
    if window_days > len(values):  # no full window fills, however large window_days is
        return flags
    need = bisect_left(range(window_days + 1), threshold, key=lambda b: b / window_days)
    if need >= window_days:  # never: the window holds window_days - 1 previous values
        return flags
    window = sorted(values[:window_days - 1])  # the previous values, ascending
    for value, oldest, day in zip(values[window_days - 1:], values, dates[window_days - 1:]):
        if window[need - 1] < value:
            percentile = bisect_left(window, value) / window_days  # ties are not below
            flags.append(WarningFlag(series.token_id, series.metric, day, value, percentile))
        del window[bisect_left(window, oldest)]
        insort(window, value)
    return flags


# each metric pair (i < j in _METRICS, and as metrics), in the order events sort in: by value
_PAIRS = sorted(((i, j, (_METRICS[i], _METRICS[j])) for i, j in combinations(range(len(_METRICS)), 2)),
                key=lambda pair: [m.value for m in pair[2]])


def _sweep(flags_by_metric: Mapping[Metric, Sequence[WarningFlag]], x_days: int
           ) -> tuple[str | None, list[set[int]], list[int], list[int]]:
    """The flags' token id (None without flags); each metric's flag days as a
    set of day ordinals, in ``_METRICS`` order; all of them merged in ascending
    order; and per merged day d, a mask with bit j set when ``_METRICS[j]`` is
    flagged within [d - x_days, d]. One pointer per metric moves forward once
    over the merged days: O(F log F) for F flags."""
    if x_days < 0:
        raise ConfigError(f"x_days={x_days} must be >= 0")
    token_id = next((f.token_id for flags in flags_by_metric.values() for f in flags), None)
    days = [{f.date.toordinal() for f in flags_by_metric.get(m, ())} for m in _METRICS]
    merged = sorted(set().union(*days))
    high = [0] * len(merged)
    for j, metric_days in enumerate(map(sorted, days)):
        p, n = 0, len(metric_days)  # metric_days[p]: the first not before d - x_days
        for i, d in enumerate(merged):
            while p < n and metric_days[p] < d - x_days:
                p += 1
            if p < n and metric_days[p] <= d:
                high[i] |= 1 << j
    return token_id, days, merged, high


def joint_spike(
    flags_by_metric: Mapping[Metric, Sequence[WarningFlag]], x_days: int
) -> list[JointSpike]:
    """Pair up flags on different metrics whose dates differ by at most x days.

    One event is emitted per distinct (metric pair, later flag date);
    expects flags for a single token. A pair is an event on day d when
    ``_sweep`` finds both its metrics flagged within [d - x_days, d] and one of
    them is flagged on d. Days ascend and ``_PAIRS`` is in sort order, so each
    event comes out once and in order, in O(F log F) for F flags.
    """
    token_id, days, merged, high = _sweep(flags_by_metric, x_days)
    return [JointSpike(token_id, Date.fromordinal(d), metrics)
            for d, bits in zip(merged, high) for i, j, metrics in _PAIRS
            if bits >> i & bits >> j & 1 and (d in days[i] or d in days[j])]


def action_bucket(flagged: Iterable[Metric]) -> ActionBucket:
    """Map a set of flagged metrics to an action bucket.

    Volatility plus sentiment both high means market risk: tighten
    exposure. Otherwise a whale-dominance flag calls for governance watch.
    Anything else stays on standard monitoring.
    """
    flagged = set(flagged)
    if Metric.VDS in flagged and Metric.SAS in flagged:
        return ActionBucket.TIGHTEN_RISK
    if Metric.WDS in flagged:
        return ActionBucket.GOVERNANCE_WATCH
    return ActionBucket.STANDARD_MONITORING


def assign_buckets(
    flags_by_metric: Mapping[Metric, Sequence[WarningFlag]], x_days: int
) -> list[BucketAssignment]:
    """Bucket every date that carries at least one flag.

    A metric counts as "high" at date d when it has a flag within the
    trailing x-day window [d - x_days, d], so that flags forming a joint
    spike escalate the bucket at the spike date. Expects flags for a
    single token, like joint_spike, and reads the high metrics off the same
    ``_sweep``, in O(F log F) for F flags. Each set of high metrics takes
    its bucket from ``action_bucket`` once.
    """
    token_id, _, merged, high = _sweep(flags_by_metric, x_days)
    sets = [tuple(m for j, m in enumerate(_METRICS) if bits >> j & 1)
            for bits in range(1 << len(_METRICS))]
    buckets = [(action_bucket(active), active) for active in sets]
    return [BucketAssignment(token_id, Date.fromordinal(d), *buckets[bits])
            for d, bits in zip(merged, high)]
