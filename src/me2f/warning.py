"""Early-warning flags over fragility score histories.

A score observation is flagged when it sits in the top tail of its own
trailing window (rank percentile). Flags on two different scores close
together in time form a joint spike, and per-date flag combinations map
to one of three action buckets.
"""
from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from datetime import date as Date
from enum import Enum
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .domain import _DailySeries
from .errors import ConfigError, OutOfRange, WindowTooShort


class Metric(str, Enum):
    VDS = "vds"
    WDS = "wds"
    SAS = "sas"


_METRICS = tuple(Metric)  # iterating the Enum class itself costs more, once per date


class ActionBucket(str, Enum):
    TIGHTEN_RISK = "tighten_risk"
    GOVERNANCE_WATCH = "governance_watch"
    STANDARD_MONITORING = "standard_monitoring"


@dataclass(frozen=True)
class ScorePoint:
    date: Date
    value: float

    def __post_init__(self):  # the message opens with the failing "field="
        if not math.isfinite(self.value) or self.value < 0:
            raise OutOfRange(f"value={self.value!r} on {self.date} must be >= 0")


@dataclass(frozen=True, init=False)
class ScoreSeries(_DailySeries):
    """Date-ascending history of one score: ``ScoreSeries(token_id, metric, points)``."""

    metric: Metric
    dates: tuple[Date, ...]
    value: tuple[float, ...]

    row_type = ScorePoint

    def _columns_ok(self) -> bool:
        return all(map(math.isfinite, self.value)) and min(self.value) >= 0


@dataclass(frozen=True)
class WarningFlag:
    token_id: str
    metric: Metric
    date: Date
    value: float
    window_percentile: float


@dataclass(frozen=True)
class JointSpike:
    """Two metrics flagged within x days of each other; dated at the later flag."""

    token_id: str
    date: Date
    metrics: tuple[Metric, Metric]


@dataclass(frozen=True)
class BucketAssignment:
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
    """
    if window_days < 2:
        raise WindowTooShort(f"window_days={window_days} must be >= 2")
    if not 0 < threshold < 1:
        raise ConfigError(f"threshold={threshold} must be in (0, 1)")
    flags: list[WarningFlag] = []
    window: list[float] = []
    values = series.value
    for i, value in enumerate(values):
        if i >= window_days:
            window.pop(bisect_left(window, values[i - window_days]))
        below = bisect_left(window, value)  # the values strictly below, ties excluded
        window.insert(below, value)
        if i < window_days - 1:
            continue
        percentile = below / window_days
        if percentile >= threshold:
            flags.append(
                WarningFlag(series.token_id, series.metric, series.dates[i], value, percentile)
            )
    return flags


def _flag_days(flags: Sequence[WarningFlag]) -> list[int]:
    """Sorted distinct flag dates as day ordinals."""
    return sorted({f.date.toordinal() for f in flags})


def _flagged_within(days: list[int], d: int, x_days: int) -> bool:
    """Whether the sorted ordinals ``days`` hold a day in [d - x_days, d]."""
    i = bisect_left(days, d - x_days)
    return i < len(days) and days[i] <= d


def joint_spike(
    flags_by_metric: Mapping[Metric, Sequence[WarningFlag]], x_days: int
) -> list[JointSpike]:
    """Pair up flags on different metrics whose dates differ by at most x days.

    One event is emitted per distinct (metric pair, later flag date);
    expects flags for a single token. Each metric's flag dates are sorted
    once; a flag day d of either metric in a pair is an event date exactly
    when the other metric has a flag in [d - x_days, d], found by one
    bisection. Cost is O(F log F) in the number of flags F.
    """
    if x_days < 0:
        raise ConfigError(f"x_days={x_days} must be >= 0")
    metrics = [m for m in _METRICS if flags_by_metric.get(m)]
    days = {m: _flag_days(flags_by_metric[m]) for m in metrics}
    events: set[JointSpike] = set()
    for m1, m2 in combinations(metrics, 2):
        token_id = flags_by_metric[m1][0].token_id
        for mine, other in ((days[m1], days[m2]), (days[m2], days[m1])):
            for d in mine:
                if _flagged_within(other, d, x_days):
                    events.add(JointSpike(token_id, Date.fromordinal(d), (m1, m2)))
    return sorted(events, key=lambda e: (e.date, e.metrics[0].value, e.metrics[1].value))


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
    single token, like joint_spike. Like joint_spike, it sorts each
    metric's flag dates once and answers each (date, metric) test with
    one bisection: O(F log F) in the number of flags F.
    """
    if x_days < 0:
        raise ConfigError(f"x_days={x_days} must be >= 0")
    all_flags = [f for flags in flags_by_metric.values() for f in flags]
    if not all_flags:
        return []
    token_id = all_flags[0].token_id
    days = {m: _flag_days(flags_by_metric.get(m, ())) for m in _METRICS}
    assignments = []
    for d in sorted({f.date.toordinal() for f in all_flags}):
        active = tuple(m for m in _METRICS if _flagged_within(days[m], d, x_days))
        assignments.append(
            BucketAssignment(token_id, Date.fromordinal(d), action_bucket(active), active)
        )
    return assignments
