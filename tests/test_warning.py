"""Rolling-window flags, joint spikes, and action buckets."""
from __future__ import annotations

import math
import random
from datetime import date, timedelta
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from me2f.errors import ConfigError, NonMonotonicDates, OutOfRange, WindowTooShort
from me2f.warning import (
    ActionBucket,
    BucketAssignment,
    JointSpike,
    Metric,
    ScorePoint,
    ScoreSeries,
    WarningFlag,
    action_bucket,
    assign_buckets,
    joint_spike,
    rolling_flags,
)

DAY0 = date(2024, 1, 1)


def series(values, metric=Metric.VDS, token="X"):
    pts = tuple(ScorePoint(DAY0 + timedelta(days=i), v) for i, v in enumerate(values))
    return ScoreSeries(token, metric, pts)


def flag_on_day(day_index, metric, token="X", value=1.0):
    return WarningFlag(token, metric, DAY0 + timedelta(days=day_index), value, 1.0)


def brute_force_flag_days(values, window, threshold):
    """Independent rank computation per window."""
    out = []
    for t in range(window - 1, len(values)):
        trailing = values[t - window + 1 : t + 1]
        percentile = sum(1 for v in trailing if v < values[t]) / window
        if percentile >= threshold:
            out.append(t)
    return out


class TestScoreSeries:
    def test_rows_and_columns_build_the_same_series(self):
        s = series([1.0, 0.0, 2.5], metric=Metric.SAS)
        dates = [DAY0 + timedelta(days=i) for i in range(3)]
        assert s == ScoreSeries.from_columns("X", Metric.SAS, dates, [1.0, 0.0, 2.5])
        assert (s.token_id, s.metric, s.dates, s.value) == ("X", Metric.SAS, tuple(dates), (1.0, 0.0, 2.5))

    @pytest.mark.parametrize("bad", [-0.5, math.nan, math.inf])
    def test_bad_value_raises_out_of_range_naming_the_field(self, bad):
        dates = [DAY0 + timedelta(days=i) for i in range(3)]
        with pytest.raises(OutOfRange, match=r"^value="):
            ScoreSeries.from_columns("X", Metric.VDS, dates, [1.0, bad, 2.0])

    def test_repeated_date_rejected(self):
        with pytest.raises(NonMonotonicDates):
            ScoreSeries.from_columns("X", Metric.VDS, [DAY0, DAY0], [1.0, 2.0])


class TestRollingFlags:
    def test_strictly_increasing_flags_every_full_window(self):
        values = [float(i) for i in range(1, 21)]
        flags = rolling_flags(series(values), 10, 0.9)
        assert [f.date for f in flags] == [DAY0 + timedelta(days=i) for i in range(9, 20)]
        assert all(f.window_percentile >= 0.9 for f in flags)

    def test_constant_series_never_flags(self):
        assert rolling_flags(series([5.0] * 30), 10, 0.9) == []

    def test_one_to_twenty_matches_brute_force(self):
        values = [float(i) for i in range(1, 21)]
        expected = brute_force_flag_days(values, 10, 0.9)
        flags = rolling_flags(series(values), 10, 0.9)
        assert [(f.date - DAY0).days for f in flags] == expected
        assert expected == list(range(9, 20))

    def test_no_flags_before_full_window(self):
        flags = rolling_flags(series([1.0, 2.0, 3.0]), 10, 0.9)
        assert flags == []

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            rolling_flags(series([1.0, 2.0]), 1, 0.9)

    def test_bad_threshold(self):
        with pytest.raises(ConfigError):
            rolling_flags(series([1.0, 2.0]), 5, 1.0)

    def test_random_series_match_brute_force(self):
        rng = random.Random(23)
        for _ in range(30):
            n = rng.randint(5, 80)
            window = rng.randint(2, min(n, 30))
            threshold = rng.choice([0.5, 0.75, 0.9, 0.95])
            values = [rng.choice([0.0, 1.0, 2.0, rng.random() * 5]) for _ in range(n)]
            expected = brute_force_flag_days(values, window, threshold)
            got = [(f.date - DAY0).days for f in rolling_flags(series(values), window, threshold)]
            assert got == expected

    @given(
        st.lists(st.floats(min_value=0, max_value=10, allow_nan=False), min_size=4, max_size=40),
        st.floats(min_value=0.05, max_value=0.9),
    )
    @settings(max_examples=80)
    def test_lowering_threshold_never_removes_flags(self, values, threshold):
        high = rolling_flags(series(values), 4, threshold)
        low = rolling_flags(series(values), 4, threshold / 2)
        assert {f.date for f in high} <= {f.date for f in low}


class TestJointSpike:
    def test_within_x_days(self):
        flags = {Metric.VDS: [flag_on_day(5, Metric.VDS)], Metric.SAS: [flag_on_day(7, Metric.SAS)]}
        events = joint_spike(flags, 3)
        assert len(events) == 1
        assert events[0].date == DAY0 + timedelta(days=7)
        assert events[0].metrics == (Metric.VDS, Metric.SAS)

    def test_too_far_apart(self):
        flags = {Metric.VDS: [flag_on_day(0, Metric.VDS)], Metric.SAS: [flag_on_day(10, Metric.SAS)]}
        assert joint_spike(flags, 3) == []

    def test_three_metrics_same_day(self):
        flags = {m: [flag_on_day(4, m)] for m in Metric}
        events = joint_spike(flags, 3)
        assert len(events) == 3
        assert {e.metrics for e in events} == {
            (Metric.VDS, Metric.WDS), (Metric.VDS, Metric.SAS), (Metric.WDS, Metric.SAS)
        }

    def test_single_metric_yields_nothing(self):
        assert joint_spike({Metric.WDS: [flag_on_day(1, Metric.WDS)]}, 3) == []

    def test_matches_brute_force_on_random_flag_sets(self):
        rng = random.Random(31)
        for _ in range(100):
            x = rng.randint(0, 5)
            flags = {
                m: [flag_on_day(d, m) for d in sorted(rng.sample(range(30), rng.randint(0, 6)))]
                for m in Metric
            }
            expected = set()
            for m1, m2 in combinations(Metric, 2):
                for f1 in flags[m1]:
                    for f2 in flags[m2]:
                        if abs((f1.date - f2.date).days) <= x:
                            expected.add((max(f1.date, f2.date), (m1, m2)))
            got = {(e.date, e.metrics) for e in joint_spike(flags, x)}
            assert got == expected

    def test_symmetric_in_metric_order(self):
        a = {Metric.VDS: [flag_on_day(2, Metric.VDS)], Metric.SAS: [flag_on_day(3, Metric.SAS)]}
        b = {Metric.SAS: [flag_on_day(3, Metric.SAS)], Metric.VDS: [flag_on_day(2, Metric.VDS)]}
        assert joint_spike(a, 3) == joint_spike(b, 3)


class TestActionBucket:
    # exhaustive mapping over all 8 flag subsets
    @pytest.mark.parametrize("flagged,expected", [
        (set(), ActionBucket.STANDARD_MONITORING),
        ({Metric.VDS}, ActionBucket.STANDARD_MONITORING),
        ({Metric.WDS}, ActionBucket.GOVERNANCE_WATCH),
        ({Metric.SAS}, ActionBucket.STANDARD_MONITORING),
        ({Metric.VDS, Metric.WDS}, ActionBucket.GOVERNANCE_WATCH),
        ({Metric.VDS, Metric.SAS}, ActionBucket.TIGHTEN_RISK),
        ({Metric.WDS, Metric.SAS}, ActionBucket.GOVERNANCE_WATCH),
        ({Metric.VDS, Metric.WDS, Metric.SAS}, ActionBucket.TIGHTEN_RISK),
    ])
    def test_mapping(self, flagged, expected):
        assert action_bucket(flagged) is expected

    def test_tighten_risk_dominates_governance_watch(self):
        assert action_bucket({Metric.VDS, Metric.WDS, Metric.SAS}) is ActionBucket.TIGHTEN_RISK


class TestAssignBuckets:
    def test_joint_spike_escalates_at_later_date(self):
        flags = {Metric.VDS: [flag_on_day(5, Metric.VDS)], Metric.SAS: [flag_on_day(7, Metric.SAS)]}
        buckets = {b.date: b for b in assign_buckets(flags, 3)}
        assert buckets[DAY0 + timedelta(days=7)].bucket is ActionBucket.TIGHTEN_RISK
        assert buckets[DAY0 + timedelta(days=5)].bucket is ActionBucket.STANDARD_MONITORING

    def test_no_flags_no_buckets(self):
        assert assign_buckets({m: [] for m in Metric}, 3) == []

    def test_wds_flag_alone(self):
        flags = {Metric.WDS: [flag_on_day(2, Metric.WDS)]}
        (assignment,) = assign_buckets(flags, 3)
        assert assignment.bucket is ActionBucket.GOVERNANCE_WATCH
        assert assignment.metrics == (Metric.WDS,)


# --- brute-force oracles for the sorted-day sweeps -----------------------

def oracle_joint_spike(flags_by_metric, x_days):
    """Every flag pair of every metric pair, compared directly."""
    events = set()
    metrics = [m for m in Metric if flags_by_metric.get(m)]
    for m1, m2 in combinations(metrics, 2):
        for f1 in flags_by_metric[m1]:
            for f2 in flags_by_metric[m2]:
                if abs((f1.date - f2.date).days) <= x_days:
                    events.add(JointSpike(f1.token_id, max(f1.date, f2.date), (m1, m2)))
    return sorted(events, key=lambda e: (e.date, e.metrics[0].value, e.metrics[1].value))


def oracle_assign_buckets(flags_by_metric, x_days):
    """Every flag date against every flag of every metric."""
    all_flags = [f for flags in flags_by_metric.values() for f in flags]
    if not all_flags:
        return []
    token_id = all_flags[0].token_id
    assignments = []
    for day in sorted({f.date for f in all_flags}):
        active = tuple(
            m for m in Metric
            if any(0 <= (day - f.date).days <= x_days for f in flags_by_metric.get(m, ()))
        )
        assignments.append(BucketAssignment(token_id, day, action_bucket(active), active))
    return assignments


@st.composite
def flag_sets(draw, max_day=30):
    """Flags of one token: any subset of metrics (lists may be empty), days
    unsorted and possibly repeated, small day range so days collide."""
    token = draw(st.sampled_from(["X", "PEPE"]))
    metrics = draw(st.lists(st.sampled_from(list(Metric)), unique=True))
    return {
        m: [
            flag_on_day(d, m, token)
            for d in draw(st.lists(st.integers(0, max_day), max_size=12))
        ]
        for m in metrics
    }


X_DAYS = st.integers(0, 10)


class TestSweepMatchesOracle:
    @given(flag_sets(), X_DAYS)
    @settings(max_examples=300)
    def test_joint_spike_equals_oracle(self, flags, x):
        assert joint_spike(flags, x) == oracle_joint_spike(flags, x)

    @given(flag_sets(), X_DAYS)
    @settings(max_examples=300)
    def test_assign_buckets_equals_oracle(self, flags, x):
        assert assign_buckets(flags, x) == oracle_assign_buckets(flags, x)

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=8), X_DAYS)
    def test_same_day_flags_across_metrics(self, days, x):
        flags = {m: [flag_on_day(d, m) for d in reversed(days)] for m in Metric}
        assert joint_spike(flags, x) == oracle_joint_spike(flags, x)
        assert assign_buckets(flags, x) == oracle_assign_buckets(flags, x)

    def test_out_of_order_flags(self):
        flags = {
            Metric.VDS: [flag_on_day(d, Metric.VDS) for d in (9, 1, 5)],
            Metric.SAS: [flag_on_day(d, Metric.SAS) for d in (7, 3)],
        }
        assert joint_spike(flags, 2) == oracle_joint_spike(flags, 2)
        assert [(e.date - DAY0).days for e in joint_spike(flags, 2)] == [3, 5, 7, 9]
        assert assign_buckets(flags, 2) == oracle_assign_buckets(flags, 2)

    def test_missing_and_empty_metrics(self):
        flags = {Metric.VDS: [flag_on_day(2, Metric.VDS)], Metric.SAS: []}
        assert joint_spike(flags, 3) == oracle_joint_spike(flags, 3) == []
        assert assign_buckets(flags, 3) == oracle_assign_buckets(flags, 3)
        assert joint_spike({}, 3) == [] and assign_buckets({}, 3) == []

    def test_negative_x_days_rejected(self):
        flags = {Metric.VDS: [flag_on_day(0, Metric.VDS)]}
        with pytest.raises(ConfigError):
            joint_spike(flags, -1)
        with pytest.raises(ConfigError):
            assign_buckets(flags, -1)
