"""Domain type invariants and validation."""
from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import FrozenInstanceError, astuple, fields, is_dataclass, replace
from datetime import date, timedelta
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR
from me2f import (
    build_context,
    domain,
    ingest,
    score_universe,
    scoring,
    sentiment,
    volatility,
    warning,
    whale,
)
from me2f.domain import (
    ChainRole,
    DailyBar,
    FrameworkParams,
    HolderSnapshot,
    SentimentPoint,
    SentimentSeries,
    TokenSeries,
    check_rows,
    validate_series,
)
from me2f.errors import (
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
from me2f.sentiment import FgiIndicators
from me2f.volatility import VolatilityAggregate
from me2f.warning import Metric, ScorePoint, ScoreSeries


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

    def test_columns_of_different_lengths(self):
        with pytest.raises(DataError, match="X: columns differ in length"):
            TokenSeries.from_columns("X", [date(2024, 1, 1), date(2024, 1, 2)], [110.0],
                                     *([110.0, 110.0],) * 4)

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
    for share in shares:
        if not math.isfinite(share):
            raise InvalidShares(f"share {share} is not finite")
        if share < 0:
            raise InvalidShares(f"negative share {share}")
        if share > 1:
            raise InvalidShares(f"share {share} above 1")
    for k, (bigger, smaller) in enumerate(pairwise(shares)):
        if smaller > bigger:
            raise InvalidShares(f"shares not descending at position {k + 2}")
    total = math.fsum(shares)
    if total > 1 + 1e-9:
        raise InvalidShares(f"shares sum to {total}, exceeding total supply")


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


# --- slotted value types -------------------------------------------------------

ME2F_MODULES = (domain, ingest, scoring, sentiment, volatility, warning, whale)
VALUE_TYPES = [value for module in ME2F_MODULES for value in vars(module).values()
               if isinstance(value, type) and is_dataclass(value)
               and value.__module__ == module.__name__]


def dataclass_values(value):
    """Every dataclass instance reachable from ``value`` through fields and containers."""
    if is_dataclass(value):
        yield value
        value = [getattr(value, f.name) for f in fields(value)]
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from dataclass_values(item)


def golden_values() -> list:
    """The values that scoring the golden universe, warning on its history and
    reading its bars, sentiment and holders files make (scoring keeps no series)."""
    report = score_universe(build_context(
        ingest.load_universe(GOLDEN_DIR / "universe.json", FrameworkParams()), FrameworkParams()))
    histories = ingest.load_history_csv(GOLDEN_DIR / "history.csv")
    flags = defaultdict(dict)
    for history in histories:
        flags[history.token_id][history.metric] = warning.rolling_flags(history, 3, 0.6)
    warned = [(warning.joint_spike(f, 1), warning.assign_buckets(f, 1)) for f in flags.values()]
    series = [ingest.load_bars_csv(GOLDEN_DIR / "sol_bars.csv", "SOL"),
              ingest.load_sentiment_csv(GOLDEN_DIR / "wif_sentiment.csv", "WIF")]
    snapshot = ingest.load_holders_csv(GOLDEN_DIR / "wif_holders.csv", "WIF", exclude={"0xdead"})
    rows = [row for s in series for row in s._rows()]
    return list(dataclass_values([report, histories, flags, warned, series, rows, snapshot]))


class TestSlottedValues:
    def test_no_value_type_gives_its_instances_a_dict(self):
        assert len(VALUE_TYPES) >= 20
        for cls in VALUE_TYPES:  # a class without __slots__ anywhere in its bases adds a __dict__
            assert all("__slots__" in vars(base) for base in cls.__mro__[:-1]), cls

    def test_no_built_value_has_a_dict(self):
        values = golden_values()
        built = {type(value) for value in values}
        assert {DailyBar, SentimentPoint, TokenSeries, HolderSnapshot, VolatilityAggregate,
                FgiIndicators, scoring.TokenReport, warning.WarningFlag,
                warning.JointSpike, warning.BucketAssignment} <= built
        assert [value for value in values if hasattr(value, "__dict__")] == []

    @pytest.mark.parametrize("row_type,columns", [
        (VolatilityAggregate, {"token_id": ["A", "B"], "avg_vol": [0.1, 0.0], "max_vol": [0.2, 0.5],
                               "max_volume": [1.0, 0.0], "max_mcap": [2.0, 3.5]}),
        (FgiIndicators, {"token_id": ["A", "B"], "f_bar": [50.0, 20.0], "f_max": [90.0, 20.0],
                         "f_min": [10.0, 20.0], "q_g": [0.1, 0.0], "q_f": [0.2, 1.0],
                         "delta_f_max": [40.0, 0.0], "delta_p_max": [0.3, 0.0]}),
    ])
    def test_many_equals_the_row_constructor(self, row_type, columns):
        built = row_type.many(columns)
        rows = [row_type(*row) for row in zip(*columns.values())]
        assert built == rows and list(map(hash, built)) == list(map(hash, rows))
        assert [astuple(value) for value in built] == list(zip(*columns.values()))
        assert row_type.many({name: [] for name in columns}) == []

    def test_replace_builds_a_new_value(self):
        inputs = scoring.TokenInputs(role=ChainRole.standalone())
        fgi = FgiIndicators("A", 50.0, 90.0, 10.0, 0.1, 0.2, 40.0, 0.3)
        changed = replace(inputs, fgi=fgi)
        assert changed.fgi is fgi and changed.role is inputs.role and inputs.fgi is None

    @pytest.mark.parametrize("value,name", [
        (bar(1), "high"),
        (VolatilityAggregate.many({"token_id": ["A"], "avg_vol": [0.1], "max_vol": [0.2],
                                   "max_volume": [1.0], "max_mcap": [2.0]})[0], "avg_vol"),
        (TokenSeries("X", (bar(1), bar(2))), "close"),
        (scoring.TokenInputs(role=ChainRole.standalone()), "fgi"),
        (FrameworkParams(), "alpha"),
    ])
    def test_a_field_cannot_be_assigned(self, value, name):
        with pytest.raises(FrozenInstanceError):
            setattr(value, name, getattr(value, name))


# --- the bulk check of a rule table against its row check ---------------------
#
# The table loaders build values without a per-row check, so they are safe
# only while a table's bulk check and its row check agree: the same values,
# or the same error class, message and field at the same first bad row.

EDGES = [0.0, -0.0, -1e-12, math.nan, math.inf, -math.inf, 1 + 1e-12, 100 + 1e-12]


def rule_outcome(build):
    """``build()``, or the class, message and field of the error it raises."""
    try:
        return build()
    except DataError as exc:
        return type(exc), str(exc), exc.field


@st.composite
def table(draw, names, row, pairs=()):
    """Columns of 2-6 rows drawn from ``row``, then one to three mutations: a
    number set to an edge value, or a row's two fields of one of ``pairs`` swapped."""
    rows = [list(draw(row)) for _ in range(draw(st.integers(2, 6)))]
    numbers = [i for i, name in enumerate(names) if name not in ("date", "token_id")]
    for _ in range(draw(st.integers(1, 3))):
        cells = rows[draw(st.integers(0, len(rows) - 1))]
        if not pairs or draw(st.booleans()):
            cells[draw(st.sampled_from(numbers))] = draw(st.sampled_from(EDGES))
        else:
            a, b = (names.index(name) for name in draw(st.sampled_from(pairs)))
            cells[a], cells[b] = cells[b], cells[a]
    return dict(zip(names, map(list, zip(*rows))))


def dated(row):
    """A row of the ``row`` strategies after a date that ``with_days`` fills in."""
    return st.tuples(st.just(None), *row)


def with_days(columns):
    """``columns`` dated one day apart from 2024-01-01, so dates never fail."""
    columns["date"] = [date(2024, 1, 1) + timedelta(days=i) for i in range(len(columns["date"]))]
    return columns


def tokens(columns):
    """``columns`` with the distinct tokens T0, T1, ..., so messages name the row."""
    columns["token_id"] = [f"T{i}" for i in range(len(columns["token_id"]))]
    return columns


price = st.floats(1.0, 100.0)
size = st.floats(0.0, 1e9)
BAR_ROWS = table(["date", "high", "low", "close", "volume_usd", "market_cap_usd"],
                 dated([price, price, price, size, size]).map(
                     lambda r: (r[0], max(r[1:4]), min(r[1:4]), sorted(r[1:4])[1], r[4], r[5])),
                 [("high", "low"), ("low", "close"), ("close", "volume_usd")]).map(with_days)
SENTIMENT_ROWS = table(["date", "fgi", "abs_return"],
                       dated([st.floats(0.0, 100.0), st.none() | st.floats(0.0, 1.0)])).map(with_days)
SCORE_ROWS = table(["date", "value"], dated([st.floats(0.0, 10.0)])).map(with_days)
SHARE_ROWS = table(["share"], st.tuples(st.floats(0.0, 1.0)))
fraction = st.floats(0.0, 0.5)
VOLATILITY_ROWS = table(
    ["token_id", "avg_vol", "max_vol", "max_volume", "max_mcap"],
    st.tuples(st.just(""), fraction, fraction, size, size).map(
        lambda r: (r[0], min(r[1:3]), max(r[1:3]), *r[3:])),
    [("avg_vol", "max_vol"), ("max_volume", "avg_vol")]).map(tokens)
FGI_ROWS = table(
    ["token_id", "f_bar", "f_max", "f_min", "q_g", "q_f", "delta_f_max", "delta_p_max"],
    st.tuples(st.just(""), st.lists(st.floats(0.0, 100.0), min_size=3, max_size=3).map(sorted),
              fraction, fraction, st.floats(0.0, 100.0), fraction).map(
        lambda r: (r[0], r[1][1], r[1][2], r[1][0], *r[2:])),
    [("f_bar", "f_max"), ("f_min", "f_max"), ("f_bar", "f_min"), ("q_g", "delta_f_max")]).map(tokens)

BULK_SETTINGS = settings(max_examples=60, derandomize=True)


def variants(columns):
    """``columns``, then, one at a time, each number of its first and of its
    last row set to each edge value."""
    yield columns
    for name in [name for name in columns if name not in ("date", "token_id")]:
        for i in (0, -1):
            for edge in EDGES:
                changed = {key: list(column) for key, column in columns.items()}
                changed[name][i] = edge
                yield changed


def assert_bulk_matches_rows(bulk, row_type, columns, keep=lambda row: row):
    """``bulk(columns)`` equals every row built through ``row_type``, or the
    first bad row's error, on every variant of ``columns``."""
    for changed in variants(columns):
        rows = rule_outcome(lambda: [keep(row_type(*row)) for row in zip(*changed.values())])
        assert rule_outcome(lambda: bulk(changed)) == rows, changed


class TestBulkCheckMatchesRowCheck:
    @given(columns=BAR_ROWS)
    @BULK_SETTINGS
    def test_bars(self, columns):
        assert_bulk_matches_rows(
            lambda c: list(TokenSeries.from_columns("X", *c.values()).bars), DailyBar, columns)

    @given(columns=SENTIMENT_ROWS)
    @BULK_SETTINGS
    def test_sentiment(self, columns):
        assert_bulk_matches_rows(
            lambda c: list(SentimentSeries.from_columns("X", *c.values()).points), SentimentPoint,
            columns)

    @given(columns=SCORE_ROWS)
    @BULK_SETTINGS
    def test_scores(self, columns):
        assert_bulk_matches_rows(
            lambda c: list(ScoreSeries._rows(ScoreSeries.from_columns("X", Metric.VDS, *c.values()))),
            ScorePoint, columns)

    @given(columns=SHARE_ROWS)
    @BULK_SETTINGS
    def test_holder_shares(self, columns):
        assert_bulk_matches_rows(
            lambda c: check_rows(HolderSnapshot.share_rules, c) or c["share"],
            lambda share: HolderSnapshot("X", (share,)), columns, keep=lambda snap: snap.shares[0])

    @given(columns=VOLATILITY_ROWS)
    @BULK_SETTINGS
    def test_volatility_summary(self, columns):
        assert_bulk_matches_rows(VolatilityAggregate.many, VolatilityAggregate, columns)

    @given(columns=FGI_ROWS)
    @BULK_SETTINGS
    def test_fgi_summary(self, columns):
        assert_bulk_matches_rows(FgiIndicators.many, FgiIndicators, columns)
