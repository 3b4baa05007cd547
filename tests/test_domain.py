"""Domain type invariants and validation."""
from __future__ import annotations

import copy
import inspect
import json
import math
import pickle
import subprocess
import sys
from collections import defaultdict
from dataclasses import (FrozenInstanceError, InitVar, astuple, field, fields, is_dataclass,
                         make_dataclass, replace)
from datetime import date, timedelta
from functools import cache
from itertools import islice, pairwise, permutations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR
from me2f import (
    build_context,
    domain,
    ingest,
    remote,
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
    Value,
    check_rows,
    validate_series,
    value_type,
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

ME2F_MODULES = (domain, ingest, remote, scoring, sentiment, volatility, warning, whale)
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


# --- equality, hash and repr from domain.Value -----------------------------------


@value_type
class Flagged(Value):
    """A value type with a field left out of ``repr`` and one left out of ``==`` and ``hash``."""

    shown: int
    unshown: int = field(repr=False)
    uncompared: int = field(compare=False)


def built_values() -> list:
    """The golden values, and one or more built values of every other type."""
    params = FrameworkParams()
    inputs = ingest.load_universe(GOLDEN_DIR / "universe.json", params)
    context = build_context(inputs, params)
    history = ingest.load_history_csv(GOLDEN_DIR / "history.csv")[0]
    spec = remote.ProviderEndpointSpec(
        name="prov", base_url="https://api.example", path="/bars/{token}", query={"page": "{page}"},
        fields={name: name[0] for name in ingest.BARS_HEADER})
    aggregates = [ti.volatility for ti in inputs.values() if ti.volatility]
    extra = [context, volatility.VolatilityMaxima.over(aggregates),
             *volatility.normalize_cross_section(aggregates).values(),
             *history._rows(), spec, Flagged(1, 2, 3), Flagged(1, 2, 4), Flagged(1, 5, 3)]
    return golden_values() + list(dataclass_values(extra))


@cache
def generated_class(cls: type) -> type:
    """The frozen dataclass that ``dataclasses`` generates, with its own
    methods, for ``cls``'s fields and defaults under ``cls``'s name."""
    generated = make_dataclass(cls.__name__, [
        (f.name, f.type, field(default=f.default, compare=f.compare, repr=f.repr)) for f in fields(cls)
    ], frozen=True)
    generated.__qualname__ = cls.__qualname__
    return generated


def generated(value):
    """``value``'s field values in its generated class (``astuple`` would turn
    nested values into tuples, and so change their repr)."""
    return generated_class(type(value))(*(getattr(value, f.name) for f in fields(value)))


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as exc:  # a dict field, as in ScoringContext
        return type(exc)


class TestValueMethods:
    def test_no_value_type_generates_eq_hash_or_repr(self):
        for cls in VALUE_TYPES:
            assert issubclass(cls, Value), cls
            assert not {"__eq__", "__hash__", "__repr__"} & set(vars(cls)), cls

    def test_eq_hash_and_repr_equal_the_generated_ones(self):
        # built twice over: each of a type's first five values meets its equal copy and four others
        first, second = built_values(), built_values()
        by_type = defaultdict(lambda: ([], []))
        for side, values in enumerate((first, second)):
            for value in values:
                by_type[type(value)][side].append(value)
        assert set(VALUE_TYPES) - set(by_type) == {domain._DailySeries}  # it has no row type
        for cls, (ones, others) in by_type.items():
            for one in islice(ones, 5):
                ref = generated(one)
                assert (repr(one), hash_or_error(one)) == (repr(ref), hash_or_error(ref))
                for other in islice(others, 5):
                    assert (one == other, one != other) == (ref == generated(other), ref != generated(other))
            assert ones[0] == others[0] and ones[0] is not others[0]
        assert Flagged(1, 2, 3) == Flagged(1, 2, 4) and repr(Flagged(1, 2, 3)) == "Flagged(shown=1, uncompared=3)"

    def test_another_class_is_not_implemented(self):
        values = {type(value): value for value in built_values()}
        # two series types of one base, with equal token ids and no rows
        values[SentimentSeries], values[TokenSeries] = SentimentSeries("A", []), TokenSeries("A", [])
        for one, other in permutations(values.values(), 2):
            assert one.__eq__(other) is NotImplemented
            assert generated(one).__eq__(other) is NotImplemented
            assert one != other and not one == other


# --- the frozen pair, copy and pickle from domain.Value; the compiled __init__ --

def refusal(action, *args) -> str:
    """The text of the ``FrozenInstanceError`` that ``action(*args)`` raises."""
    with pytest.raises(FrozenInstanceError) as raised:
        action(*args)
    return str(raised.value)


def field_values(value) -> list:
    return [getattr(value, f.name) for f in fields(value)]


# the types whose __init__ value_type compiles: every series type declares its own
COMPILED_INIT_TYPES = [cls for cls in VALUE_TYPES if not issubclass(cls, domain._DailySeries)]

IMPORT_AUDIT = """
import json, re, sys
sources = []
sys.addaudithook(lambda event, args: event == "compile" and args[1] == "<string>"
                 and sources.append(args[0] if isinstance(args[0], str) else repr(args[0])))
import me2f.cli
from me2f.domain import Value
types = [value for name, module in list(sys.modules.items()) if name.split(".")[0] == "me2f"
         for value in vars(module).values()
         if isinstance(value, type) and issubclass(value, Value) and "__dataclass_fields__" in vars(value)]
print(json.dumps({"types": len(set(types)),
                  **{name: sum(bool(re.search(rf"\\bdef {name}\\(", text)) for text in sources)
                     for name in ("__init__", "__setattr__", "__delattr__")}}))
"""


class TestFrozenValues:
    def test_each_field_refuses_assignment_and_deletion_as_the_generated_class_does(self):
        values = built_values()
        assert {type(value) for value in values} == set(VALUE_TYPES) - {domain._DailySeries} | {Flagged}
        for value in values:
            ref, before = generated(value), field_values(value)
            for name in [f.name for f in fields(value)] + ["unknown"]:
                assert refusal(setattr, value, name, None) == refusal(setattr, ref, name, None) \
                    == f"cannot assign to field {name!r}"
                assert refusal(delattr, value, name) == refusal(delattr, ref, name) \
                    == f"cannot delete field {name!r}"
            assert field_values(value) == before

    def test_copy_deepcopy_and_pickle_give_an_equal_value(self):
        for value in built_values():
            twins = [copy.copy(value), copy.deepcopy(value)] + [
                pickle.loads(pickle.dumps(value, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
            for twin in twins:
                assert type(twin) is type(value) and twin is not value
                assert twin == value and field_values(twin) == field_values(value)

    def test_signature_is_the_generated_one(self):
        assert len(COMPILED_INIT_TYPES) >= 17
        for cls in COMPILED_INIT_TYPES + [Flagged]:
            assert inspect.signature(cls) == inspect.signature(generated_class(cls)), cls
            assert cls.__match_args__ == generated_class(cls).__match_args__
            assert cls.__init__.__qualname__ == f"{cls.__qualname__}.__init__"
            assert cls.__init__.__module__ == cls.__module__
        assert str(inspect.signature(ChainRole)) == "(base: 'str | None' = None) -> None"

    def test_keywords_replace_and_a_missing_argument_act_as_generated(self):
        for value in built_values():
            if type(value) in COMPILED_INIT_TYPES:
                by_name = {f.name: getattr(value, f.name) for f in fields(value)}
                assert type(value)(**by_name) == value == replace(value)
        texts = []
        for cls in (whale.ConcentrationResult, generated_class(whale.ConcentrationResult)):
            with pytest.raises(TypeError) as raised:
                cls("A", 0.1, 0.1, 0.1)
            texts.append(str(raised.value))
        assert texts[0] == texts[1] == ("ConcentrationResult.__init__() missing 1 required "
                                        "positional argument: 'wds'")

    @pytest.mark.parametrize("value,changes,error", [
        (FrameworkParams(), {"alpha": 2}, ConfigError),
        (ChainRole.hosted_on("SOL"), {"base": ""}, ConfigError),
        (bar(1), {"low": 200.0}, LowAboveHigh),
        (HolderSnapshot("A", (0.5, 0.2)), {"shares": (0.2, 0.5)}, InvalidShares),
        (ScorePoint(date(2024, 1, 1), 1.0), {"value": -1.0}, OutOfRange),
    ])
    def test_the_post_init_rules_hold_for_the_constructor_and_replace(self, value, changes, error):
        with pytest.raises(error):
            type(value)(**{f.name: getattr(value, f.name) for f in fields(value)} | changes)
        with pytest.raises(error):
            replace(value, **changes)


class TestValueTypeDeclaration:
    def test_every_value_type_declares_its_own_docstring(self):
        # without one, dataclasses writes ``Name(signature)`` from inspect.signature at import
        for cls in VALUE_TYPES:
            assert cls.__doc__ and not cls.__doc__.startswith(f"{cls.__name__}("), cls

    @pytest.mark.parametrize("annotation,default", [
        (int, field(default_factory=int)),
        (int, field(kw_only=True)),
        (int, field(init=False, default=0)),
        (InitVar[int], 0),
    ])
    def test_value_type_refuses_a_field_it_does_not_compile(self, annotation, default):
        cls = type("Refused", (Value,), {"__annotations__": {"x": annotation}, "x": default})
        with pytest.raises(TypeError, match="^Refused.x: value_type compiles no InitVar"):
            value_type(cls)

    def test_a_field_without_a_default_cannot_follow_one_with_a_default(self):
        cls = type("Unordered", (Value,), {"__annotations__": {"w": int, "x": int, "y": int}, "x": 0})
        with pytest.raises(TypeError) as ours:
            value_type(cls)
        with pytest.raises(TypeError) as generated_text:
            make_dataclass("Unordered", [("w", int), ("x", int, field(default=0)), ("y", int)], frozen=True)
        # Python 3.13 also names the field with the default
        assert str(ours.value).startswith(str(generated_text.value))
        assert str(ours.value) == "non-default argument 'y' follows default argument 'x'"

    def test_import_compiles_no_frozen_pair_and_one_init_per_value_type(self):
        src = Path(domain.__file__).resolve().parent.parent
        done = subprocess.run([sys.executable, "-c", f"import sys; sys.path.insert(0, {str(src)!r})"
                               + IMPORT_AUDIT], capture_output=True, text=True, check=True, timeout=120)
        counts = json.loads(done.stdout)
        assert counts["__setattr__"] == counts["__delattr__"] == 0, counts
        assert 0 < counts["__init__"] <= counts["types"], counts


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
