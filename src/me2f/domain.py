"""Shared domain types: market bars, holder snapshots, sentiment series.

All types are frozen dataclasses that validate their invariants at
construction time, so a value that exists is a value that is valid. They
are safe to share across threads. Like every value type of the package they
are slotted (``slots=True``): an instance holds its fields and no
``__dict__``, which keeps a universe of them small. ``Checked.many`` builds
values without the constructor, setting each field with
``object.__setattr__`` as the frozen ``__init__`` does.

Every value type derives from ``Value`` and is declared with
``@value_type``, a slotted ``dataclass`` that generates no method. Its
``==``, ``hash`` and ``repr``, the frozen ``__setattr__`` and
``__delattr__``, and the state that ``copy`` and ``pickle`` take are
``Value``'s, which give what ``dataclasses`` would generate for a frozen
slotted class. ``dataclasses`` writes and compiles source for each method
it generates, at every import, with bytecode or without; stating those
methods once took the 128 compiles of ``import me2f.cli`` down to 18, one
``__init__`` per value type, which ``value_type`` compiles itself
(``BENCH_29.json``, ``BENCH_30.json``; README, start-up).

Each checked type states its row invariants once, in one table of
``Rule`` values. ``check_rows`` runs a table over whole columns in bulk,
and only when that fails rescans the rows one at a time, to name the first
bad row. A row type's constructor runs its table on one-row columns; the
daily series (bars, FGI, and score histories in ``warning``) and the table
loaders run it once over all their columns. Rules that span rows stay code.
"""
from __future__ import annotations

import math
import sys
from collections import deque, namedtuple
from dataclasses import _FIELD_INITVAR, MISSING, FrozenInstanceError, dataclass, fields
from datetime import date as Date
from functools import partial
from itertools import compress, dropwhile, pairwise, repeat
from operator import attrgetter, ge, le, lt
from reprlib import recursive_repr
from typing import Callable, Iterable, Mapping, Sequence, TypeVar

from .errors import (
    ConfigError,
    DataError,
    DegenerateUniverse,
    FgiOutOfRange,
    InvalidBar,
    InvalidShares,
    LowAboveHigh,
    NegativePrice,
    NonMonotonicDates,
    OutOfRange,
)

_SHARE_SUM_TOLERANCE = 1e-9


# One row invariant: the field it names; ``holds(columns)``, a test of whole
# columns by field name (a table's tests hold together exactly when every row
# keeps every rule); the error class; and the message, formatted with the
# failing row's fields.
Rule = namedtuple("Rule", "field holds error message")


def check_rows(rules: Sequence[Rule], columns: Mapping[str, Sequence]) -> None:
    """Check ``rules`` over whole columns; where one fails, raise the first
    failing rule of the first bad row, with the rule's ``field`` on the error."""
    n = len(next(iter(columns.values())))
    if not n or all(rule.holds(columns) for rule in rules):
        return
    for i in range(n):
        row = {name: column[i:i + 1] for name, column in columns.items()}
        for rule in rules:
            if not rule.holds(row):
                raise rule.error(rule.message.format(**{k: v for k, (v,) in row.items()}),
                                 field=rule.field)


def positive(name: str) -> Callable:
    """The test that every value of column ``name`` is finite and above 0."""
    return lambda c: all(map(math.isfinite, c[name])) and min(c[name]) > 0


def finite_in(name: str, lo: float = -math.inf, hi: float = math.inf) -> Callable:
    """The test that every value of column ``name`` is finite and in [lo, hi]."""
    if hi == math.inf:  # every finite value is below it: skip the max
        return lambda c: all(map(math.isfinite, c[name])) and min(c[name]) >= lo
    return lambda c: all(map(math.isfinite, c[name])) and lo <= min(c[name]) and max(c[name]) <= hi


def ratio_to_max(value: float, maximum: float) -> float:
    """``value`` over its universe ``maximum``, the normalization of every VDS and SAS
    component; a component whose maximum is 0 scores 0 for every token."""
    return value / maximum if maximum > 0 else 0.0


class Value:
    """A frozen slotted dataclass's methods, stated once.

    As the generated ones do, ``==`` compares the ``compare`` fields as a
    tuple and returns ``NotImplemented`` for another class, ``hash`` hashes
    that tuple, and ``repr`` shows the ``repr`` fields. (From Python 3.13
    the generated ``==`` compares field by field, which differs from a
    tuple only for a NaN that both values hold.) Assigning or deleting an
    attribute raises ``FrozenInstanceError``; the state that ``copy`` and
    ``pickle`` take is the field values in field order, restored through
    ``object.__setattr__``.
    """

    __slots__ = ()

    def _compared(self) -> tuple:
        return tuple(getattr(self, f.name) for f in fields(self) if f.compare)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._compared() == other._compared()
        return NotImplemented

    def __hash__(self):
        return hash(self._compared())

    @recursive_repr()
    def __repr__(self):
        shown = ", ".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self) if f.repr)
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __getstate__(self) -> list:
        return [getattr(self, f.name) for f in fields(self)]

    def __setstate__(self, state: list) -> None:
        for f, value in zip(fields(self), state):
            object.__setattr__(self, f.name, value)


# How every value type is declared: a slotted dataclass, deriving from ``Value``,
# for which ``dataclasses`` generates no method (not frozen, since ``Value``
# states the frozen pair). ``@value_type`` gives it the frozen ``__init__``,
# compiled by ``_frozen_init``; ``@value_type(init=False)`` leaves ``__init__`` to
# the class.
def value_type(cls: type | None = None, /, *, init: bool = True):
    if cls is None:
        return partial(value_type, init=init)
    cls = dataclass(cls, slots=True, eq=False, repr=False, init=False)
    if init:
        cls.__init__ = _frozen_init(cls)
    return cls


def _frozen_init(cls: type) -> Callable:
    """The ``__init__`` that a frozen dataclass generates for ``cls``.

    It sets each field through ``object.__setattr__``, in field order, then
    calls ``__post_init__`` where ``cls`` has one. It keeps the fields'
    plain defaults and annotations, so its signature is the generated one.
    A field option that it does not compile is a ``TypeError``.
    """
    fs = fields(cls)
    for f in cls.__dataclass_fields__.values():  # a ClassVar's kw_only stays MISSING, which is true
        if (f._field_type is _FIELD_INITVAR or f.default_factory is not MISSING
                or f.kw_only is True or not f.init):
            raise TypeError(f"{cls.__name__}.{f.name}: value_type compiles no InitVar, "
                            "default_factory, kw_only or init=False field")
    defaulted = list(dropwhile(lambda f: f.default is MISSING, fs))
    late = next((f for f in defaulted if f.default is MISSING), None)
    if late:  # as dataclasses words it from Python 3.13
        raise TypeError(f"non-default argument {late.name!r} follows default argument "
                        f"{defaulted[0].name!r}")
    body = [f"object.__setattr__(self, {f.name!r}, {f.name})" for f in fs]
    if hasattr(cls, "__post_init__"):
        body.append("self.__post_init__()")
    source = f"def __init__(self, {', '.join(f.name for f in fs)}):\n" + "".join(
        f"    {line}\n" for line in body or ["pass"])
    made: dict = {}
    exec(source, vars(sys.modules[cls.__module__]), made)
    init = made["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__defaults__ = tuple(f.default for f in fs if f.default is not MISSING) or None
    init.__annotations__ = {f.name: f.type for f in fs} | {"return": None}
    return init


class Maxima(Value):
    """The universe maxima of a score's components, one field each, where a
    subclass's ``components(row)`` gives one token's values in field order."""

    __slots__ = ()

    @classmethod
    def over(cls, rows: Iterable) -> Maxima:
        """Each component's maximum over ``rows``; a ``DegenerateUniverse`` for none."""
        values = list(map(cls.components, rows))
        if not values:
            raise DegenerateUniverse(f"no tokens to normalize for {cls.__name__}")
        return cls(*map(max, zip(*values)))

    def degenerate_components(self) -> list[str]:
        """Names of components whose maximum is zero (they score 0 for everyone)."""
        return [f.name for f in fields(self) if getattr(self, f.name) <= 0]


class Checked(Value):
    """A value type whose constructor checks its ``rules`` on one-row
    columns, and whose ``many`` checks whole columns and builds unchecked."""

    __slots__ = ()
    rules: tuple[Rule, ...] = ()

    def __post_init__(self):
        check_rows(self.rules, {f.name: (getattr(self, f.name),) for f in fields(self)})

    @classmethod
    def many(cls, columns: Mapping[str, Sequence]) -> list:
        """One value per row of ``columns``, every field by name in field order."""
        check_rows(cls.rules, columns)
        built = list(map(object.__new__, repeat(cls, len(next(iter(columns.values()))))))
        for name, column in columns.items():  # one field of every value, as the frozen __init__ sets it
            deque(map(object.__setattr__, built, repeat(name), column), maxlen=0)
        return built


@value_type
class DailyBar(Checked):
    """One day of trading: intraday extremes, close, volume, market cap (USD)."""

    date: Date
    high: float
    low: float
    close: float
    volume_usd: float
    market_cap_usd: float

    rules = (
        Rule("high", positive("high"), NegativePrice, "high={high!r} on {date}"),
        Rule("low", positive("low"), NegativePrice, "low={low!r} on {date}"),
        Rule("close", positive("close"), NegativePrice, "close={close!r} on {date}"),
        Rule("volume_usd", finite_in("volume_usd", 0), InvalidBar,
             "volume_usd={volume_usd!r} on {date}"),
        Rule("market_cap_usd", finite_in("market_cap_usd", 0), InvalidBar,
             "market_cap_usd={market_cap_usd!r} on {date}"),
        Rule("low", lambda c: all(map(le, c["low"], c["high"])), LowAboveHigh,
             "low={low!r} > high={high!r} on {date}"),
    )


_Series = TypeVar("_Series", bound="_DailySeries")


@value_type(init=False)
class _DailySeries(Value):
    """Date-ascending daily rows under key fields, one tuple per column.

    A subclass declares any key fields after ``token_id``, then one column
    per field of its ``row_type``, ``dates`` first, whose ``rules`` are
    checked over whole columns. ``Series(*keys, rows)`` takes row values;
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

    def _columns(self) -> dict[str, tuple]:
        """The columns by the row type's field names (``date`` for ``dates``)."""
        names = [f.name for f in fields(self.row_type)]
        return {name: getattr(self, f.name) for name, f in zip(names, fields(self)[-len(names):])}

    def _check(self) -> None:
        """Check the row type's rules over whole columns, then that dates ascend."""
        columns = self._columns()
        if len(set(map(len, columns.values()))) > 1:
            raise DataError(f"{self.token_id}: columns differ in length")
        check_rows(self.row_type.rules, columns)
        if all(map(lt, self.dates, self.dates[1:])):
            return
        for prev, cur in pairwise(self.dates):
            if cur <= prev:
                what = "duplicate" if cur == prev else "out-of-order"
                raise NonMonotonicDates(f"{what} date {cur}")

    def _rows(self) -> tuple:
        return tuple(self.row_type.many(self._columns()))

    def window(self) -> tuple[Date, Date] | None:
        if not self.dates:
            return None
        return self.dates[0], self.dates[-1]


@value_type(init=False)
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


def validate_series(series: _Series) -> _Series:
    """Re-check every row and series invariant; return the series unchanged.

    Construction already runs the same check, so this only matters for a
    series whose columns were set some other way.
    """
    series._check()
    return series


@value_type
class HolderSnapshot(Value):
    """Top holder ownership shares (fractions of total supply), descending.

    Snapshots may carry fewer entries than the scoring parameter ``n``;
    absent tail holders count as zero shares.
    """

    token_id: str
    shares: tuple[float, ...]

    share_rules = (
        Rule("share", lambda c: all(map(math.isfinite, c["share"])), InvalidShares,
             "share {share} is not finite"),
        Rule("share", lambda c: min(c["share"]) >= 0, InvalidShares, "negative share {share}"),
        Rule("share", lambda c: max(c["share"]) <= 1, InvalidShares, "share {share} above 1"),
    )

    def __post_init__(self):  # the order and the sum span the shares, so they are checked here
        shares = tuple(self.shares)
        object.__setattr__(self, "shares", shares)
        check_rows(self.share_rules, {"share": shares})
        if not all(map(ge, shares, shares[1:])):
            k = next(k for k, (bigger, smaller) in enumerate(pairwise(shares)) if smaller > bigger)
            raise InvalidShares(f"shares not descending at position {k + 2}")
        total = math.fsum(shares)
        if total > 1 + _SHARE_SUM_TOLERANCE:
            raise InvalidShares(f"shares sum to {total}, exceeding total supply")


@value_type
class SentimentPoint(Checked):
    """Daily fear-and-greed index value with that day's absolute price return.

    ``abs_return`` is None on days without a previous close (typically the
    first observation).
    """

    date: Date
    fgi: float
    abs_return: float | None = None

    rules = (
        Rule("fgi", finite_in("fgi", 0, 100), FgiOutOfRange, "fgi={fgi!r} on {date} outside [0, 100]"),
        Rule("abs_return",  # filter(None, ...) drops absent returns, and zeros, which are valid
             lambda c: all(map(math.isfinite, r := list(filter(None, c["abs_return"]))))
             and min(r, default=0.0) >= 0,
             OutOfRange, "abs_return={abs_return!r} on {date} must be >= 0"),
    )


@value_type(init=False)
class SentimentSeries(_DailySeries):
    """Date-ascending FGI observations for one token: ``SentimentSeries(token_id, points)``."""

    dates: tuple[Date, ...]
    fgi: tuple[float, ...]
    abs_return: tuple[float | None, ...]

    row_type = SentimentPoint
    points = property(
        _DailySeries._rows, doc="The rows as ``SentimentPoint`` values, built on each access."
    )


@value_type
class FrameworkParams(Value):
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


@value_type
class ChainRole(Value):
    """Standalone chain, or token hosted on a standalone base chain."""

    base: str | None = None

    # A role as text (volatility-table rows, universe entries) is "standalone", naming no
    # base, or "hosted", naming a non-empty one; the later rules see only known roles.
    text_rules = (
        Rule("role", lambda c: all(map(("standalone", "hosted").__contains__, c["role"])),
             DataError, "unknown role {role!r}"),
        Rule("base", lambda c: all(isinstance(base, str) and base
                                   for base in compress(c["base"], map("hosted".__eq__, c["role"]))),
             DataError, "hosted token {token_id} needs a base"),
        Rule("base", lambda c: all(map(("", None).__contains__,
                                       compress(c["base"], map("standalone".__eq__, c["role"])))),
             DataError, "standalone token {token_id} must not name a base"),
    )

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
