"""Data ingestion: CSV loaders, universe files and output files.

CSV schemas (exact headers):
    bars       date,high,low,close,volume_usd,market_cap_usd
    holders    rank,share        (or address,share)
    sentiment  date,fgi,abs_return

Pre-aggregated summary tables (the alternative entry point to raw series):
    volatility token,avg_vol_pct,max_vol_pct,max_volume_busd,max_mcap_busd,chain_role,base
    fgi        token,f_bar,f_max,f_min,q_g_pct,q_f_pct,delta_f_max,delta_p_max_pct

Dates are ISO-8601 in the YYYY-MM-DD form only; decimal point, no thousands separators.

Remote market data lives in ``remote``; its public names are importable
from here too, and load that module on first use.
"""
from __future__ import annotations

import json
import math
import os
import re
from collections import defaultdict
from contextlib import suppress
from dataclasses import fields, replace
from datetime import date as Date
from itertools import compress, repeat
from operator import lt
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .domain import (
    ChainRole,
    FrameworkParams,
    HolderSnapshot,
    SentimentSeries,
    TokenSeries,
    check_rows,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyFile,
    EmptyUniverse,
    InsufficientHistory,
    InvalidShares,
    InvalidSummary,
    MalformedRow,
    MissingBaseChain,
    NonMonotonicDates,
    SchemaMismatch,
)
from .scoring import TokenInputs
from .sentiment import FgiIndicators, fgi_indicators
from .volatility import VolatilityAggregate, aggregate, in_scale_units
from .warning import Metric, ScoreSeries
from .whale import concentration

BARS_HEADER = ["date", "high", "low", "close", "volume_usd", "market_cap_usd"]
SENTIMENT_HEADER = ["date", "fgi", "abs_return"]
HISTORY_HEADER = ["date", "token", "metric", "value"]
VOLATILITY_TABLE_HEADER = [
    "token", "avg_vol_pct", "max_vol_pct", "max_volume_busd", "max_mcap_busd",
    "chain_role", "base",
]
FGI_TABLE_HEADER = [
    "token", "f_bar", "f_max", "f_min", "q_g_pct", "q_f_pct",
    "delta_f_max", "delta_p_max_pct",
]


# --- CSV plumbing --------------------------------------------------------

_CHUNK = 1 << 12  # data lines of a CSV split at a time


def _read_columns(path: Path, *headers: list[str],
                  shared: Sequence[str] = ()) -> tuple[list[str], Sequence[int], list[list[str]]]:
    """A CSV file's header, the physical line numbers of its data rows, and its cells by column.

    Blank lines are skipped but counted, so a number is the line an editor
    shows. The first non-blank line must equal one of ``headers`` and
    every data row must have as many cells as it. Cells are not stripped:
    ``float`` ignores surrounding blanks, and callers strip the text cells
    they use. A file that cannot be read as UTF-8 text is a ``DataError``.

    Once every row holds ``width - 1`` commas, the rows joined by commas
    split into ``width`` cells per row, in order, so no list is built per
    row. The body is split ``_CHUNK`` lines at a time. The cells of each
    ``shared`` column (one whose texts repeat) go through one dict per
    column, so equal texts are one ``str``, and a chunk's repeated cells
    are freed before the next is split.
    """
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeError) as exc:  # missing, a directory, not UTF-8
        raise DataError(f"{path}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None
    if all(map(str.strip, lines)):
        numbers: Sequence[int] = range(1, len(lines) + 1)
    else:
        numbers = [i for i, line in enumerate(lines, start=1) if line.strip()]
        lines = [lines[i - 1] for i in numbers]
    if not lines:
        raise EmptyFile(f"{path}: file is empty")
    header = [cell.strip() for cell in lines[0].split(",")]
    if header not in headers:
        expected = " or ".join(",".join(h) for h in headers)
        raise SchemaMismatch(f"{path}: header {header!r} is not {expected}")
    del lines[0]
    if not lines:
        raise EmptyFile(f"{path}: no data rows")
    width = len(header)
    commas = list(map(str.count, lines, repeat(",")))
    if commas.count(width - 1) != len(commas):
        i = next(i for i, count in enumerate(commas) if count != width - 1)
        raise MalformedRow(path, numbers[i + 1], header[0],
                           f"expected {width} cells, got {commas[i] + 1}")
    memos = [{} if name in shared else None for name in header]
    columns: list[list[str]] = [[] for _ in header]
    for start in range(0, len(lines), _CHUNK):
        cells = ",".join(lines[start:start + _CHUNK]).split(",")
        for j, (column, memo) in enumerate(zip(columns, memos)):
            part = cells[j::width]
            column += part if memo is None else map(memo.setdefault, part, part)
        del cells, part  # the chunk's repeated cells go before the next split
    return header, numbers[1:], columns


def iso_days(cells: Sequence[str]) -> list[Date]:
    """``YYYY-MM-DD`` cells as dates; ``ValueError`` for any other form.

    This is the one date rule of every input, files and command lines.
    Python 3.11's ``date.fromisoformat`` also takes ``20240102``,
    ``2024-W01-2`` and even ``2024010299``, but on every version it takes
    only ``YYYY-MM-DD`` from ten characters with "-" at offsets 4 and 7.
    Joined by commas, the cells all have ten characters exactly when the
    text holds n - 1 commas, at offsets 10, 21, 32 and so on.
    """
    n = len(cells)
    joined = ",".join(cells)
    aligned = (len(joined) == 11 * n - 1 and joined[10::11] == "," * (n - 1)
               and joined.count(",") == n - 1)
    if not aligned or joined[4::11] != "-" * n or joined[7::11] != "-" * n:
        raise ValueError("not YYYY-MM-DD dates")
    return list(map(Date.fromisoformat, cells))


# The token-id rule: every character of an id is one that XML 1.0 can hold
# (ids are chart text) and UTF-8 can encode (ids are written to UTF-8 files):
# no lone surrogate, no U+FFFE or U+FFFF, and no C0 control but tab, LF and CR.
_ID_FORBIDDEN = r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]"  # compiled on first use


def token_id_fault(ids: Sequence[str]) -> str | None:
    """Why ``ids`` break the token-id rule: an empty id, else the first that
    holds a forbidden character; None when none does, found by one search
    over all of them."""
    if not all(ids):
        return "empty token id"
    if re.search(_ID_FORBIDDEN, "".join(ids)) is None:
        return None
    tid, char = next((t, m.group()) for t in ids if (m := re.search(_ID_FORBIDDEN, t)))
    return f"token id {tid!r} holds {char!r}, which XML 1.0 cannot hold or UTF-8 cannot encode"


def _token_id_for(path: Path, token_id: str | None) -> str:
    return token_id if token_id else Path(path).stem.upper()


def _by_date(dates: list[Date], *columns: list) -> list:
    """``dates`` and ``columns`` reordered by a stable sort on the date."""
    if all(map(lt, dates, dates[1:])):
        return [dates, *columns]
    order = sorted(range(len(dates)), key=dates.__getitem__)
    return [[column[i] for i in order] for column in (dates, *columns)]


# --- loaders -------------------------------------------------------------
#
# Every CSV is read as columns (_read_columns), with one split per chunk of
# lines; a history's repeated cells are shared.
# Each loader has one parse of those columns. It checks the cells' text
# (numbers, dates and tokens) by column, and leaves every invariant of the
# values to the rule table of the type it builds (of a chain role's text,
# ChainRole.text_rules), run once over whole columns. Either way a bad row
# raises a DataError whose field names the column, or the broken rule's field,
# which maps to its CSV column. _located runs the parse once on the
# file and, only if it fails, bisects over row prefixes to find the first
# bad row in file order, whose line the MalformedRow names.

_METRICS = {m.value: m for m in Metric}
_VOLATILITY_COLUMNS = dict(zip([*(f.name for f in fields(VolatilityAggregate)), "role", "base"],
                               VOLATILITY_TABLE_HEADER))
_FGI_COLUMNS = dict(zip([f.name for f in fields(FgiIndicators)], FGI_TABLE_HEADER))


def _located(path: Path, numbers: Sequence[int], columns: list[list[str]], parse,
             column_of: Mapping[str, str] | None = None):
    """``parse(columns)``, or the ``MalformedRow`` of the first bad row in file order.

    A bad row raises a ``DataError`` whose ``field`` names a column, or a
    field that ``column_of`` maps to one; an error without a field goes on
    unchanged. A prefix of the rows fails to parse exactly when it holds a
    bad row (a repeat counts at its later line), so the shortest failing
    prefix ends at the first bad row, and its parse raises that row's error.
    The search is a bisection: O(log n) parses, and none when the file is good.
    """
    try:
        return parse(columns)
    except DataError as exc:
        if exc.field is None:
            raise
        error = exc
    good, bad = 0, len(numbers)  # the first `good` rows parse, the first `bad` rows do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            parse([column[:mid] for column in columns])
        except DataError as exc:
            if exc.field is None:
                raise
            bad, error = mid, exc
        else:
            good = mid
    column = (column_of or {}).get(error.field, error.field)
    raise MalformedRow(path, numbers[bad - 1], column, str(error)) from None


def _floats(column: str, cells: list[str], optional: bool = False) -> Sequence:
    """A column's cells as finite floats; in an ``optional`` column a blank
    cell is None. Cell by cell, with stripping, only when the bulk parse fails."""
    blanks = cells.count("") if optional else 0
    with suppress(ValueError):  # a tuple, which a series keeps without a copy
        values = tuple(map(float, filter(None, cells) if blanks else cells))
        if math.isfinite(sum(values)):
            if blanks:  # put each blank back, as None
                values, i = list(values), -1
                for _ in range(blanks):
                    i = cells.index("", i + 1)
                    values.insert(i, None)
            return values
    values = []
    for raw in map(str.strip, cells):
        try:
            values.append(None if optional and not raw else float(raw))
        except ValueError:
            raise DataError(f"not a number: {raw!r}", field=column) from None
        if not math.isfinite(values[-1] or 0.0):  # None is a blank, not a bad cell
            raise DataError(f"not finite: {raw!r}", field=column)
    return values


def _summary_numbers(header: list[str], columns: list[list[str]]) -> list[Sequence[float]]:
    """A summary table's number columns, each ``_pct`` one as fractions."""
    return [[value / 100.0 for value in _floats(name, column)] if name.endswith("_pct")
            else _floats(name, column) for name, column in zip(header, columns)]


def _dates(cells: list[str]) -> list[Date]:
    """A date column; cell by cell, stripped, only when the bulk parse fails."""
    with suppress(ValueError):
        return iso_days(cells)
    days = []
    for raw in map(str.strip, cells):
        try:
            days += iso_days([raw])
        except ValueError:
            raise DataError(f"not a YYYY-MM-DD date: {raw!r}", field="date") from None
    return days


def _indices_by_key(keys: Iterable) -> dict[object, list[int]]:
    """Each distinct key of ``keys`` with the indices it occurs at, in order of first occurrence."""
    groups = defaultdict(list)
    for i, key in enumerate(keys):
        groups[key].append(i)
    return groups


def _first_repeat(keys: Iterable) -> int | None:
    """The index of the first key equal to an earlier one; None when none is."""
    seen: set = set()
    for i, key in enumerate(keys):
        if key in seen:
            return i
        seen.add(key)
    return None


def _stride(*columns: list[str]) -> int | None:
    """The period k of rows that repeat one order of distinct keys (a key is
    the row's cells in ``columns``) whole, at least twice, as a date-major
    history's rows do: row i then holds the key of row i % k. None for any
    other order, a single period included. One ``list.count`` per column
    and key confirms it."""
    k = _first_repeat(zip(*columns))
    if k is None or len(columns[0]) % k:
        return None
    periods = len(columns[0]) // k
    if all(column[j::k].count(column[j]) == periods for column in columns for j in range(k)):
        return k
    return None


def _take(column: Sequence, rows: slice | list[int]) -> Sequence:
    """The cells of ``column`` at ``rows``, a slice or row indices, in that order."""
    return column[rows] if isinstance(rows, slice) else list(map(column.__getitem__, rows))


def _tokens(cells: list[str]) -> list[str]:
    """A column's stripped token cells; an empty, bad or repeated one is a row error."""
    tokens = list(map(str.strip, cells))
    if fault := token_id_fault(tokens):
        raise DataError(fault, field="token")
    if len(set(tokens)) != len(tokens):
        raise DataError(f"duplicate row for token {tokens[_first_repeat(tokens)]!r}", field="token")
    return tokens


def _load_daily_csv(path: str | Path, token_id: str | None, series_type, header: list[str]):
    path = Path(path)
    _, numbers, columns = _read_columns(path, header)
    token_id = _token_id_for(path, token_id)

    def parse(columns: list[list[str]]):
        dates = _dates(columns[0])
        ascending = all(map(lt, dates, dates[1:]))
        if not ascending and len(set(dates)) != len(dates):
            raise DataError(f"duplicate date {dates[_first_repeat(dates)]}", field="date")
        values = [_floats(name, column, name == "abs_return")
                  for name, column in zip(header[1:], columns[1:])]
        return series_type.from_columns(
            token_id, *([dates, *values] if ascending else _by_date(dates, *values)))

    return _located(path, numbers, columns, parse)


def load_bars_csv(path: str | Path, token_id: str | None = None) -> TokenSeries:
    """Load and validate a daily-bar CSV into a TokenSeries.

    Rows are sorted by date (shuffled input is canonicalized, not
    rejected); a repeated date and invariant violations are errors that
    name the file, the line and the column.
    """
    return _load_daily_csv(path, token_id, TokenSeries, BARS_HEADER)


def bars_to_csv(series: TokenSeries) -> str:
    lines = [",".join(BARS_HEADER)]
    for day, high, low, close, volume, mcap in zip(
        series.dates, series.high, series.low, series.close,
        series.volume_usd, series.market_cap_usd,
    ):
        lines.append(f"{day.isoformat()},{high},{low},{close},{volume},{mcap}")
    return "\n".join(lines) + "\n"


def load_sentiment_csv(path: str | Path, token_id: str | None = None) -> SentimentSeries:
    """Load a daily FGI CSV like ``load_bars_csv``; an empty abs_return means "no return"."""
    return _load_daily_csv(path, token_id, SentimentSeries, SENTIMENT_HEADER)


def load_holders_csv(
    path: str | Path,
    token_id: str | None = None,
    exclude: Iterable[str] = (),
) -> HolderSnapshot:
    """Load a holder-share CSV into a descending snapshot of all its rows.

    The first column is either a numeric rank or an address, and each
    stripped key occurs once; an optional ``exclude`` set drops address rows
    (custodial filtering, off by default) before their shares are parsed.
    Each share must lie in [0, 1], and the share sum is checked over the
    whole file. ``whale.concentration`` reads the top n.
    """
    path = Path(path)
    (key_column, _), numbers, columns = _read_columns(path, ["rank", "share"], ["address", "share"])
    excluded = set(exclude)

    def parse(columns: list[list[str]]) -> Sequence[float]:
        keys, raws = list(map(str.strip, columns[0])), columns[1]
        if len(set(keys)) != len(keys):  # over every row, excluded ones too
            raise DataError(f"duplicate row for {key_column} {keys[_first_repeat(keys)]!r}",
                            field=key_column)
        if excluded:
            raws = list(compress(raws, [key not in excluded for key in keys]))
        shares = _floats("share", raws)
        check_rows(HolderSnapshot.share_rules, {"share": shares})
        return shares

    shares = _located(path, numbers, columns, parse)
    if not shares:  # _read_columns refused a file without rows, so each row was excluded
        raise EmptyFile(f"{path}: every row is excluded by exclude_addresses")
    try:
        return HolderSnapshot(_token_id_for(path, token_id), sorted(shares, reverse=True))
    except InvalidShares as exc:  # the sum: every share passed the parse
        raise InvalidShares(f"{path}: {exc}") from None


def load_volatility_table(
    path: str | Path,
) -> dict[str, tuple[VolatilityAggregate, ChainRole]]:
    """Load a pre-aggregated volatility summary table.

    Percent columns become fractions; volume/market-cap columns stay in
    USD billions, the default scale unit (``load_universe`` converts them
    to any other). Tokens of one base share one ``ChainRole``.
    """
    path = Path(path)
    _, numbers, columns = _read_columns(path, VOLATILITY_TABLE_HEADER)

    def parse(columns: list[list[str]]) -> dict[str, tuple[VolatilityAggregate, ChainRole]]:
        tokens = _tokens(columns[0])
        values = _summary_numbers(VOLATILITY_TABLE_HEADER[1:5], columns[1:5])
        roles, bases = (list(map(str.strip, column)) for column in columns[5:])
        check_rows(ChainRole.text_rules, {"token_id": tokens, "role": roles, "base": bases})
        role_of = {base: ChainRole(base or None) for base in set(bases)}
        aggregates = VolatilityAggregate.many(dict(zip(_VOLATILITY_COLUMNS, (tokens, *values))))
        return {agg.token_id: (agg, role_of[base]) for agg, base in zip(aggregates, bases)}

    return _located(path, numbers, columns, parse, _VOLATILITY_COLUMNS)


def load_fgi_table(path: str | Path) -> dict[str, FgiIndicators]:
    """Load a pre-aggregated FGI indicator table (percent columns -> fractions)."""
    path = Path(path)
    _, numbers, columns = _read_columns(path, FGI_TABLE_HEADER)

    def parse(columns: list[list[str]]) -> dict[str, FgiIndicators]:
        tokens = _tokens(columns[0])
        values = _summary_numbers(FGI_TABLE_HEADER[1:], columns[1:])
        return dict(zip(tokens, FgiIndicators.many(dict(zip(_FGI_COLUMNS, (tokens, *values))))))

    return _located(path, numbers, columns, parse, _FGI_COLUMNS)


def load_history_csv(path: str | Path) -> list[ScoreSeries]:
    """Load a score-history CSV (one date, token, metric, value per row).

    Returns one ``ScoreSeries`` per (token, metric), in that order. Rows
    may come in any order; a value must be finite and >= 0, and each
    (token, metric, date) may appear on one row only. Like every loader,
    the file is parsed once, by column; an error names the first bad line
    in file order, a repeat at its later line.

    A history repeats each date, token and metric on many rows, so those
    columns are read shared (see ``_read_columns``) and each distinct date
    text is parsed once, into one ``date`` that every series holding that
    day shares. When the rows repeat one order of (token, metric) keys, as
    a date-major history's do, each series is a stride of the columns and
    no row index is built (``_stride``); any other order is grouped by key.
    """
    path = Path(path)
    _, numbers, columns = _read_columns(path, HISTORY_HEADER, shared=HISTORY_HEADER[:3])

    def parse(columns: list[list[str]]) -> list[ScoreSeries]:
        texts = list(dict.fromkeys(columns[0]))  # in order of first occurrence
        day_of = dict(zip(texts, _dates(texts)))
        k = _stride(columns[1], columns[2])
        # rows by stripped key, in row order: with a period k, each key's rows are a stride
        groups: dict[tuple[str, str], slice | list[int]] = {} if k is None else {
            (token.strip(), name.strip()): slice(j, None, k)
            for j, (token, name) in enumerate(zip(columns[1][:k], columns[2][:k]))}
        if len(groups) != k:  # no stride, or padded variants of a key that join
            groups = {}
            for (token, name), indices in _indices_by_key(zip(columns[1], columns[2])).items():
                key = token.strip(), name.strip()  # padded variants of a key join
                groups[key] = sorted(groups[key] + indices) if key in groups else indices
        _tokens(list(dict.fromkeys(token for token, _ in groups)))  # each distinct one once
        for name in dict.fromkeys(name for _, name in groups):
            if name not in _METRICS:
                raise DataError(f"unknown metric {name!r}", field="metric")
        values = _floats("value", columns[3])
        series = []
        for (token, name), rows in sorted(groups.items()):
            key_days = tuple(map(day_of.__getitem__, _take(columns[0], rows)))  # kept as is
            try:
                series.append(ScoreSeries.from_columns(token, _METRICS[name], *_by_date(
                    key_days, _take(values, rows))))
            except NonMonotonicDates:  # values were fine: a repeated date
                raise DataError(f"duplicate row for token {token!r}, {name}, "
                                f"{key_days[_first_repeat(key_days)]}", field="date") from None
        return series

    return _located(path, numbers, columns, parse)


def write_files(directory: str | Path, files: Mapping[str, str | Iterable[str]], what: str) -> Path:
    """Write ``files`` (name: text) into ``directory``, made where missing, as UTF-8
    bytes; the directory. A text is a ``str`` or an iterable of ``str`` pieces, written
    as they come, so a generator renders its file as it is written. The one output
    rule: each text goes to a temporary name and all are renamed into place once all
    are written, so a failure, a ConfigError naming ``what`` and the path, leaves the
    old files and no temporary one; any other exception, from a piece's generator or
    an interrupt too, leaves them the same and goes on unchanged. Each piece is
    encoded and written whole."""
    directory = Path(directory)
    try:
        directory.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{what} {directory} cannot be made a directory: {exc.strerror or exc}") from None
    temporaries = {directory / name: directory / f".{name}.{os.getpid()}.tmp" for name in files}
    try:
        for (target, temporary), text in zip(temporaries.items(), files.values()):
            if target.is_dir():  # else renaming onto it would fail after others were renamed
                raise IsADirectoryError("Is a directory")
            with temporary.open("wb") as file:
                for piece in (text,) if isinstance(text, str) else text:
                    file.write(piece.encode("utf-8"))
        for target, temporary in temporaries.items():
            os.replace(temporary, target)
    except BaseException as exc:  # an interrupt too leaves no temporary file
        for temporary in temporaries.values():
            with suppress(OSError):  # renamed already, or never made
                temporary.unlink()
        if isinstance(exc, OSError):
            raise ConfigError(f"{what} {target}: cannot write: {exc.strerror or exc}") from None
        raise
    return directory


# --- universe files ------------------------------------------------------

def read_json_object(path: Path, where: str, error: type[ConfigError] | type[DataError]) -> dict:
    """The JSON object in a file a user passes in (universe file, provider config or
    report), else an ``error`` opening with ``where``: it "cannot read" as UTF-8, "is not
    valid JSON" (a decode error, an integer over 4,300 digits, deep nesting) or holds no object."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeError) as exc:  # missing, a directory, not UTF-8
        raise error(f"{where}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise error(f"{where} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{where} must contain a JSON object")
    return doc


def reject_unknown_keys(where: str, obj: dict, known: tuple[str, ...], owner: str = "") -> None:
    """A ``ConfigError`` opening with ``where`` for the first key of ``obj`` not in ``known``."""
    for key in obj:
        if key not in known:
            raise ConfigError(f"{where}: {owner}unknown key {key!r} (known keys: {', '.join(known)})")


_BUSD = 1e9  # USD in one unit of a volatility table's _busd columns
UNIVERSE_KEYS = ("tokens", "volatility_table", "fgi_table")
UNIVERSE_TOKEN_KEYS = ("id", "role", "base", "bars", "holders", "sentiment", "exclude_addresses")


def _table_size(token_id: str, name: str, busd: float, scale_unit: float) -> float:
    """A table's size of ``busd`` USD billions in ``scale_unit``s, as a bar size
    of its USD figure is; where that figure is past the float range, ``busd``
    is multiplied by the units in a billion instead."""
    usd = busd * _BUSD
    if not math.isinf(usd):
        return in_scale_units(token_id, name, usd, scale_unit)
    size = busd * (_BUSD / scale_unit)
    if math.isinf(size):
        raise ConfigError(f"{token_id}: {name} of {busd!r} billion USD overflows in units of "
                          f"scale_unit={scale_unit!r}")
    return size


def load_universe(path: str | Path, params: FrameworkParams) -> dict[str, TokenInputs]:
    """Assemble per-token inputs from a universe JSON file.

    The file lists per-token raw data files and/or pre-aggregated summary
    tables; relative paths resolve against the universe file's directory.
    Every entry is checked before any data file is read; a bad or repeated
    entry is a ``ConfigError``. An entry's base must be a standalone token
    of the universe, which is known once the tables are read, before any
    per-token file is.

    A token's files are all read, then each is reduced to its summary in
    the same order, so a file that does not parse is reported before one
    that does not reduce: the bars into ``volatility`` (in
    ``params.scale_unit``s), the holders into ``concentration`` (over the
    top ``params.n`` shares) and the sentiment into ``fgi``. A bars or
    sentiment file replaces the token's table row, and ``window`` is the
    bars' date span, else the sentiment's. One token's rows at a time are
    held, and a file too short or out of range to reduce is an
    ``InsufficientHistory`` or ``InvalidSummary`` naming it.
    """
    path = Path(path)
    where = f"universe file {path}"
    doc = read_json_object(path, where, ConfigError)

    reject_unknown_keys(where, doc, UNIVERSE_KEYS)

    def file_at(obj: dict, key: str, owner: str = "") -> Path | None:
        value = obj.get(key)
        if value is None:
            return None
        if not isinstance(value, str) or not value:
            raise ConfigError(f"{where}: {owner}{key!r} must be a file name, not {value!r}")
        return path.parent / value

    vol_path, fgi_path = file_at(doc, "volatility_table"), file_at(doc, "fgi_table")
    entries = doc.get("tokens", [])
    if not isinstance(entries, list):
        raise ConfigError(f"{where}: 'tokens' must be a list")

    entry_roles: dict[str, ChainRole] = {}
    files: dict[str, tuple] = {}
    for number, entry in enumerate(entries, start=1):
        tid = entry.get("id") if isinstance(entry, dict) else None
        if not isinstance(tid, str) or not tid:
            raise ConfigError(f"{where}: token entry {number} needs a non-empty string 'id'")
        if tid in files:
            raise ConfigError(f"{where}: token entry {number} repeats the id {tid!r}")
        if fault := token_id_fault([tid]):
            raise ConfigError(f"{where}: token entry {number}: {fault}")
        owner = f"token {tid!r}: "
        reject_unknown_keys(where, entry, UNIVERSE_TOKEN_KEYS, owner)
        exclude = entry.get("exclude_addresses", [])
        if not isinstance(exclude, list) or not all(isinstance(a, str) for a in exclude):
            raise ConfigError(f"{where}: {owner}'exclude_addresses' must be a list of strings")
        files[tid] = (*(file_at(entry, key, owner) for key in ("bars", "holders", "sentiment")),
                      exclude)
        role, base = entry.get("role"), entry.get("base")
        if (role, base) != (None, None):  # else the volatility table gives the role
            try:
                check_rows(ChainRole.text_rules, {"token_id": (tid,), "role": (role,), "base": (base,)})
            except DataError as exc:
                raise ConfigError(f"{where}: {owner}{exc.field!r}: {exc}") from None
            entry_roles[tid] = ChainRole(base or None)

    vol_table = {} if vol_path is None else load_volatility_table(vol_path)
    if params.scale_unit != _BUSD:  # table sizes into the unit that bar sizes are divided by
        vol_table = {tid: (replace(agg, **{size: _table_size(tid, size, getattr(agg, size),
                                                             params.scale_unit)
                                           for size in ("max_volume", "max_mcap")}), role)
                     for tid, (agg, role) in vol_table.items()}
    fgi_table = {} if fgi_path is None else load_fgi_table(fgi_path)
    roles = {tid: role for tid, (_, role) in vol_table.items()} | entry_roles
    for tid, (_, role) in vol_table.items():  # where a row gives the role, its base is data
        if roles[tid] is role and not roles.get(role.base, role).is_standalone:
            raise DataError(f"{vol_path}: token {tid!r} names base {role.base!r}, not a standalone token")
    universe_ids = set(vol_table) | set(fgi_table) | set(files)
    for tid, role in entry_roles.items():  # where an entry gives the role, its base is configuration
        if role.base is not None and role.base not in universe_ids:
            fault = "not in universe"
        elif role.base in roles and not roles[role.base].is_standalone:
            fault = "is itself hosted"
        else:
            continue
        raise MissingBaseChain(f"{where}: token {tid!r}: 'base': base chain {role.base!r} {fault}")
    token_ids = sorted(universe_ids)
    if not token_ids:
        raise EmptyUniverse(f"{where} names no tokens")

    universe: dict[str, TokenInputs] = {}
    for tid in token_ids:
        if tid not in roles:  # a token of the universe file, or of the fgi table alone
            error, source = (ConfigError, where) if tid in files else (DataError, fgi_path)
            raise error(f"{source}: no chain role known for {tid}")
        bars, holders, sentiment, exclude = files.get(tid, (None, None, None, ()))
        series = None if bars is None else load_bars_csv(bars, token_id=tid)
        snapshot = None if holders is None else load_holders_csv(holders, token_id=tid, exclude=exclude)
        points = None if sentiment is None else load_sentiment_csv(sentiment, token_id=tid)
        dated = points if series is None else series
        universe[tid] = TokenInputs(  # each file reduced in the order they were read
            role=roles[tid],
            volatility=(vol_table[tid][0] if tid in vol_table else None) if series is None
            else _reduced(bars, aggregate, series, params.scale_unit),
            concentration=None if snapshot is None else _reduced(holders, concentration, snapshot, params.n),
            fgi=fgi_table.get(tid) if points is None else _reduced(sentiment, fgi_indicators, points),
            window=None if dated is None else dated.window(),
        )
        del series, snapshot, points, dated  # so one token's rows at a time are held
    return universe


def _reduced(path: Path, reduce, *args):
    """``reduce(*args)``, a raw file's summary; an ``InsufficientHistory`` or
    ``InvalidSummary`` it raises is prefixed with ``path``, its field kept."""
    try:
        return reduce(*args)
    except (InsufficientHistory, InvalidSummary) as exc:
        raise type(exc)(f"{path}: {exc}", field=exc.field) from None


_REMOTE = ("ProviderEndpointSpec", "load_provider_config", "RateLimiter", "MarketDataClient")


def __getattr__(name: str):
    """``remote``'s public names, loaded on first use (PEP 562): only fetching compiles it."""
    if name in _REMOTE:
        from . import remote

        return getattr(remote, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
