"""Data ingestion: CSV loaders, universe files, and remote market data.

CSV schemas (exact headers):
    bars       date,high,low,close,volume_usd,market_cap_usd
    holders    rank,share        (or address,share)
    sentiment  date,fgi,abs_return

Pre-aggregated summary tables (the alternative entry point to raw series):
    volatility token,avg_vol_pct,max_vol_pct,max_volume_busd,max_mcap_busd,chain_role,base
    fgi        token,f_bar,f_max,f_min,q_g_pct,q_f_pct,delta_f_max,delta_p_max_pct

Dates are ISO-8601 in the YYYY-MM-DD form only; decimal point, no thousands separators.

Remote fetching is provider-neutral: a JSON config declares the URL
template, pagination query, field paths and rate limit. Responses are
cached on disk under <cache_dir>/<provider>/<token>/<kind>/<range>.json
with a sha256 sidecar; cache hits make zero network calls.
"""
from __future__ import annotations

import json
import math
import os
import re
import threading
import time
from collections import defaultdict, deque
from contextlib import suppress
from dataclasses import dataclass, fields, replace
from datetime import date as Date
from datetime import timedelta, timezone
from itertools import compress, repeat
from operator import lt
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

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
    HttpError,
    InsufficientHistory,
    InvalidShares,
    MalformedRow,
    MissingBaseChain,
    NonMonotonicDates,
    ParseError,
    PartialRange,
    ProviderUnreachable,
    RateLimited,
    SchemaMismatch,
)
from .scoring import TokenInputs
from .sentiment import FgiIndicators
from .volatility import VolatilityAggregate, in_scale_units
from .warning import Metric, ScoreSeries

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
                  shared: Sequence[str] = ()) -> tuple[Sequence[int], list[list[str]]]:
    """Physical line numbers of a CSV file's data rows, and its cells by column.

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
    return numbers[1:], columns


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
    """Why the first of ``ids`` that breaks the token-id rule breaks it; None
    when none does, found by one search over all of them."""
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
    if not all(tokens):
        raise DataError("empty token id", field="token")
    if fault := token_id_fault(tokens):
        raise DataError(fault, field="token")
    if len(set(tokens)) != len(tokens):
        raise DataError(f"duplicate row for token {tokens[_first_repeat(tokens)]!r}", field="token")
    return tokens


def _load_daily_csv(path: str | Path, token_id: str | None, series_type, header: list[str]):
    path = Path(path)
    numbers, columns = _read_columns(path, header)
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


def load_sentiment_csv(path: str | Path, token_id: str | None = None) -> SentimentSeries:
    """Load a daily FGI CSV like ``load_bars_csv``; an empty abs_return means "no return"."""
    return _load_daily_csv(path, token_id, SentimentSeries, SENTIMENT_HEADER)


def load_holders_csv(
    path: str | Path,
    token_id: str | None = None,
    n: int = 100,
    exclude: Iterable[str] = (),
) -> HolderSnapshot:
    """Load a holder-share CSV into a descending top-n snapshot.

    The first column is either a numeric rank or an address; an optional
    ``exclude`` set drops address rows (custodial filtering, off by
    default) before their shares are parsed. Each share must lie in
    [0, 1], and the share sum is checked over the whole file, before
    truncation to the top n.
    """
    path = Path(path)
    numbers, columns = _read_columns(path, ["rank", "share"], ["address", "share"])
    excluded = set(exclude)

    def parse(columns: list[list[str]]) -> Sequence[float]:
        keys, raws = columns
        if excluded:
            raws = list(compress(raws, [key.strip() not in excluded for key in keys]))
        shares = _floats("share", raws)
        check_rows(HolderSnapshot.share_rules, {"share": shares})
        return shares

    shares = _located(path, numbers, columns, parse)
    if not shares:
        raise EmptyFile(f"{path}: no data rows")
    try:
        snapshot = HolderSnapshot(_token_id_for(path, token_id), sorted(shares, reverse=True))
    except InvalidShares as exc:  # the sum: every share passed the parse
        raise InvalidShares(f"{path}: {exc}") from None
    return HolderSnapshot(snapshot.token_id, snapshot.shares[:n])


def load_volatility_table(
    path: str | Path,
) -> dict[str, tuple[VolatilityAggregate, ChainRole]]:
    """Load a pre-aggregated volatility summary table.

    Percent columns become fractions; volume/market-cap columns stay in
    USD billions, the default scale unit (``load_universe`` converts them
    to any other). Tokens of one base share one ``ChainRole``.
    """
    path = Path(path)
    numbers, columns = _read_columns(path, VOLATILITY_TABLE_HEADER)

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
    numbers, columns = _read_columns(path, FGI_TABLE_HEADER)

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
    numbers, columns = _read_columns(path, HISTORY_HEADER, shared=HISTORY_HEADER[:3])

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
    Each token's inputs are ``resolved`` as its files are read: its bars and
    sentiment are reduced to the summaries that replace its table rows and
    then dropped, so one token's rows at a time are held, and a too-short
    file is an ``InsufficientHistory`` naming it. Every entry is checked before
    any data file is read; a bad or repeated entry is a ``ConfigError``. An
    entry's base must be a standalone token of the universe, which is known
    once the tables are read, before any per-token file is.
    """
    path = Path(path)
    where = f"universe file {path}"
    doc = read_json_object(path, where, ConfigError)

    def reject_unknown_keys(obj: dict, known: tuple[str, ...], owner: str = "") -> None:
        for key in obj:
            if key not in known:
                raise ConfigError(f"{where}: {owner}unknown key {key!r} "
                                  f"(known keys: {', '.join(known)})")

    reject_unknown_keys(doc, UNIVERSE_KEYS)

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
        reject_unknown_keys(entry, UNIVERSE_TOKEN_KEYS, owner)
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
        raw = TokenInputs(
            role=roles[tid],
            series=None if bars is None else load_bars_csv(bars, token_id=tid),
            volatility=vol_table[tid][0] if tid in vol_table else None,
            holders=None if holders is None else load_holders_csv(
                holders, token_id=tid, n=params.n, exclude=exclude),
            sentiment=None if sentiment is None else load_sentiment_csv(sentiment, token_id=tid),
            fgi=fgi_table.get(tid),
        )
        try:
            universe[tid] = raw.resolved(params)
        except InsufficientHistory as exc:  # name the short file; the bars are reduced first
            short = bars if raw.series is not None and len(raw.series.dates) < 2 else sentiment
            raise InsufficientHistory(f"{short}: {exc}") from None
        del raw  # so one token's rows at a time are held
    return universe


# --- remote market data ----------------------------------------------------

_URL_PLACEHOLDERS = ("token", "start", "end", "page", "page_size")


def _check_template(key: str, template: str) -> list[str]:
    """The placeholder names of a ``path`` or ``query`` value, which fills in
    only bare ``_URL_PLACEHOLDERS`` (a doubled brace is a literal one)."""
    from string import Formatter  # here: it slows CLI start-up

    try:
        fields = [(name, spec, conversion)
                  for _, name, spec, conversion in Formatter().parse(template) if name is not None]
    except ValueError as exc:  # a lone brace
        raise ConfigError(f"{key}={template!r} is not a URL template: {exc}") from None
    if any(name not in _URL_PLACEHOLDERS or spec or conversion for name, spec, conversion in fields):
        allowed = ", ".join(f"{{{name}}}" for name in _URL_PLACEHOLDERS)
        raise ConfigError(f"{key}={template!r} may use only the placeholders {allowed}")
    return [name for name, _, _ in fields]


def _check_cache_name(what: str, name: str) -> None:
    """A ``ConfigError`` unless ``name`` (a token id or a provider name) can be one
    directory of a cache path: not empty, ``.`` or ``..``, without ``/`` or ``\\``,
    and keeping the token-id rule, so no cache file lands outside the cache directory."""
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ConfigError(f"{what} {name!r} must name one directory under the cache directory")
    if fault := token_id_fault([name]):
        raise ConfigError(f"{what}: {fault}")


@dataclass(frozen=True, slots=True)
class ProviderEndpointSpec:
    """Declarative description of one market-data provider.

    ``path`` and ``query`` values may use the placeholders {token},
    {start}, {end}, {page} and {page_size}. ``items_path`` and the
    ``fields`` values are dot-separated paths into the JSON response.
    The API key is read from the environment (ME2F_API_KEY_<NAME>) and
    sent in ``api_key_header``; keys never live in config files.
    """

    name: str
    base_url: str
    path: str
    query: Mapping[str, str]
    fields: Mapping[str, str]
    items_path: str = ""
    api_key_header: str | None = None
    rate_limit: int = 30
    timeout: float = 10.0
    page_size: int = 100

    def __post_init__(self):
        texts = [("name", self.name), ("base_url", self.base_url), ("path", self.path),
                 ("items_path", self.items_path)]
        if self.api_key_header is not None:
            texts.append(("api_key_header", self.api_key_header))
        for mapping in ("query", "fields"):
            texts += ((f"{mapping}.{key}", value) for key, value in getattr(self, mapping).items())
        for key, value in texts:
            if not isinstance(value, str):
                raise ConfigError(f"{key}={value!r} must be a string")
        _check_cache_name("provider name", self.name)
        self.placeholders()
        if self.rate_limit <= 0:
            raise ConfigError(f"rate_limit={self.rate_limit} must be > 0")
        if not self.timeout > 0:  # NaN included
            raise ConfigError(f"timeout={self.timeout} must be > 0")
        if self.page_size < 1:  # a page of 0 items never ends the paging
            raise ConfigError(f"page_size={self.page_size} must be >= 1")
        missing = [f for f in BARS_HEADER if f not in self.fields]
        if missing:
            raise ConfigError(f"provider {self.name}: missing field paths for {missing}")

    def placeholders(self) -> set[str]:
        """The placeholder names that ``path`` and the ``query`` values use, each checked."""
        names = set(_check_template("path", self.path))
        for key, value in self.query.items():
            names.update(_check_template(f"query.{key}", value))
        return names

    def api_key_env(self) -> str:
        return "ME2F_API_KEY_" + "".join(
            ch if ch.isalnum() else "_" for ch in self.name.upper()
        )


def load_provider_config(path: str | Path) -> ProviderEndpointSpec:
    path = Path(path)
    doc = read_json_object(path, f"provider config {path}", ConfigError)
    try:
        return ProviderEndpointSpec(
            name=doc["name"],
            base_url=doc["base_url"],
            path=doc.get("path", ""),
            query=dict(doc.get("query", {})),
            fields=dict(doc["fields"]),
            items_path=doc.get("items_path", ""),
            api_key_header=doc.get("api_key_header"),
            rate_limit=int(doc.get("rate_limit_per_minute", 30)),
            timeout=float(doc.get("timeout_seconds", 10.0)),
            page_size=int(doc.get("page_size", 100)),
        )
    except KeyError as exc:
        raise ConfigError(f"provider config {path}: missing key {exc}") from None
    except (TypeError, ValueError, OverflowError, ConfigError) as exc:  # a bad value
        raise ConfigError(f"provider config {path}: {exc}") from None


class RateLimiter:
    """Blocking token bucket: at most ``max_per_minute`` acquisitions in
    any rolling 60-second window. Shared across threads."""

    def __init__(
        self,
        max_per_minute: int,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.max_per_minute = max_per_minute
        self._clock = clock
        self._sleep = sleep
        self._stamps: deque[float] = deque()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        with self._lock:
            while True:
                now = self._clock()
                while self._stamps and now - self._stamps[0] >= 60.0:
                    self._stamps.popleft()
                if len(self._stamps) < self.max_per_minute:
                    self._stamps.append(now)
                    return
                self._sleep(60.0 - (now - self._stamps[0]))


def _dig(record, dotted_path: str):
    value = record
    for key in dotted_path.split("."):
        if not key:
            continue
        if not isinstance(value, dict) or key not in value:
            raise ParseError(f"response field path {dotted_path!r} not found")
        value = value[key]
    return value


class MarketDataClient:
    """Cache-first daily-bar fetcher for one provider endpoint."""

    def __init__(
        self,
        provider: ProviderEndpointSpec,
        cache_dir: str | Path,
        session=None,
        clock: Callable[[], float] = time.time,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.provider = provider
        self.cache_dir = Path(cache_dir)
        if session is None:
            import requests

            session = requests.Session()
        self.session = session
        self._clock = clock
        self._sleep = sleep
        self.limiter = RateLimiter(provider.rate_limit, clock=clock, sleep=sleep)

    def _cache_read(self, path: Path) -> list[dict] | None:
        import hashlib  # here: it slows CLI start-up

        sidecar = path.with_suffix(path.suffix + ".sha256")
        if not path.is_file() or not sidecar.is_file():  # a directory is no cache entry
            return None
        payload = path.read_bytes()
        if hashlib.sha256(payload).hexdigest() != sidecar.read_text().strip():
            return None
        return json.loads(payload)["records"]

    def _cache_write(self, path: Path, records: list[dict]) -> None:
        import hashlib  # here: it slows CLI start-up

        payload = json.dumps({"fetched_at": self._clock(), "records": records}, indent=2)
        sidecar = hashlib.sha256(payload.encode("utf-8")).hexdigest() + "\n"
        write_files(path.parent, {path.name: payload, f"{path.name}.sha256": sidecar}, "cache directory")

    def _get(self, url: str, params: dict[str, str]):
        headers = {}
        if self.provider.api_key_header:
            key = os.environ.get(self.provider.api_key_env(), "")
            if key:
                headers[self.provider.api_key_header] = key
        resp = self._request(url, params, headers)
        if resp.status_code == 429:
            self._sleep(self._retry_after(resp.headers.get("Retry-After", "")))
            resp = self._request(url, params, headers)
            if resp.status_code == 429:
                raise RateLimited(f"{self.provider.name}: still rate limited after backoff")
        if resp.status_code >= 400:
            raise HttpError(resp.status_code, resp.text)
        return resp

    def _request(self, url: str, params: dict[str, str], headers: dict[str, str]):
        """One GET, once the rate limiter allows it; no retry when the
        connection fails or times out."""
        import requests  # here: it slows CLI start-up

        self.limiter.acquire()
        try:
            return self.session.get(url, params=params, headers=headers,
                                    timeout=self.provider.timeout)
        except (requests.ConnectionError, requests.Timeout) as exc:
            reason = " ".join(str(exc).split()) or type(exc).__name__  # one line
            raise ProviderUnreachable(
                f"{self.provider.name}: cannot reach {url}: {reason}") from None

    def _retry_after(self, header: str) -> float:
        """Seconds to wait before the retry: ``Retry-After`` as delta-seconds
        or as an HTTP date (GMT where it names no zone), else 1."""
        try:
            seconds = float(header)
        except ValueError:
            from email.utils import parsedate_to_datetime  # here: it slows CLI start-up
            try:
                when = parsedate_to_datetime(header)
            except ValueError:
                return 1.0
            if when.tzinfo is None:
                when = when.replace(tzinfo=timezone.utc)
            return max(0.0, when.timestamp() - self._clock())
        return seconds if 0 <= seconds < math.inf else 1.0

    def _fetch_pages(self, token_id: str, start: Date, end: Date) -> list:
        """Every item, page by page until a page is short; one page when no
        template uses {page}, since each request would then be the same."""
        spec = self.provider
        paged = "page" in spec.placeholders()
        items: list = []
        page = 1
        while True:
            fill = {
                "token": token_id,
                "start": start.isoformat(),
                "end": end.isoformat(),
                "page": str(page),
                "page_size": str(spec.page_size),
            }
            url = spec.base_url.rstrip("/") + spec.path.format(**fill)
            params = {k: v.format(**fill) for k, v in spec.query.items()}
            resp = self._get(url, params)
            try:
                body = resp.json()
            except (ValueError, RecursionError) as exc:
                raise ParseError(f"{spec.name}: response is not JSON: {exc}") from None
            batch = _dig(body, spec.items_path) if spec.items_path else body
            if not isinstance(batch, list):
                raise ParseError(f"{spec.name}: items path does not yield a list")
            items.extend(batch)
            if not paged or len(batch) < spec.page_size:
                return items
            page += 1

    def fetch_daily(self, token_id: str, start: Date, end: Date) -> TokenSeries:
        """Daily bars for [start, end], cache-first.

        Raises PartialRange when the provider covers only part of the
        range; only complete responses are cached.
        """
        if end < start:
            raise ConfigError(f"date range {start}..{end} is inverted")
        _check_cache_name("token", token_id)
        cache_path = self.cache_dir / self.provider.name / token_id / "bars" / f"{start}_{end}.json"
        write_files(cache_path.parent, {}, "cache directory")  # before any request
        records = self._cache_read(cache_path)
        from_cache = records is not None
        if records is None:
            fields = self.provider.fields
            records = []
            for item in self._fetch_pages(token_id, start, end):
                try:
                    (day,) = iso_days([str(_dig(item, fields["date"]))])
                    records.append({"date": day.isoformat()} | {
                        name: float(_dig(item, fields[name])) for name in BARS_HEADER[1:]
                    })
                except (TypeError, ValueError) as exc:
                    raise ParseError(f"{self.provider.name}: bad record: {exc}") from None
            records = [r for r in records if start.isoformat() <= r["date"] <= end.isoformat()]
            records.sort(key=lambda r: r["date"])

        got = {r["date"] for r in records}
        days = (start + timedelta(days=i) for i in range((end - start).days + 1))
        missing = [d for d in days if d.isoformat() not in got]
        if missing:
            raise PartialRange(token_id, missing)

        series = TokenSeries.from_columns(
            token_id,
            [Date.fromisoformat(r["date"]) for r in records],
            *([r[name] for r in records] for name in BARS_HEADER[1:]),
        )
        if not from_cache:
            self._cache_write(cache_path, records)
        return series
