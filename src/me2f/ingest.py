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
import threading
import time
from collections import defaultdict, deque
from contextlib import suppress
from dataclasses import dataclass
from datetime import date as Date
from datetime import timedelta, timezone
from itertools import compress, repeat
from operator import eq, lt
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .domain import (
    ChainRole,
    FrameworkParams,
    HolderSnapshot,
    SentimentSeries,
    TokenSeries,
    check_share_sum,
)
from .errors import (
    ConfigError,
    DataError,
    EmptyFile,
    EmptyUniverse,
    HttpError,
    InvalidShares,
    InvalidSummary,
    MalformedRow,
    NonMonotonicDates,
    ParseError,
    PartialRange,
    ProviderUnreachable,
    RateLimited,
    SchemaMismatch,
)
from .scoring import TokenInputs
from .sentiment import FgiIndicators
from .volatility import VolatilityAggregate
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

def _read_columns(path: Path, *headers: list[str]) -> tuple[Sequence[int], list[list[str]]]:
    """Physical line numbers of a CSV file's data rows, and its cells by column.

    Blank lines are skipped but counted, so a number is the line an editor
    shows. The first non-blank line must equal one of ``headers`` and
    every data row must have as many cells as it. Cells are not stripped:
    ``float`` ignores surrounding blanks, and callers strip the text cells
    they use. A file that cannot be read as UTF-8 text is a ``DataError``.

    Once every row holds ``width - 1`` commas, the rows joined by commas
    split into ``width`` cells per row, in order, so the body is split
    once and no list is built per row.
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
    cells = ",".join(lines).split(",")
    del lines
    return numbers[1:], [cells[j::width] for j in range(width)]


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
# Every CSV is read as columns, with one split per file (_read_columns).
# Each loader has one parse of those columns. It runs each kind of check
# (a cell, a repeat, an invariant of the type it builds) over whole
# columns, in the order the checks of a single row run, and a failed check
# raises a _RowError that names the column. _located runs the parse once on
# the file and, only if it fails, bisects over row prefixes to find the
# first bad row in file order, whose line the MalformedRow names.

_METRICS = {m.value: m for m in Metric}


class _RowError(Exception):
    """A row check failed: ``(column, reason)``; ``_located`` adds the line."""

    @classmethod
    def of(cls, exc: DataError) -> "_RowError":
        """A domain row type's error, whose message opens with the failing "field="."""
        return cls(str(exc).partition("=")[0], str(exc))


def _located(path: Path, numbers: Sequence[int], columns: list[list[str]], parse):
    """``parse(columns)``, or the ``MalformedRow`` of the first bad row in file order.

    A prefix of the rows fails to parse exactly when it holds a bad row (a
    repeat counts at its later line), so the shortest failing prefix ends at
    the first bad row, and its parse raises that row's error. The search is
    a bisection: O(log n) parses, and none when the file is good.
    """
    try:
        return parse(columns)
    except _RowError as exc:
        error = exc
    good, bad = 0, len(numbers)  # the first `good` rows parse, the first `bad` rows do not
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            parse([column[:mid] for column in columns])
        except _RowError as exc:
            bad, error = mid, exc
        else:
            good = mid
    raise MalformedRow(path, numbers[bad - 1], *error.args) from None


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
            raise _RowError(column, f"not a number: {raw!r}") from None
        if not math.isfinite(values[-1] or 0.0):  # None is a blank, not a bad cell
            raise _RowError(column, f"not finite: {raw!r}")
    return values


def _dates(cells: list[str]) -> list[Date]:
    """A date column; cell by cell, stripped, only when the bulk parse fails."""
    with suppress(ValueError):
        return iso_days(cells)
    days = []
    for raw in map(str.strip, cells):
        try:
            days += iso_days([raw])
        except ValueError:
            raise _RowError("date", f"not a YYYY-MM-DD date: {raw!r}") from None
    return days


def _first_repeat(keys: Iterable) -> int:
    """The index of the first key equal to an earlier one (there must be one)."""
    seen: set = set()
    for i, key in enumerate(keys):
        if key in seen:
            return i
        seen.add(key)


def _tokens(cells: list[str]) -> list[str]:
    """A table's stripped token cells; an empty or repeated one is a row error."""
    tokens = list(map(str.strip, cells))
    if not all(tokens):
        raise _RowError("token", "empty token id")
    if len(set(tokens)) != len(tokens):
        raise _RowError("token", f"duplicate row for token {tokens[_first_repeat(tokens)]!r}")
    return tokens


def _load_daily_csv(path: str | Path, token_id: str | None, series_type, header: list[str]):
    path = Path(path)
    numbers, columns = _read_columns(path, header)
    token_id = _token_id_for(path, token_id)

    def parse(columns: list[list[str]]):
        dates = _dates(columns[0])
        ascending = all(map(lt, dates, dates[1:]))
        if not ascending and len(set(dates)) != len(dates):
            raise _RowError("date", f"duplicate date {dates[_first_repeat(dates)]}")
        values = [_floats(name, column, name == "abs_return")
                  for name, column in zip(header[1:], columns[1:])]
        try:
            return series_type.from_columns(
                token_id, *([dates, *values] if ascending else _by_date(dates, *values)))
        except DataError as exc:
            raise _RowError.of(exc) from None

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
        if min(shares, default=0.0) < 0:
            raise _RowError("share", f"negative share {next(s for s in shares if s < 0)}")
        if max(shares, default=0.0) > 1:
            raise _RowError("share", f"share {next(s for s in shares if s > 1)} above 1")
        return shares

    shares = _located(path, numbers, columns, parse)
    if not shares:
        raise EmptyFile(f"{path}: no data rows")
    try:
        check_share_sum(shares)
    except InvalidShares as exc:
        raise InvalidShares(f"{path}: {exc}") from None
    return HolderSnapshot(_token_id_for(path, token_id), sorted(shares, reverse=True)[:n])


def load_volatility_table(
    path: str | Path,
) -> dict[str, tuple[VolatilityAggregate, ChainRole]]:
    """Load a pre-aggregated volatility summary table.

    Percent columns become fractions; volume/market-cap columns are
    already in scale units (USD billions) and must not be negative.
    Tokens of one base share one ``ChainRole``.
    """
    path = Path(path)
    numbers, columns = _read_columns(path, VOLATILITY_TABLE_HEADER)

    def parse(columns: list[list[str]]) -> dict[str, tuple[VolatilityAggregate, ChainRole]]:
        tokens = _tokens(columns[0])
        avg_pct, max_pct, volume, mcap = (
            _floats(name, column) for name, column in zip(VOLATILITY_TABLE_HEADER[1:5], columns[1:5])
        )
        for name, sizes in zip(VOLATILITY_TABLE_HEADER[3:5], (volume, mcap)):
            if min(sizes) < 0:
                raise _RowError(name, f"negative size {next(s for s in sizes if s < 0)}")
        roles, bases = (list(map(str.strip, column)) for column in columns[5:])
        # standalone rows name no base, hosted rows one
        if not (set(roles) <= {"standalone", "hosted"}
                and all(map(eq, map("hosted".__eq__, roles), map(bool, bases)))):
            for token, role, base in zip(tokens, roles, bases):
                if role not in ("standalone", "hosted"):
                    raise _RowError("chain_role", f"unknown role {role!r}")
                if (role == "hosted") != bool(base):
                    raise _RowError("base", f"hosted token {token} needs a base" if role == "hosted"
                                    else f"standalone token {token} must not name a base")
        role_of = {base: ChainRole.hosted_on(base) for base in set(bases) - {""}}
        role_of[""] = ChainRole.standalone()
        try:
            return {
                token: (VolatilityAggregate(token, a / 100.0, m / 100.0, v, c), role_of[base])
                for token, a, m, v, c, base in zip(tokens, avg_pct, max_pct, volume, mcap, bases)
            }
        except InvalidSummary as exc:
            raise _RowError("avg_vol_pct", str(exc)) from None

    return _located(path, numbers, columns, parse)


def load_fgi_table(path: str | Path) -> dict[str, FgiIndicators]:
    """Load a pre-aggregated FGI indicator table (percent columns -> fractions)."""
    path = Path(path)
    numbers, columns = _read_columns(path, FGI_TABLE_HEADER)

    def parse(columns: list[list[str]]) -> dict[str, FgiIndicators]:
        tokens = _tokens(columns[0])
        values = [_floats(name, column) for name, column in zip(FGI_TABLE_HEADER[1:], columns[1:])]
        try:
            return {
                token: FgiIndicators(token, f_bar, f_max, f_min, q_g_pct / 100.0, q_f_pct / 100.0,
                                     delta_f, delta_p_pct / 100.0)
                for token, f_bar, f_max, f_min, q_g_pct, q_f_pct, delta_f, delta_p_pct
                in zip(tokens, *values)
            }
        except InvalidSummary as exc:  # in the order FgiIndicators checks
            f_bar, f_max, f_min, _, _, delta_f, delta_p_pct = values
            column = ("delta_f_max" if min(delta_f) < 0
                      else "delta_p_max_pct" if min(delta_p_pct) < 0
                      else "f_bar" if any(not lo <= mid <= hi
                                          for mid, hi, lo in zip(f_bar, f_max, f_min))
                      else "q_g_pct")
            raise _RowError(column, str(exc)) from None

    return _located(path, numbers, columns, parse)


def load_history_csv(path: str | Path) -> list[ScoreSeries]:
    """Load a score-history CSV (one date, token, metric, value per row).

    Returns one ``ScoreSeries`` per (token, metric), in that order. Rows
    may come in any order; a value must be finite and >= 0, and each
    (token, metric, date) may appear on one row only. Like every loader,
    the file is parsed once, by column; an error names the first bad line
    in file order, a repeat at its later line.
    """
    path = Path(path)
    numbers, columns = _read_columns(path, HISTORY_HEADER)

    def parse(columns: list[list[str]]) -> list[ScoreSeries]:
        days, tokens, names = _dates(columns[0]), columns[1], columns[2]
        groups: dict[tuple[str, str], list[int]] = defaultdict(list)
        for i, key in enumerate(zip(tokens, names)):
            groups[key].append(i)
        if not all(token and token == token.strip() and name in _METRICS
                   for token, name in groups):  # a padded, empty or unknown key
            tokens, names = list(map(str.strip, tokens)), list(map(str.strip, names))
            if not all(tokens):
                raise _RowError("token", "empty token id")
            for name in names:
                if name not in _METRICS:
                    raise _RowError("metric", f"unknown metric {name!r}")
            return parse([columns[0], tokens, names, columns[3]])
        values = _floats("value", columns[3])
        series = []
        for (token, name), indices in sorted(groups.items()):
            try:
                series.append(ScoreSeries.from_columns(token, _METRICS[name], *_by_date(
                    list(map(days.__getitem__, indices)), list(map(values.__getitem__, indices))
                )))
            except NonMonotonicDates:  # values were fine: a repeated date
                i = _first_repeat(zip(tokens, names, days))
                raise _RowError("date", f"duplicate row for token {tokens[i]!r}, "
                                        f"{names[i]}, {days[i]}") from None
            except DataError as exc:
                raise _RowError.of(exc) from None
        return series

    return _located(path, numbers, columns, parse)


def make_dir(path: str | Path, what: str) -> Path:
    """``path`` as a directory, made with its parents where missing; a
    ConfigError naming ``what`` and ``path`` where it cannot be (it, or a
    parent, is a file)."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{what} {path} cannot be made a directory: {exc.strerror or exc}") from None
    return path


# --- universe files ------------------------------------------------------

def _read_json_object(path: Path, where: str) -> dict:
    """The JSON object in a config file; ``ConfigError`` opening with ``where`` if there is none."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeError) as exc:  # missing, a directory, not UTF-8
        raise ConfigError(f"{where}: cannot read: {getattr(exc, 'strerror', None) or exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must contain a JSON object")
    return doc


UNIVERSE_KEYS = ("tokens", "volatility_table", "fgi_table")
UNIVERSE_TOKEN_KEYS = ("id", "role", "base", "bars", "holders", "sentiment", "exclude_addresses")


def load_universe(path: str | Path, params: FrameworkParams) -> dict[str, TokenInputs]:
    """Assemble per-token inputs from a universe JSON file.

    The file lists per-token raw data files and/or pre-aggregated summary
    tables; relative paths resolve against the universe file's directory.
    A token's table rows pass through beside its files: ``build_context``
    lets a raw series replace its summary. Every entry is checked before
    any data file is read; a bad or repeated entry is a ``ConfigError``.
    """
    path = Path(path)
    where = f"universe file {path}"
    doc = _read_json_object(path, where)

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

    roles: dict[str, ChainRole] = {}
    files: dict[str, tuple] = {}
    for number, entry in enumerate(entries, start=1):
        tid = entry.get("id") if isinstance(entry, dict) else None
        if not isinstance(tid, str) or not tid:
            raise ConfigError(f"{where}: token entry {number} needs a non-empty string 'id'")
        if tid in files:
            raise ConfigError(f"{where}: token entry {number} repeats the id {tid!r}")
        owner = f"token {tid!r}: "
        reject_unknown_keys(entry, UNIVERSE_TOKEN_KEYS, owner)
        exclude = entry.get("exclude_addresses", [])
        if not isinstance(exclude, list) or not all(isinstance(a, str) for a in exclude):
            raise ConfigError(f"{where}: {owner}'exclude_addresses' must be a list of strings")
        files[tid] = (*(file_at(entry, key, owner) for key in ("bars", "holders", "sentiment")),
                      exclude)
        role_raw = entry.get("role")
        if role_raw == "standalone":
            roles[tid] = ChainRole.standalone()
        elif role_raw == "hosted":
            base = entry.get("base")
            if not isinstance(base, str) or not base:
                raise ConfigError(f"{where}: hosted token {tid} needs a 'base'")
            roles[tid] = ChainRole.hosted_on(base)
        elif role_raw is not None:
            raise ConfigError(f"{where}: unknown role {role_raw!r} for {tid}")

    vol_table = {} if vol_path is None else load_volatility_table(vol_path)
    fgi_table = {} if fgi_path is None else load_fgi_table(fgi_path)
    roles = {tid: role for tid, (_, role) in vol_table.items()} | roles
    token_ids = sorted(set(vol_table) | set(fgi_table) | set(files))
    if not token_ids:
        raise EmptyUniverse(f"{where} names no tokens")

    universe: dict[str, TokenInputs] = {}
    for tid in token_ids:
        if tid not in roles:
            raise ConfigError(f"{where}: no chain role known for {tid}")
        bars, holders, sentiment, exclude = files.get(tid, (None, None, None, ()))
        universe[tid] = TokenInputs(
            role=roles[tid],
            series=None if bars is None else load_bars_csv(bars, token_id=tid),
            volatility=vol_table[tid][0] if tid in vol_table else None,
            holders=None if holders is None else load_holders_csv(
                holders, token_id=tid, n=params.n, exclude=exclude),
            sentiment=None if sentiment is None else load_sentiment_csv(sentiment, token_id=tid),
            fgi=fgi_table.get(tid),
        )
    return universe


# --- remote market data ----------------------------------------------------

_URL_PLACEHOLDERS = ("token", "start", "end", "page", "page_size")


def _check_template(key: str, template: str) -> None:
    """A ``path`` or ``query`` value fills in only bare ``_URL_PLACEHOLDERS``."""
    from string import Formatter  # here: it slows CLI start-up

    try:
        fields = [(name, spec, conversion)
                  for _, name, spec, conversion in Formatter().parse(template) if name is not None]
    except ValueError as exc:  # a lone brace
        raise ConfigError(f"{key}={template!r} is not a URL template: {exc}") from None
    if any(name not in _URL_PLACEHOLDERS or spec or conversion for name, spec, conversion in fields):
        allowed = ", ".join(f"{{{name}}}" for name in _URL_PLACEHOLDERS)
        raise ConfigError(f"{key}={template!r} may use only the placeholders {allowed}")


@dataclass(frozen=True)
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
        _check_template("path", self.path)
        for key, value in self.query.items():
            _check_template(f"query.{key}", value)
        if self.rate_limit <= 0:
            raise ConfigError(f"rate_limit={self.rate_limit} must be > 0")
        if not self.timeout > 0:  # NaN included
            raise ConfigError(f"timeout={self.timeout} must be > 0")
        if self.page_size < 1:  # a page of 0 items never ends the paging
            raise ConfigError(f"page_size={self.page_size} must be >= 1")
        missing = [f for f in BARS_HEADER if f not in self.fields]
        if missing:
            raise ConfigError(f"provider {self.name}: missing field paths for {missing}")

    def api_key_env(self) -> str:
        return "ME2F_API_KEY_" + "".join(
            ch if ch.isalnum() else "_" for ch in self.name.upper()
        )


def load_provider_config(path: str | Path) -> ProviderEndpointSpec:
    path = Path(path)
    doc = _read_json_object(path, f"provider config {path}")
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

    # cache layout: <cache_dir>/<provider>/<token>/<kind>/<range>.json (+ .sha256)
    def _cache_path(self, token_id: str, kind: str, start: Date, end: Date) -> Path:
        return self.cache_dir / self.provider.name / token_id / kind / f"{start}_{end}.json"

    def _cache_read(self, path: Path) -> list[dict] | None:
        import hashlib  # here: it slows CLI start-up

        sidecar = path.with_suffix(path.suffix + ".sha256")
        if not path.exists() or not sidecar.exists():
            return None
        payload = path.read_bytes()
        if hashlib.sha256(payload).hexdigest() != sidecar.read_text().strip():
            return None
        return json.loads(payload)["records"]

    def _cache_write(self, path: Path, records: list[dict]) -> None:
        import hashlib  # here: it slows CLI start-up

        payload = json.dumps(
            {"fetched_at": self._clock(), "records": records}, indent=2
        ).encode("utf-8")
        tmp = path.with_suffix(".tmp")
        tmp.write_bytes(payload)
        os.replace(tmp, path)
        path.with_suffix(path.suffix + ".sha256").write_text(
            hashlib.sha256(payload).hexdigest() + "\n"
        )

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
        spec = self.provider
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
            except ValueError as exc:
                raise ParseError(f"{spec.name}: response is not JSON: {exc}") from None
            batch = _dig(body, spec.items_path) if spec.items_path else body
            if not isinstance(batch, list):
                raise ParseError(f"{spec.name}: items path does not yield a list")
            items.extend(batch)
            if len(batch) < spec.page_size:
                return items
            page += 1

    def fetch_daily(self, token_id: str, start: Date, end: Date) -> TokenSeries:
        """Daily bars for [start, end], cache-first.

        Raises PartialRange when the provider covers only part of the
        range; only complete responses are cached.
        """
        if end < start:
            raise ConfigError(f"date range {start}..{end} is inverted")
        cache_path = self._cache_path(token_id, "bars", start, end)
        make_dir(cache_path.parent, "cache directory")  # before any request
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
        expected = []
        day = start
        while day <= end:
            expected.append(day)
            day += timedelta(days=1)
        missing = [d for d in expected if d.isoformat() not in got]
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
