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

import hashlib
import json
import math
import os
import threading
import time
from collections import defaultdict, deque
from dataclasses import dataclass
from datetime import date as Date
from datetime import timedelta, timezone
from pathlib import Path
from operator import attrgetter, lt
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
    MalformedRow,
    ParseError,
    PartialRange,
    RateLimited,
    SchemaMismatch,
)
from .scoring import TokenInputs
from .sentiment import FgiIndicators
from .volatility import VolatilityAggregate
from .warning import Metric, ScorePoint, ScoreSeries

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

def _read_rows(path: Path, *headers: list[str]) -> tuple[Sequence[int], list[list[str]]]:
    """Physical line numbers and cells of a CSV file's data rows.

    Blank lines are skipped but counted, so a number is the line an editor
    shows. The first non-blank line must equal one of ``headers`` and
    every data row must have as many cells as it. Cells are not stripped:
    ``float`` ignores surrounding blanks, and callers strip the text cells
    they use. A file that cannot be read as UTF-8 text is a ``DataError``.
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
    rows = [line.split(",") for line in lines[1:]]
    if not rows:
        raise EmptyFile(f"{path}: no data rows")
    width = len(header)
    if set(map(len, rows)) != {width}:
        i = next(i for i, cells in enumerate(rows) if len(cells) != width)
        raise MalformedRow(path, numbers[i + 1], header[0],
                           f"expected {width} cells, got {len(rows[i])}")
    return numbers[1:], rows


def _parse_float(path: Path, lineno: int, column: str, raw: str) -> float:
    raw = raw.strip()
    try:
        value = float(raw)
    except ValueError:
        raise MalformedRow(path, lineno, column, f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise MalformedRow(path, lineno, column, f"not finite: {raw!r}")
    return value


def _parse_date(path: Path, lineno: int, raw: str) -> Date:
    raw = raw.strip()
    try:
        return iso_days([raw])[0]
    except ValueError:
        raise MalformedRow(path, lineno, "date", f"not a YYYY-MM-DD date: {raw!r}") from None


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


def _checked_row(path: Path, lineno: int, row_type, *values):
    """``row_type(*values)``, its ``DataError`` located at the line and the field."""
    try:
        return row_type(*values)
    except DataError as exc:  # the message opens with the failing "field="
        raise MalformedRow(path, lineno, str(exc).partition("=")[0], str(exc)) from None


def _token_id_for(path: Path, token_id: str | None) -> str:
    return token_id if token_id else Path(path).stem.upper()


def _by_date(dates: list[Date], *columns: tuple) -> list:
    """``dates`` and ``columns`` reordered by a stable sort on the date."""
    if all(map(lt, dates, dates[1:])):
        return [dates, *columns]
    order = sorted(range(len(dates)), key=dates.__getitem__)
    return [[column[i] for i in order] for column in (dates, *columns)]


# --- loaders -------------------------------------------------------------
#
# Bars and FGI series share one loader: it parses every column in bulk and
# lets the series check it in bulk. Any failure on that path, a padded date
# cell included, hands the file to the row-by-row parse, which accepts it or
# raises the first error in file order with its line and column.

_OPTIONAL_COLUMNS = {"abs_return"}  # an empty cell there means "no value"


def _load_daily_csv(path: str | Path, token_id: str | None, series_type, header: list[str]):
    path = Path(path)
    numbers, rows = _read_rows(path, header)
    token_id = _token_id_for(path, token_id)
    names = header[1:]
    try:
        dates, *cells = zip(*rows)
        values = [
            tuple(None if raw == "" else float(raw) for raw in column)
            if name in _OPTIONAL_COLUMNS else tuple(map(float, column))
            for name, column in zip(names, cells)
        ]
        return series_type.from_columns(token_id, *_by_date(iso_days(dates), *values))
    except (ValueError, DataError):
        pass
    parsed = []
    seen: set[Date] = set()
    for lineno, (day_raw, *cells) in zip(numbers, rows):
        day = _parse_date(path, lineno, day_raw)
        if day in seen:
            raise MalformedRow(path, lineno, "date", f"duplicate date {day}")
        seen.add(day)
        values = [
            None if name in _OPTIONAL_COLUMNS and not raw.strip()
            else _parse_float(path, lineno, name, raw)
            for name, raw in zip(names, cells)
        ]
        parsed.append(_checked_row(path, lineno, series_type.row_type, day, *values))
    parsed.sort(key=attrgetter("date"))
    return series_type(token_id, parsed)


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
    default). The share sum is checked over the whole file, before
    truncation to the top n.
    """
    path = Path(path)
    numbers, rows = _read_rows(path, ["rank", "share"], ["address", "share"])
    excluded = set(exclude)
    shares: list[float] = []
    for lineno, (key, raw) in zip(numbers, rows):
        if key.strip() in excluded:
            continue
        share = _parse_float(path, lineno, "share", raw)
        if share < 0:
            raise MalformedRow(path, lineno, "share", f"negative share {share}")
        shares.append(share)
    if not shares:
        raise EmptyFile(f"{path}: no data rows")
    try:
        check_share_sum(shares)
    except InvalidShares as exc:
        raise InvalidShares(f"{path}: {exc}") from None
    shares.sort(reverse=True)
    return HolderSnapshot(_token_id_for(path, token_id), shares[:n])


def load_volatility_table(
    path: str | Path,
) -> dict[str, tuple[VolatilityAggregate, ChainRole]]:
    """Load a pre-aggregated volatility summary table.

    Percent columns become fractions; volume/market-cap columns are
    already in scale units (USD billions).
    """
    path = Path(path)
    out: dict[str, tuple[VolatilityAggregate, ChainRole]] = {}
    for lineno, cells in zip(*_read_rows(path, VOLATILITY_TABLE_HEADER)):
        token = _table_token(path, lineno, cells[0], out)
        avg_pct, max_pct, volume, mcap = (
            _parse_float(path, lineno, col, raw)
            for col, raw in zip(VOLATILITY_TABLE_HEADER[1:5], cells[1:5])
        )
        role_raw, base = cells[5].strip(), cells[6].strip()
        if role_raw == "standalone":
            if base:
                raise MalformedRow(path, lineno, "base",
                                   f"standalone token {token} must not name a base")
            role = ChainRole.standalone()
        elif role_raw == "hosted":
            if not base:
                raise MalformedRow(path, lineno, "base", f"hosted token {token} needs a base")
            role = ChainRole.hosted_on(base)
        else:
            raise MalformedRow(path, lineno, "chain_role", f"unknown role {role_raw!r}")
        try:
            agg = VolatilityAggregate(token, avg_pct / 100.0, max_pct / 100.0, volume, mcap)
        except DataError as exc:
            raise MalformedRow(path, lineno, "avg_vol_pct", str(exc)) from None
        out[token] = (agg, role)
    return out


def _table_token(path: Path, lineno: int, raw: str, seen: Mapping[str, object]) -> str:
    token = raw.strip()
    if not token:
        raise MalformedRow(path, lineno, "token", "empty token id")
    if token in seen:
        raise MalformedRow(path, lineno, "token", f"duplicate row for token {token!r}")
    return token


def load_fgi_table(path: str | Path) -> dict[str, FgiIndicators]:
    """Load a pre-aggregated FGI indicator table (percent columns -> fractions)."""
    path = Path(path)
    out: dict[str, FgiIndicators] = {}
    for lineno, cells in zip(*_read_rows(path, FGI_TABLE_HEADER)):
        token = _table_token(path, lineno, cells[0], out)
        f_bar, f_max, f_min, q_g_pct, q_f_pct, delta_f, delta_p_pct = (
            _parse_float(path, lineno, col, raw)
            for col, raw in zip(FGI_TABLE_HEADER[1:], cells[1:])
        )
        try:
            out[token] = FgiIndicators(
                token_id=token,
                f_bar=f_bar,
                f_max=f_max,
                f_min=f_min,
                q_g=q_g_pct / 100.0,
                q_f=q_f_pct / 100.0,
                delta_f_max=delta_f,
                delta_p_max=delta_p_pct / 100.0,
            )
        except DataError as exc:
            column = "f_bar" if not f_min <= f_bar <= f_max else "q_g_pct"
            raise MalformedRow(path, lineno, column, str(exc)) from None
    return out


def load_history_csv(path: str | Path) -> list[ScoreSeries]:
    """Load a score-history CSV (one date, token, metric, value per row).

    Returns one ``ScoreSeries`` per (token, metric), in that order. Rows
    may come in any order; a value must be finite and >= 0, and each
    (token, metric, date) may appear on one row only. Like the daily
    loaders, the file is parsed by column and checked in bulk; any failure
    hands it to the row-by-row parse, which names the first bad line in
    file order, a repeat at its later line.
    """
    path = Path(path)
    numbers, rows = _read_rows(path, HISTORY_HEADER)
    metrics = {m.value: m for m in Metric}
    try:
        days, tokens, names, values = zip(*rows)
        keys = zip(tokens, map(metrics.__getitem__, names))
        series = _score_series(iso_days(days), keys, tuple(map(float, values)))
        if all(s.token_id and s.token_id == s.token_id.strip() for s in series):
            return series  # else an empty or padded token, for the row parse
    except (KeyError, ValueError, DataError):
        pass
    parsed, seen = [], set()
    for lineno, (day_raw, token, name, raw) in zip(numbers, rows):
        day = _parse_date(path, lineno, day_raw)
        token, metric = token.strip(), metrics.get(name.strip())
        if not token:
            raise MalformedRow(path, lineno, "token", "empty token id")
        if metric is None:
            raise MalformedRow(path, lineno, "metric", f"unknown metric {name.strip()!r}")
        point = _checked_row(path, lineno, ScorePoint, day, _parse_float(path, lineno, "value", raw))
        if (token, metric, day) in seen:
            raise MalformedRow(path, lineno, "date",
                               f"duplicate row for token {token!r}, {metric.value}, {day}")
        seen.add((token, metric, day))
        parsed.append((day, (token, metric), point.value))
    return _score_series(*zip(*parsed))


def _score_series(days: Sequence[Date], keys: Iterable[tuple[str, Metric]],
                  values: Sequence[float]) -> list[ScoreSeries]:
    """One series per (token, metric) key, in key order, from parallel rows."""
    groups: dict[tuple[str, Metric], list[int]] = defaultdict(list)
    for i, key in enumerate(keys):
        groups[key].append(i)
    return [
        ScoreSeries.from_columns(token, metric, *_by_date(
            list(map(days.__getitem__, indices)), tuple(map(values.__getitem__, indices))
        ))
        for (token, metric), indices in sorted(groups.items())
    ]


# --- universe files ------------------------------------------------------

def load_universe(path: str | Path, params: FrameworkParams) -> dict[str, TokenInputs]:
    """Assemble per-token inputs from a universe JSON file.

    The file lists per-token raw data files and/or pre-aggregated summary
    tables; relative paths resolve against the universe file's directory.
    A token's table rows pass through beside its files: ``build_context``
    lets a raw series replace its summary. Every entry is checked before
    any data file is read; a bad or repeated entry is a ``ConfigError``.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"universe file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"universe file {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"universe file {path} must contain a JSON object")
    where = f"universe file {path}"

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
        if self.rate_limit <= 0:
            raise ConfigError(f"rate_limit={self.rate_limit} must be > 0")
        if self.timeout <= 0:
            raise ConfigError(f"timeout={self.timeout} must be > 0")
        missing = [f for f in BARS_HEADER if f not in self.fields]
        if missing:
            raise ConfigError(f"provider {self.name}: missing field paths for {missing}")

    def api_key_env(self) -> str:
        return "ME2F_API_KEY_" + "".join(
            ch if ch.isalnum() else "_" for ch in self.name.upper()
        )


def load_provider_config(path: str | Path) -> ProviderEndpointSpec:
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"provider config not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"provider config {path} is not valid JSON: {exc}") from None
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
        sidecar = path.with_suffix(path.suffix + ".sha256")
        if not path.exists() or not sidecar.exists():
            return None
        payload = path.read_bytes()
        if hashlib.sha256(payload).hexdigest() != sidecar.read_text().strip():
            return None
        return json.loads(payload)["records"]

    def _cache_write(self, path: Path, records: list[dict]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
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
        self.limiter.acquire()
        resp = self.session.get(url, params=params, headers=headers, timeout=self.provider.timeout)
        if resp.status_code == 429:
            self._sleep(self._retry_after(resp.headers.get("Retry-After", "")))
            self.limiter.acquire()
            resp = self.session.get(url, params=params, headers=headers, timeout=self.provider.timeout)
            if resp.status_code == 429:
                raise RateLimited(f"{self.provider.name}: still rate limited after backoff")
        if resp.status_code >= 400:
            raise HttpError(resp.status_code, resp.text)
        return resp

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
