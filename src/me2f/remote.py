"""Remote market data, provider-neutral: a JSON config declares the URL
template, pagination query, field paths and rate limit. Responses are cached
on disk under <cache_dir>/<provider>/<token>/<kind>/<range>.json with a sha256
sidecar; cache hits make zero network calls.

Only ``fetch`` runs this, so the CLI imports it in that command alone.
"""
from __future__ import annotations

import dataclasses
import json
import math
import os
import threading
import time
from collections import deque
from datetime import date as Date
from datetime import timedelta, timezone
from pathlib import Path
from typing import Callable, Mapping

from .domain import TokenSeries, Value, value_type
from .errors import (ConfigError, DataError, HttpError, ParseError, PartialRange,
                     ProviderUnreachable, RateLimited)
from .ingest import (BARS_HEADER, iso_days, read_json_object, reject_unknown_keys, token_id_fault,
                     write_files)


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


@value_type
class ProviderEndpointSpec(Value):
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
            if not isinstance(getattr(self, mapping), Mapping):
                raise ConfigError(f"{mapping}={getattr(self, mapping)!r} must be a mapping")
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
    """The provider that a JSON config declares. A key left out takes its spec
    default; ``path`` and ``query``, which have none, take "" and {}."""
    path = Path(path)
    where = f"provider config {path}"
    doc = {"path": "", "query": {}} | read_json_object(path, where, ConfigError)
    keys = {"rate_limit": "rate_limit_per_minute", "timeout": "timeout_seconds"}  # the others are as named
    spec = {keys.get(f.name, f.name): f for f in dataclasses.fields(ProviderEndpointSpec)}
    reject_unknown_keys(where, doc, tuple(spec))
    for key, f in spec.items():
        value, kind = doc.get(key, f.default), type(f.default)  # a number's default gives its type
        if value is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing key {key!r}")
        if kind in (int, float) and (isinstance(value, bool) or not isinstance(value, (int, kind))):
            raise ConfigError(f"{where}: {key}={value!r} must be {'an integer' if kind is int else 'a number'}")
    try:
        return ProviderEndpointSpec(**{spec[key].name: value for key, value in doc.items()})
    except ConfigError as exc:  # a bad value
        raise ConfigError(f"{where}: {exc}") from None


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

        try:
            series = TokenSeries.from_columns(
                token_id,
                [Date.fromisoformat(r["date"]) for r in records],
                *([r[name] for r in records] for name in BARS_HEADER[1:]),
            )
        except DataError as exc:  # a repeated day or a broken bar rule: the provider's data
            raise type(exc)(f"{self.provider.name}: {token_id}: {exc}", field=exc.field) from None
        if not from_cache:
            self._cache_write(cache_path, records)
        return series
