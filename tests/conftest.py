"""Shared fixtures: the reference universe, synthetic data builders and a
fake provider session."""
from __future__ import annotations

from datetime import date, timedelta
from pathlib import Path

import pytest

from me2f import FrameworkParams
from me2f.domain import DailyBar, TokenSeries
from me2f.ingest import load_universe

REFERENCE_DIR = Path(__file__).parent / "fixtures" / "reference"

# Published scores the engine must reproduce from the reference tables.
EXPECTED_VDS = {
    "ETH": 0.015, "SOL": 0.032, "DOGE": 0.033, "SHIB": 0.076, "TRUMP": 0.121,
    "PEPE": 0.153, "FLOKI": 0.226, "MELANIA": 0.310, "LIBRA": 0.735,
}
EXPECTED_SAS = {
    "TRUMP": 0.608, "MELANIA": 0.279, "PEPE": 0.266, "SHIB": 0.235,
    "ETH": 0.209, "SOL": 0.145, "FLOKI": 0.142, "DOGE": 0.129,
}


@pytest.fixture(scope="session")
def reference_universe_path() -> Path:
    return REFERENCE_DIR / "universe.json"


@pytest.fixture(scope="session")
def reference_inputs(reference_universe_path):
    return load_universe(reference_universe_path, FrameworkParams())


def make_series(
    token_id: str,
    highs: list[float],
    lows: list[float],
    closes: list[float],
    volumes: list[float] | None = None,
    mcaps: list[float] | None = None,
    start: date = date(2024, 1, 1),
) -> TokenSeries:
    n = len(highs)
    volumes = volumes or [1e9] * n
    mcaps = mcaps or [2e9] * n
    bars = [
        DailyBar(start + timedelta(days=i), highs[i], lows[i], closes[i], volumes[i], mcaps[i])
        for i in range(n)
    ]
    return TokenSeries(token_id, tuple(bars))


def random_series(rng, token_id: str, n_bars: int | None = None) -> TokenSeries:
    """Random but invariant-respecting bar series."""
    n = n_bars if n_bars is not None else rng.randint(2, 40)
    bars = []
    day = date(2024, 1, 1)
    price = rng.uniform(0.01, 500.0)
    for _ in range(n):
        low = price * rng.uniform(0.6, 1.0)
        high = low * rng.uniform(1.0, 1.8)
        close = rng.uniform(low, high)
        bars.append(
            DailyBar(day, high, low, close, rng.uniform(0.0, 5e10), rng.uniform(0.0, 1e12))
        )
        price = close
        day += timedelta(days=rng.randint(1, 3))
    return TokenSeries(token_id, tuple(bars))


# --- remote fetch ----------------------------------------------------------

class FakeResponse:
    def __init__(self, status_code=200, payload=None, headers=None, text=""):
        self.status_code = status_code
        self._payload = payload
        self.headers = headers or {}
        self.text = text

    def json(self):
        if self._payload is None:
            raise ValueError("no JSON body")
        return self._payload


class FakeSession:
    """Serves paginated daily records; records every request. ``fail_first``
    holds responses to serve, or exceptions to raise, before the records."""

    def __init__(self, records, page_size=2, fail_first=None):
        self.records = records
        self.page_size = page_size
        self.calls = []
        self.fail_first = list(fail_first or [])

    def get(self, url, params=None, headers=None, timeout=None):
        self.calls.append({"url": url, "params": dict(params or {}), "headers": dict(headers or {})})
        if self.fail_first:
            failure = self.fail_first.pop(0)
            if isinstance(failure, Exception):
                raise failure
            return failure
        page = int(params["page"])
        size = int(params.get("limit", self.page_size))
        start = (page - 1) * size
        return FakeResponse(payload={"data": self.records[start : start + size]})
