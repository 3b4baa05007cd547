"""Shared fixtures: the reference universe, synthetic data builders, a
fake provider session, and a guard that every test leaves the cyclic
garbage collector on."""
from __future__ import annotations

import gc
import json
import math
import random
import subprocess
import sys
from datetime import date, timedelta
from pathlib import Path

import pytest

import me2f
from me2f import FrameworkParams
from me2f.domain import DailyBar, TokenSeries
from me2f.ingest import load_universe

REFERENCE_DIR = Path(__file__).parent / "fixtures" / "reference"
GOLDEN_DIR = REFERENCE_DIR.parent / "golden"

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


def write_tables_universe(directory: Path, tokens: int, seed: int = 0) -> Path:
    """A universe given only as volatility and FGI summary tables, one random row
    of each per token, every fifth token hosted on the standalone token before
    it; the universe file."""
    rng = random.Random(seed)
    ids = [f"T{i:05d}" for i in range(tokens)]
    vol = ["token,avg_vol_pct,max_vol_pct,max_volume_busd,max_mcap_busd,chain_role,base"]
    fgi = ["token,f_bar,f_max,f_min,q_g_pct,q_f_pct,delta_f_max,delta_p_max_pct"]
    for i, tid in enumerate(ids):
        avg, volume = rng.uniform(1.0, 20.0), rng.uniform(0.01, 100.0)
        role = f"hosted,{ids[i - 1]}" if i % 5 == 4 else "standalone,"
        vol.append(f"{tid},{avg:.2f},{avg * rng.uniform(2.0, 8.0):.2f},{volume:.6g},"
                   f"{volume * rng.uniform(0.5, 20.0):.6g},{role}")
        f_min, f_max = rng.uniform(0.0, 30.0), rng.uniform(70.0, 100.0)
        fgi.append(f"{tid},{rng.uniform(f_min, f_max):.2f},{f_max:.2f},{f_min:.2f},"
                   f"{rng.uniform(0.0, 3.0):.2f},{rng.uniform(0.0, 3.0):.2f},"
                   f"{rng.uniform(10.0, 70.0):.2f},{rng.uniform(1.0, 40.0):.2f}")
    for name, lines in (("volatility.csv", vol), ("fgi.csv", fgi)):
        (directory / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    universe = directory / "universe.json"
    universe.write_text('{"volatility_table": "volatility.csv", "fgi_table": "fgi.csv"}\n',
                        encoding="utf-8")
    return universe


def write_raw_universe(directory: Path, tokens: int, days: int, seed: int = 0) -> Path:
    """A universe given only as raw files: per token ``days`` random daily bars,
    as many FGI points, and 20 ranked holder shares, every third token hosted on
    the first (``R0000``); the universe file. Values are written with ``repr``,
    so each file reads back as exactly the floats drawn."""
    rng = random.Random(seed)
    ids = [f"R{i:04d}" for i in range(tokens)]
    entries = []
    for i, tid in enumerate(ids):
        price, step = math.exp(rng.uniform(-8.0, 7.0)), rng.uniform(0.01, 0.08)
        volume = math.exp(rng.uniform(15.0, 24.0))
        bars = ["date,high,low,close,volume_usd,market_cap_usd"]
        fgi = ["date,fgi,abs_return"]
        value = rng.uniform(0.0, 100.0)
        for d in range(days):
            day = date(2024, 1, 1) + timedelta(days=d)
            close = price * math.exp(rng.gauss(0.0, step))
            high, low = close * (1.0 + rng.uniform(0.0, step)), close * (1.0 - rng.uniform(0.0, step))
            bars.append(f"{day},{high!r},{low!r},{close!r},{volume * rng.uniform(0.5, 2.0)!r},"
                        f"{volume * rng.uniform(2.0, 40.0)!r}")
            value = min(100.0, max(0.0, value + rng.gauss(0.0, 8.0)))
            fgi.append(f"{day},{value!r},{'' if d == 0 else repr(abs(close / price - 1.0))}")
            price = close
        shares = sorted((rng.random() for _ in range(20)), reverse=True)
        total = sum(shares) / rng.uniform(0.2, 0.95)
        holders = ["rank,share", *(f"{rank},{share / total!r}" for rank, share in enumerate(shares, 1))]
        for kind, lines in (("bars", bars), ("sentiment", fgi), ("holders", holders)):
            (directory / f"{tid}_{kind}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        entries.append({"id": tid, "bars": f"{tid}_bars.csv", "sentiment": f"{tid}_sentiment.csv",
                        "holders": f"{tid}_holders.csv",
                        **({"role": "hosted", "base": ids[0]} if i % 3 == 2 else {"role": "standalone"})})
    universe = directory / "universe.json"
    universe.write_text(json.dumps({"tokens": entries}), encoding="utf-8")
    return universe


def write_date_major_history(path: Path, tokens: int, days: int, seed: int = 0) -> Path:
    """A score history of ``tokens`` tokens x 3 metrics x ``days`` days of random
    values, date-major, as the benchmark writes it; ``path``."""
    rng = random.Random(seed)
    lines = ["date,token,metric,value"]
    for d in range(days):
        day = date(2019, 1, 1) + timedelta(days=d)
        lines += [f"{day},H{t:02d},{m},{rng.uniform(0.01, 2.0):.6f}"
                  for t in range(tokens) for m in ("vds", "wds", "sas")]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def nudged(value: float, steps: int) -> float:
    """``value`` moved ``steps`` floats up, or down where ``steps`` is negative."""
    for _ in range(abs(steps)):
        value = math.nextafter(value, math.copysign(math.inf, steps))
    return value


def loaded_modules(code: str) -> dict[str, set[str]]:
    """Every module loaded once a fresh interpreter, importing ``me2f`` from
    where the tests do, has run ``code``: by name, with the names that each
    ``me2f`` module defines (none for another module)."""
    src = Path(me2f.__file__).resolve().parent.parent
    probe = (f"import json, sys; sys.path.insert(0, {str(src)!r})\n{code}\n"
             "print(json.dumps({name: sorted(vars(module)) if name.split('.')[0] == 'me2f' else []"
             " for name, module in list(sys.modules.items())}))")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          check=True, timeout=120)
    return {name: set(names) for name, names in json.loads(done.stdout.splitlines()[-1]).items()}


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


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail a test that leaves the cyclic garbage collector disabled: each CLI
    command pauses it and must give it back on every exit."""
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")
