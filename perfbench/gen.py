"""Seeded synthetic inputs for the me2f benchmark (stdlib only).

The same generator, seed and size arguments always yield byte-identical
files. Each generator writes its files into ``out_dir`` and returns a
``Manifest``: the CLI arguments that name the generated files plus the
facts the output check needs (token ids, which scores must be present).

Invariants the program relies on, kept here by construction:
- every hosted token names a base that is a standalone token of the universe;
- holder shares of a token sum to less than 1;
- FGI values stay within [0, 100];
- bar prices are positive and low <= high after formatting;
- table rows keep max >= average volatility and f_min <= f_bar <= f_max.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

START = date(2024, 1, 1)
HISTORY_START = date(2019, 1, 1)
HISTORY_TOKENS = 12
METRICS = ("vds", "wds", "sas")
WARN_ARGS = ("--window", "90", "--threshold", "0.9", "--x-days", "3")


@dataclass
class Manifest:
    """What the program is given, and what its report must contain."""

    argv: list[str]
    tokens: list[str]
    scores: tuple[str, ...]  # scores that must be non-null for every token
    items: int  # tokens for score-*, history rows for warn-history


def _rng(seed: int, *parts) -> random.Random:
    # String seeds hash through sha512, so streams do not depend on PYTHONHASHSEED.
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _roles(n_tokens: int, rng: random.Random) -> list[int | None]:
    """Base index for every third token (hosted), None for standalone ones."""
    standalone = [i for i in range(n_tokens) if i % 3 != 2]
    return [rng.choice(standalone) if i % 3 == 2 else None for i in range(n_tokens)]


def _bars(rng: random.Random, days: int) -> tuple[list[str], list[float]]:
    price = math.exp(rng.uniform(-8.0, 7.0))
    vol = rng.uniform(0.01, 0.08)
    volume = math.exp(rng.uniform(15.0, 24.0))
    mcap = volume * rng.uniform(2.0, 40.0)
    lines = ["date,high,low,close,volume_usd,market_cap_usd"]
    closes = []
    for d in range(days):
        price *= math.exp(rng.gauss(0.0, vol))
        high = price * (1.0 + abs(rng.gauss(0.0, vol)))
        low = price * (1.0 - min(0.9, abs(rng.gauss(0.0, vol))))
        day_volume = volume * math.exp(rng.gauss(0.0, 0.5))
        day_mcap = mcap * price / (price + 1.0)
        lines.append(
            f"{START + timedelta(days=d)},{high:.6g},{low:.6g},{price:.6g},"
            f"{day_volume:.6g},{day_mcap:.6g}"
        )
        closes.append(float(f"{price:.6g}"))
    return lines, closes


def _fgi(rng: random.Random, closes: list[float]) -> list[str]:
    value = rng.uniform(20.0, 80.0)
    step = rng.uniform(3.0, 10.0)
    lines = ["date,fgi,abs_return"]
    for d, close in enumerate(closes):
        value += rng.gauss(0.0, step)
        if value > 100.0:
            value = 200.0 - value  # reflect at the band edges
        value = min(100.0, max(0.0, abs(value)))
        ret = "" if d == 0 else f"{abs(close / closes[d - 1] - 1.0):.6g}"
        lines.append(f"{START + timedelta(days=d)},{round(value)},{ret}")
    return lines


def _holders(rng: random.Random, rows: int) -> list[str]:
    skew = rng.uniform(0.6, 1.4)
    weights = [(k + 1) ** -skew * math.exp(rng.gauss(0.0, 0.3)) for k in range(rows)]
    total = rng.uniform(0.35, 0.9)
    scale = total / math.fsum(weights)
    shares = sorted((w * scale for w in weights), reverse=True)
    return ["rank,share"] + [f"{k + 1},{s:.8f}" for k, s in enumerate(shares)]


def score_raw(out_dir: Path, seed: int, tokens: int = 200, days: int = 365,
              holder_rows: int = 150) -> Manifest:
    """A watchlist scored from raw per-token files."""
    ids = [f"R{i:04d}" for i in range(tokens)]
    bases = _roles(tokens, _rng(seed, "score-raw", "roles"))
    entries = []
    for i, tid in enumerate(ids):
        rng = _rng(seed, "score-raw", tid)
        bar_lines, closes = _bars(rng, days)
        _write(out_dir / f"{tid}_bars.csv", bar_lines)
        _write(out_dir / f"{tid}_fgi.csv", _fgi(rng, closes))
        _write(out_dir / f"{tid}_holders.csv", _holders(rng, holder_rows))
        entry = {"id": tid, "role": "standalone"}
        if bases[i] is not None:
            entry = {"id": tid, "role": "hosted", "base": ids[bases[i]]}
        entry.update(bars=f"{tid}_bars.csv", holders=f"{tid}_holders.csv",
                     sentiment=f"{tid}_fgi.csv")
        entries.append(entry)
    universe = out_dir / "universe.json"
    universe.write_text(json.dumps({"tokens": entries}, indent=1) + "\n", encoding="utf-8")
    return Manifest(
        argv=["score", "--universe", str(universe), "--format", "json,table"],
        tokens=ids,
        scores=("vds", "wds", "sas"),
        items=tokens,
    )


def score_tables(out_dir: Path, seed: int, tokens: int = 10_000) -> Manifest:
    """A whole-market screen given only as pre-aggregated summary tables."""
    ids = [f"T{i:05d}" for i in range(tokens)]
    bases = _roles(tokens, _rng(seed, "score-tables", "roles"))
    rng = _rng(seed, "score-tables", "rows")
    vol_lines = ["token,avg_vol_pct,max_vol_pct,max_volume_busd,max_mcap_busd,chain_role,base"]
    fgi_lines = ["token,f_bar,f_max,f_min,q_g_pct,q_f_pct,delta_f_max,delta_p_max_pct"]
    for i, tid in enumerate(ids):
        avg = rng.uniform(1.0, 20.0)
        volume = math.exp(rng.uniform(-6.0, 6.0))
        role = "standalone," if bases[i] is None else f"hosted,{ids[bases[i]]}"
        vol_lines.append(
            f"{tid},{avg:.2f},{avg * rng.uniform(2.0, 8.0):.2f},{volume:.6g},"
            f"{volume * rng.uniform(0.5, 20.0):.6g},{role}"
        )
        f_min = rng.uniform(0.0, 30.0)
        f_max = rng.uniform(70.0, 100.0)
        fgi_lines.append(
            f"{tid},{rng.uniform(f_min, f_max):.2f},{f_max:.2f},{f_min:.2f},"
            f"{rng.uniform(0.0, 3.0):.2f},{rng.uniform(0.0, 3.0):.2f},"
            f"{rng.uniform(10.0, 70.0):.2f},{rng.uniform(1.0, 40.0):.2f}"
        )
    _write(out_dir / "volatility.csv", vol_lines)
    _write(out_dir / "fgi.csv", fgi_lines)
    universe = out_dir / "universe.json"
    universe.write_text(json.dumps({"volatility_table": "volatility.csv",
                                    "fgi_table": "fgi.csv"}) + "\n", encoding="utf-8")
    return Manifest(
        argv=["score", "--universe", str(universe), "--format", "json,table"],
        tokens=ids,
        scores=("vds", "sas"),
        items=tokens,
    )


def warn_history(out_dir: Path, seed: int, days: int = 2000) -> Manifest:
    """Deep daily score histories: autocorrelated log-scores with rare shocks."""
    ids = [f"H{i:02d}" for i in range(HISTORY_TOKENS)]
    series = {}
    for tid in ids:
        for metric in METRICS:
            rng = _rng(seed, "warn-history", tid, metric)
            level = rng.uniform(-3.0, -0.5)
            x = 0.0
            values = []
            for _ in range(days):
                x = 0.9 * x + rng.gauss(0.0, 0.25)
                if rng.random() < 0.01:
                    x += rng.uniform(0.5, 1.5)
                values.append(math.exp(level + x))
            series[tid, metric] = values
    lines = ["date,token,metric,value"]
    for d in range(days):
        day = HISTORY_START + timedelta(days=d)
        for tid in ids:
            for metric in METRICS:
                lines.append(f"{day},{tid},{metric},{series[tid, metric][d]:.6f}")
    history = out_dir / "history.csv"
    _write(history, lines)
    return Manifest(
        argv=["warn", "--history", str(history), *WARN_ARGS],
        tokens=ids,
        scores=(),
        items=days * HISTORY_TOKENS * len(METRICS),
    )
