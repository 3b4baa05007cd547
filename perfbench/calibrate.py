"""Fixed calibration work that measures how fast the machine runs right now.

The benchmark shares a few cores of a host whose speed drifts by up to 2x
within seconds, and CPU time drifts with wall time, so a plain wall time
says as much about the neighbours as about the program. Every timed
operation is therefore bracketed by this kernel, and each time is reported
in *reference seconds*:

    reference seconds = wall seconds * REFERENCE_S / kernel seconds

where the kernel seconds are measured next to the operation and
``REFERENCE_S`` is a constant. A value reads as the time the operation would
take on a machine that runs the kernel in ``REFERENCE_S``.

The kernel uses only the standard library and no me2f code, so a change to
the program moves the operation's time and not the kernel's. It does the
kinds of work me2f does (CSV text parsing, date parsing, float math,
dataclass records, rolling windows, sorting, bisection, exact fractions,
and a JSON round trip through many small objects) and takes about 50 ms.
It imports its modules only when it runs, so that a fresh interpreter can
time ``import me2f.cli`` first without them pre-loaded.
"""
from __future__ import annotations

import gc
import time

REFERENCE_S = 0.050  # about the kernel's median time on the machine in baseline.json


def _text(rows: int) -> str:
    """Deterministic CSV text: date, token, price, volume."""
    lines = []
    x = 12345
    for i in range(rows):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        day = 1 + i % 28
        month = 1 + (i // 28) % 12
        lines.append(f"2024-{month:02d}-{day:02d},t{x % 97},{1 + (x % 10007) / 101:.4f},"
                     f"{x % 100003}")
    return "\n".join(lines)


def kernel(rows: int = 3000) -> int:
    """The calibration work; returns a checksum so that nothing is skipped."""
    import bisect
    import csv
    import io
    import json
    import math
    from collections import deque
    from dataclasses import dataclass
    from datetime import date
    from fractions import Fraction

    @dataclass(frozen=True)
    class Row:
        day: date
        token: str
        price: float
        volume: int

    records = [Row(date.fromisoformat(d), t, float(p), int(v))
               for d, t, p, v in csv.reader(io.StringIO(_text(rows)))]
    by_token: dict[str, list[Row]] = {}
    for r in records:
        by_token.setdefault(r.token, []).append(r)
    summary = {}
    for token, rs in sorted(by_token.items()):
        rs.sort(key=lambda r: (r.day, r.price))
        window: deque = deque(maxlen=8)
        ranked: list[float] = []
        total = 0.0
        for a, b in zip(rs, rs[1:]):
            ret = math.log(b.price / a.price)
            window.append(ret * ret)
            total += math.sqrt(sum(window) / len(window))
            bisect.insort(ranked, ret)
        share = sum((Fraction(r.volume, 100003) for r in rs[:6]), Fraction(0))
        summary[token] = [round(total, 9), ranked[len(ranked) // 2] if ranked else 0.0,
                          float(share)]
    # A report-sized round trip through many small objects, as report
    # building and JSON serialization do: this part is bound by memory.
    report = [{"id": f"T{i:05d}", "day": r.day.isoformat(), "price": r.price,
               "volume": [r.volume, i], "token": r.token}
              for i, r in enumerate(records)]
    back = json.loads(json.dumps(report))
    table = "\n".join(f"{d['id']:<8}{d['price']:>12.4f}  {d['token']}" for d in back)
    return len(json.dumps(summary, sort_keys=True)) + len(table)


def timed() -> float:
    """Seconds one kernel run takes now.

    The cyclic garbage collector is paused meanwhile: a collection would scan
    the caller's whole heap and make the kernel time depend on the caller.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def to_reference(seconds: float, kernel_seconds: float) -> float:
    """Wall seconds measured next to a kernel run of ``kernel_seconds``, in reference seconds."""
    return seconds * REFERENCE_S / kernel_seconds
