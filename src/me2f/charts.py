"""A descending bar chart (SVG) and its CSV sidecar per score, from a report's
token entries. Only ``plot`` and ``score --format chart`` draw charts, so the
CLI imports this module in those alone; it needs no click.
"""
from __future__ import annotations

import math

from .warning import Metric

_SVG_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # chart text as XML character data

# each score's bar colour, in chart order: the order of ``Metric``, as report.json's "raw" keys
_METRIC_COLORS = dict(zip((m.value for m in Metric), ("#2a9d8f", "#3a6ea5", "#e76f51"), strict=True))


def _nice_ceiling(value: float) -> float:
    """The least of 1, 2, 2.5, 5 and 10 times 10**floor(log10(value)) that is
    finite and at least ``value``; ``value`` itself where none is (near the
    top of the float range, or among subnormals, where 10**exp loses bits)."""
    if value <= 0:
        return 1.0
    scale = 10.0**math.floor(math.log10(value))
    least = value * (1 - 1e-12)
    return next((c for c in (m * scale for m in (1.0, 2.0, 2.5, 5.0, 10.0)) if least <= c < math.inf),
                value)


def bar_chart_svg(title: str, pairs: list[tuple[str, float]], color: str = "#2a9d8f") -> str:
    """Static descending bar chart; byte-stable for identical input.

    No external fonts, no generated ids, fixed coordinate formatting.
    """
    margin_left, margin_right, margin_top, margin_bottom = 64, 16, 44, 52
    slot = 64
    plot_h = 300
    width = margin_left + margin_right + slot * max(1, len(pairs))
    height = margin_top + plot_h + margin_bottom
    top = _nice_ceiling(max((v for _, v in pairs), default=0.0))

    def x(i: int) -> float:
        return margin_left + slot * i

    def y(v: float) -> float:
        return margin_top + plot_h * (1 - v / top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{margin_left}" y="24" font-family="monospace" font-size="16" '
        f'font-weight="bold">{title.translate(_SVG_TEXT)}</text>',
    ]
    for i in range(5):
        tick = top * (i / 4)  # top * i could overflow; the top tick is top itself
        ty = y(tick)
        parts.append(
            f'<line x1="{margin_left}" y1="{ty:.2f}" x2="{width - margin_right}" '
            f'y2="{ty:.2f}" stroke="#dddddd" stroke-dasharray="3,3"/>'
        )
        parts.append(
            f'<text x="{margin_left - 6}" y="{ty + 4:.2f}" font-family="monospace" '
            f'font-size="11" text-anchor="end">{tick:g}</text>'
        )
    bar_w = slot * 0.6
    for i, (label, value) in enumerate(pairs):
        bx = x(i) + (slot - bar_w) / 2
        by = y(value)
        parts.append(
            f'<rect x="{bx:.2f}" y="{by:.2f}" width="{bar_w:.2f}" '
            f'height="{margin_top + plot_h - by:.2f}" fill="{color}"/>'
        )
        cx = x(i) + slot / 2
        parts.append(
            f'<text x="{cx:.2f}" y="{by - 5:.2f}" font-family="monospace" font-size="11" '
            f'text-anchor="middle">{value:.3f}</text>'
        )
        parts.append(
            f'<text x="{cx:.2f}" y="{margin_top + plot_h + 16}" font-family="monospace" '
            f'font-size="11" text-anchor="middle">{label.translate(_SVG_TEXT)}</text>'
        )
    parts.append(
        f'<line x1="{margin_left}" y1="{margin_top + plot_h}" x2="{width - margin_right}" '
        f'y2="{margin_top + plot_h}" stroke="black"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _csv_field(text: str) -> str:
    """``text`` as an RFC 4180 field: quoted, its quotes doubled, where it holds , " CR or LF."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def chart_files(doc: dict) -> tuple[dict[str, str], list[str]]:
    """Each score's SVG and CSV sidecar, by file name, and a notice per all-absent score."""
    files, notices = {}, []
    for metric, color in _METRIC_COLORS.items():
        pairs = [
            (t["id"], t[metric]) for t in doc.get("tokens", []) if t.get(metric) is not None
        ]
        if not pairs:
            notices.append(f"skipped {metric} chart: no values present")
            continue
        pairs.sort(key=lambda kv: (-kv[1], kv[0]))
        files[f"{metric}.svg"] = bar_chart_svg(metric.upper(), pairs, color)
        files[f"{metric}.csv"] = "token,value\n" + "".join(
            f"{_csv_field(tok)},{val}\n" for tok, val in pairs)
    return files, notices
