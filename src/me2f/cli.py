"""Command-line surface: score, warn, plot, fetch.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
error. Diagnostics go to stderr; data goes to files.

Report schemas, by top-level key:

- ``score`` writes report.json with params, window, tokens, warnings.
  Scores are rounded to 3 decimals for display with full precision
  preserved under each token's "raw" sub-field; absent scores serialize
  as null and render as an em dash in tabular output.
- ``warn`` writes warnings.json with params, warnings, flags,
  joint_events, buckets.

Both files hold the bytes of ``json.dumps(doc, indent=2)`` plus a newline:
two spaces per nesting level, ASCII-only strings (``\\uXXXX`` escapes),
floats in ``repr`` form with ``NaN``/``Infinity``/``-Infinity``, and each
object's keys in the fixed order of its ``_Object`` below.
"""
from __future__ import annotations

import math
import sys
from collections import defaultdict
from datetime import date as Date
from functools import cache
from itertools import chain, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterator

import click

from . import ingest, scoring
from .domain import FrameworkParams, TokenSeries
from .errors import ConfigError, DataError, Me2fError, NonMonotonicDates
from .ingest import HISTORY_HEADER, MarketDataClient
from .scoring import FragilityReport, TokenReport
from .warning import (
    ActionBucket,
    Metric,
    ScorePoint,
    ScoreSeries,
    assign_buckets,
    joint_spike,
    rolling_flags,
)

ABSENT = "—"  # rendered for missing scores in tabular output

_METRIC_COLORS = {"vds": "#2a9d8f", "wds": "#3a6ea5", "sas": "#e76f51"}
_SVG_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})  # chart text as XML character data
# each metric's and bucket's name, read once rather than through ``.value`` per item
_NAMES = {member: member.value for member in (*Metric, *ActionBucket)}


# --- serialization -------------------------------------------------------

def _round_or_none(value: float | None, digits: int) -> float | None:
    return None if value is None else round(value, digits)


def _window_dict(window: tuple[Date, Date] | None) -> dict | None:
    if window is None:
        return None
    return {"start": window[0].isoformat(), "end": window[1].isoformat()}


def _token_entry(t: TokenReport) -> dict:
    inputs = t.inputs
    if inputs.role.is_standalone:
        role = {"kind": "standalone"}
    else:
        role = {"kind": "hosted", "base": inputs.role.base}
    volatility = None
    if inputs.volatility is not None:
        volatility = {
            "avg_vol_pct": round(inputs.volatility.avg_vol * 100, 2),
            "max_vol_pct": round(inputs.volatility.max_vol * 100, 2),
            "max_volume": inputs.volatility.max_volume,
            "max_mcap": inputs.volatility.max_mcap,
        }
    concentration = None
    if t.concentration is not None:
        concentration = {
            "top_share_pct": round(t.concentration.c * 100, 2),
            "hhi": t.concentration.h,
            "internal": t.concentration.n_internal,
        }
    fgi = None
    if inputs.fgi is not None:
        fgi = {
            "f_bar": inputs.fgi.f_bar,
            "f_max": inputs.fgi.f_max,
            "f_min": inputs.fgi.f_min,
            "r_f": inputs.fgi.r_f,
            "q_g_pct": round(inputs.fgi.q_g * 100, 2),
            "q_f_pct": round(inputs.fgi.q_f * 100, 2),
            "delta_f_max": inputs.fgi.delta_f_max,
            "delta_p_max_pct": round(inputs.fgi.delta_p_max * 100, 2),
        }
    return {
        "id": t.token_id,
        "role": role,
        "vds": _round_or_none(t.vds, 3),
        "wds": _round_or_none(t.wds, 3),
        "sas": _round_or_none(t.sas, 3),
        "raw": {"vds": t.vds, "wds": t.wds, "sas": t.sas},
        "inputs": {"volatility": volatility, "concentration": concentration, "fgi": fgi},
        "window": _window_dict(inputs.window),
        "warnings": list(t.warnings),
    }


def report_to_dict(report: FragilityReport) -> dict:
    p = report.params
    return {
        "params": {
            "alpha": p.alpha, "beta": p.beta, "gamma": p.gamma,
            "delta": p.delta, "n": p.n, "scale_unit": p.scale_unit,
        },
        "window": _window_dict(report.window),
        "tokens": [_token_entry(t) for t in report.tokens],
        "warnings": list(report.warnings),
    }


def report_table(report: FragilityReport) -> str:
    """Fixed-width fragility summary, one row per token, ascending VDS."""

    def cell(value: float | None) -> str:
        return ABSENT if value is None else f"{value:.3f}"

    lines = [f"{'Token':<10}{'VDS':>8}{'WDS':>8}{'SAS':>8}"]
    lines.append(f"{'-----':<10}{'---':>8}{'---':>8}{'---':>8}")
    for t in report.tokens:
        lines.append(f"{t.token_id:<10}{cell(t.vds):>8}{cell(t.wds):>8}{cell(t.sas):>8}")
    if report.window is not None:
        lines.append("")
        lines.append(f"window: {report.window[0]} .. {report.window[1]}")
    for note in report.warnings:
        lines.append(f"warning: {note}")
    for t in report.tokens:
        for note in t.warnings:
            lines.append(f"warning [{t.token_id}]: {note}")
    return "\n".join(lines) + "\n"


# The JSON writers below emit exactly the bytes of ``json.dumps(doc, indent=2)``,
# whose encoder runs only in pure Python once ``indent`` is set. Each object
# of the two report schemas is one template of its keys, in order, with its
# indentation fixed; scalars are encoded by type, as ``json`` encodes them.
# A score token is filled in by one ``%`` on the template of its shape (its
# role kind, and which of its volatility, concentration, fgi and window are
# present), composed once from the object templates: at most 32 templates, one
# ``_encode`` of all the token's scalars, and the tokens joined once into the
# report's text. A warn array (flags, joint events, buckets) is rendered whole:
# one ``_encode`` of all its items' scalars, one more of all their metrics
# lists' items, and one ``%`` on its object template repeated once per item.

def _unencodable(value) -> str:
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


_SCALARS = {  # by exact type, so ``repr`` is ``float.__repr__``/``int.__repr__``
    float: repr,
    int: repr,
    str: encode_basestring_ascii,
    type(None): {None: "null"}.__getitem__,
    bool: {True: "true", False: "false"}.__getitem__,
}
# float.__repr__ texts that json spells otherwise; no other scalar encodes to
# these, since strings encode with their quotes
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _encode(values) -> list[str]:
    """Each scalar as ``json`` encodes it."""
    texts = [_SCALARS.get(type(v), _unencodable)(v) for v in values]
    if _NON_FINITE.keys().isdisjoint(texts):
        return texts
    return [_NON_FINITE.get(text, text) for text in texts]


class _Object:
    """An object of fixed keys at nesting ``depth``, one ``%s`` per value."""

    def __init__(self, depth: int, *keys: str):
        pad = "  " * (depth + 1)
        self.keys = keys
        # ``obj``'s values in key order (``itemgetter`` of one key returns the bare value)
        self.values = itemgetter(*keys) if len(keys) > 1 else lambda obj: (obj[keys[0]],)
        self.template = ("{\n" + ",\n".join(f"{pad}{encode_basestring_ascii(k)}: %s" for k in keys)
                         + "\n" + "  " * depth + "}")

    def scalars(self, obj: dict | None) -> str:
        """``obj`` when every value is a scalar; ``null`` for None."""
        if obj is None:
            return "null"
        return self.template % tuple(_encode(self.values(obj)))

    def split(self, key: str) -> tuple[str, str]:
        """The template before ``key``'s value and after it."""
        pieces = self.template.split("%s")
        at = self.keys.index(key) + 1
        return "%s".join(pieces[:at]), "%s".join(pieces[at:])


def _brackets(depth: int) -> tuple[str, str, str]:
    """An array's opening, separator and closing at nesting ``depth``."""
    pad = "  " * (depth + 1)
    return "[\n" + pad, ",\n" + pad, "\n" + "  " * depth + "]"


def _array(texts: list[str], depth: int) -> str:
    """An array at nesting ``depth`` of already encoded items."""
    if not texts:
        return "[]"
    opening, separator, closing = _brackets(depth)
    return opening + separator.join(texts) + closing


def _strings(values: list[str], depth: int) -> str:
    return _array(_encode(values), depth)


_SCORE = _Object(0, "params", "window", "tokens", "warnings")
_SCORE_PARAMS = _Object(1, "alpha", "beta", "gamma", "delta", "n", "scale_unit")
_REPORT_WINDOW = _Object(1, "start", "end")
_TOKEN = _Object(2, "id", "role", "vds", "wds", "sas", "raw", "inputs", "window", "warnings")
_STANDALONE = _Object(3, "kind")
_HOSTED = _Object(3, "kind", "base")
_RAW = _Object(3, "vds", "wds", "sas")
_INPUTS = _Object(3, "volatility", "concentration", "fgi")
_TOKEN_WINDOW = _Object(3, "start", "end")
_VOLATILITY = _Object(4, "avg_vol_pct", "max_vol_pct", "max_volume", "max_mcap")
_CONCENTRATION = _Object(4, "top_share_pct", "hhi", "internal")
_FGI = _Object(4, "f_bar", "f_max", "f_min", "r_f", "q_g_pct", "q_f_pct", "delta_f_max",
               "delta_p_max_pct")
_SECTIONS = (_VOLATILITY, _CONCENTRATION, _FGI, _TOKEN_WINDOW)  # a token's nullable objects

_WARN = _Object(0, "params", "warnings", "flags", "joint_events", "buckets")
_WARN_PARAMS = _Object(1, "window_days", "threshold", "x_days")
_FLAG = _Object(2, "token", "metric", "date", "value", "window_percentile")
_JOINT_EVENT = _Object(2, "token", "date", "metrics")
_BUCKET = _Object(2, "token", "date", "bucket", "metrics")


@cache
def _token_template(role: _Object, *present: bool) -> str:
    """A token's template for its shape: ``role``, and which of ``_SECTIONS``
    are ``present`` (the others are null). One ``%s`` per scalar, in the
    order of the text, and a last one for the warnings array."""
    volatility, concentration, fgi, window = (
        section.template if here else "null" for section, here in zip(_SECTIONS, present)
    )
    return _TOKEN.template % (
        "%s", role.template, "%s", "%s", "%s", _RAW.template,
        _INPUTS.template % (volatility, concentration, fgi), window, "%s",
    )


def _token_json(t: dict) -> str:
    """One token entry: all of its scalars through one ``_encode``, then one
    ``%`` on the template of its shape."""
    role, inputs = t["role"], t["inputs"]
    sections = (inputs["volatility"], inputs["concentration"], inputs["fgi"], t["window"])
    role_object = _HOSTED if "base" in role else _STANDALONE
    values = [t["id"], *role_object.values(role), t["vds"], t["wds"], t["sas"],
              *_RAW.values(t["raw"])]
    for section, obj in zip(sections, _SECTIONS):
        if section is not None:
            values += obj.values(section)
    warnings_at = len(values)
    values += t["warnings"]
    texts = _encode(values)
    texts[warnings_at:] = [_array(texts[warnings_at:], 3)]
    return _token_template(role_object, *(s is not None for s in sections)) % tuple(texts)


def _score_json(doc: dict) -> str:
    head, tail = _SCORE.split("tokens")
    head %= (_SCORE_PARAMS.scalars(doc["params"]), _REPORT_WINDOW.scalars(doc["window"]))
    tail = tail % _strings(doc["warnings"], 1) + "\n"
    tokens = [_token_json(t) for t in doc["tokens"]]
    if not tokens:
        return head + "[]" + tail
    opening, separator, closing = _brackets(1)
    tokens[0] = head + opening + tokens[0]
    tokens[-1] += closing + tail
    return separator.join(tokens)


def _objects(obj: _Object, items: list[dict], listed: str | None = None) -> str:
    """An array at nesting 1 of ``obj`` items: one ``_encode`` of all their
    scalars, gathered in key order, and one ``%`` on ``obj``'s template
    repeated once per item. The string arrays under key ``listed`` get one
    more ``_encode`` of all their items, then each is cut back by its length."""
    if not items:
        return "[]"
    width = len(obj.keys)
    values = list(chain.from_iterable(map(obj.values, items)))
    if listed is not None:
        at = obj.keys.index(listed)
        lists = values[at::width]
        values[at::width] = [None] * len(items)  # a scalar in the lists' place
    texts = _encode(values)
    if listed is not None:
        strings = iter(_encode(chain.from_iterable(lists)))
        opening, separator, closing = _brackets(3)
        texts[at::width] = [opening + separator.join(islice(strings, n)) + closing if n else "[]"
                            for n in map(len, lists)]
    opening, separator, closing = _brackets(1)
    return opening + (separator.join(repeat(obj.template, len(items))) % tuple(texts)) + closing


def _warn_json(doc: dict) -> str:
    return (_WARN.template + "\n") % (
        _WARN_PARAMS.scalars(doc["params"]),
        _strings(doc["warnings"], 1),
        _objects(_FLAG, doc["flags"]),
        _objects(_JOINT_EVENT, doc["joint_events"], "metrics"),
        _objects(_BUCKET, doc["buckets"], "metrics"),
    )


_WRITERS = {_SCORE.keys: _score_json, _WARN.keys: _warn_json}


def _dumps(doc: dict) -> str:
    """``doc`` as ``json.dumps(doc, indent=2)`` writes it, plus a newline.

    ``doc`` is a ``score`` or a ``warn`` document, told apart by its
    top-level keys.
    """
    writer = _WRITERS.get(tuple(doc))
    if writer is None:
        raise TypeError(f"no JSON writer for a document with keys {list(doc)}")
    return writer(doc)


def bars_to_csv(series: TokenSeries) -> str:
    lines = [",".join(ingest.BARS_HEADER)]
    for day, high, low, close, volume, mcap in zip(
        series.dates, series.high, series.low, series.close,
        series.volume_usd, series.market_cap_usd,
    ):
        lines.append(f"{day.isoformat()},{high},{low},{close},{volume},{mcap}")
    return "\n".join(lines) + "\n"


# --- charts ----------------------------------------------------------------

def _nice_ceiling(value: float) -> float:
    if value <= 0:
        return 1.0
    exp = math.floor(math.log10(value))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        candidate = mult * 10.0**exp
        if candidate >= value * (1 - 1e-12):
            return candidate
    return 10.0 ** (exp + 1)  # unreachable


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
        tick = top * i / 4
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


def write_charts(doc: dict, out_dir: Path) -> list[str]:
    """One SVG per score plus a CSV sidecar; skips all-absent scores."""
    notices = []
    for metric in ("vds", "wds", "sas"):
        pairs = [
            (t["id"], t[metric]) for t in doc.get("tokens", []) if t.get(metric) is not None
        ]
        if not pairs:
            notices.append(f"skipped {metric} chart: no values present")
            continue
        pairs.sort(key=lambda kv: (-kv[1], kv[0]))
        (out_dir / f"{metric}.svg").write_text(
            bar_chart_svg(metric.upper(), pairs, _METRIC_COLORS[metric]), encoding="utf-8"
        )
        sidecar = "token,value\n" + "".join(f"{_csv_field(tok)},{val}\n" for tok, val in pairs)
        (out_dir / f"{metric}.csv").write_text(sidecar, encoding="utf-8")
    return notices


# --- commands ----------------------------------------------------------------

def _execute(action) -> None:
    try:
        action()
    except (ConfigError, DataError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2 if isinstance(exc, ConfigError) else 3)
    except Me2fError as exc:
        click.echo(f"internal error: {exc}", err=True)
        sys.exit(4)
    except Exception as exc:  # the exit-code contract holds for defects too
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(4)


def _param_options(fn):
    for deco in reversed([
        click.option("--alpha", type=float, default=None, help="volatility blend weight"),
        click.option("--beta", type=float, default=None, help="base-chain spillover gain"),
        click.option("--gamma", type=float, default=None, help="scale down-weighting strength"),
        click.option("--delta", type=float, default=None, help="sentiment shock exponent"),
        click.option("--n", type=int, default=None, help="top-holder count"),
        click.option("--scale-unit", type=float, default=None, help="USD divisor for volume/mcap"),
    ]):
        fn = deco(fn)
    return fn


@click.group()
@click.version_option("0.1.0", prog_name="me2f")
def main():
    """Token fragility scoring: volatility dynamics, whale dominance,
    sentiment amplification."""


@main.command()
@click.option("--universe", "universe_path", required=True, type=click.Path(), help="universe JSON file")
@click.option("--out", "out_dir", default="me2f_out", show_default=True, type=click.Path())
@click.option("--format", "formats", default="json,table", show_default=True,
              help="comma-separated subset of json,table,chart")
@_param_options
def score(universe_path, out_dir, formats, **overrides):
    """Score a universe and write the fragility report."""

    def run():
        wanted = {f.strip() for f in formats.split(",") if f.strip()}
        unknown = wanted - {"json", "table", "chart"}
        if unknown:
            raise ConfigError(f"unknown output format(s): {', '.join(sorted(unknown))}")
        params = FrameworkParams(**{name: v for name, v in overrides.items() if v is not None})
        inputs = ingest.load_universe(universe_path, params)
        report = scoring.score_universe(scoring.build_context(inputs, params))
        doc = report_to_dict(report)
        out = ingest.make_dir(out_dir, "--out")
        written = []
        if "json" in wanted:
            (out / "report.json").write_text(_dumps(doc), encoding="utf-8")
            written.append("report.json")
        if "table" in wanted:
            (out / "report.txt").write_text(report_table(report), encoding="utf-8")
            written.append("report.txt")
        if "chart" in wanted:
            for notice in write_charts(doc, out):
                click.echo(notice, err=True)
            written.append("charts")
        click.echo(f"scored {len(report.tokens)} token(s) -> {out} ({', '.join(written)})", err=True)

    _execute(run)


def _is_score(value) -> bool:
    """A JSON number (not a bool) that ``ScorePoint``'s value rule accepts."""
    try:
        return type(value) in (int, float) and ScorePoint.rules[0].holds({"value": (value,)})
    except OverflowError:  # an integer beyond the float range
        return False


def _report_tokens(path: Path, doc: dict) -> list[dict]:
    """A report's token entries, checked for ``plot`` and ``warn`` alike.

    ``tokens`` must be a list of objects, each with a string ``id``; every
    score, at the top level or under ``raw``, must be null or a finite JSON
    number >= 0.
    """
    tokens = doc.get("tokens", [])
    if not isinstance(tokens, list):
        raise DataError(f"{path}: 'tokens' must be a list of token objects")
    for number, t in enumerate(tokens, start=1):
        if not isinstance(t, dict) or not isinstance(t.get("id"), str):
            raise DataError(f"{path}: token entry {number} needs a string 'id'")
        raw = t.get("raw", {})
        if not isinstance(raw, dict):
            raise DataError(f"{path}: token {t['id']!r} has a 'raw' that is not an object")
        for scores in (t, raw):
            for metric in Metric:
                value = scores.get(metric.value)
                if value is not None and not _is_score(value):
                    raise DataError(
                        f"{path}: token {t['id']!r} has {metric.value} score {value!r}; "
                        "scores must be finite numbers >= 0"
                    )
    return tokens


def _load_report_scores(path: Path) -> Iterator[tuple[tuple[str, Metric], tuple[Date, float]]]:
    doc = ingest.read_json_object(path, str(path), DataError)
    window = doc.get("window")
    if not isinstance(window, dict) or not window.get("end"):
        raise DataError(f"{path}: report has no window; cannot date its scores")
    try:
        (day,) = ingest.iso_days([window["end"]])
    except (TypeError, ValueError):
        raise DataError(f"{path}: window end {window['end']!r} is not a YYYY-MM-DD date") from None
    for t in _report_tokens(path, doc):
        raw = t.get("raw", {})
        for metric in Metric:
            score = raw.get(metric.value, t.get(metric.value))
            if score is not None:
                yield (t["id"], metric), (day, float(score))


@main.command()
@click.option("--history", "history_path", type=click.Path(), default=None,
              help=f"score history CSV ({','.join(HISTORY_HEADER)})")
@click.option("--report", "report_paths", multiple=True, type=click.Path(),
              help="dated report.json files to use as history (repeatable)")
@click.option("--window", "window_days", default=90, show_default=True, help="rolling window, days")
@click.option("--threshold", default=0.90, show_default=True, help="flag percentile threshold")
@click.option("--x-days", "x_days", default=3, show_default=True,
              help="max day gap for a joint spike")
@click.option("--out", "out_dir", default="me2f_out", show_default=True, type=click.Path())
def warn(history_path, report_paths, window_days, threshold, x_days, out_dir):
    """Raise rolling-window early-warning flags over score histories."""

    def run():
        if window_days < 2:
            raise ConfigError(f"--window {window_days} must be >= 2")
        if not 0 < threshold < 1:
            raise ConfigError(f"--threshold {threshold} must be in (0, 1)")
        if x_days < 0:
            raise ConfigError(f"--x-days {x_days} must be >= 0")
        if history_path is None and not report_paths:
            raise ConfigError("provide --history and/or --report inputs")
        series = {}
        if history_path is not None:
            series = {(s.token_id, s.metric): s for s in ingest.load_history_csv(history_path)}
        added = defaultdict(list)
        for rp in report_paths:
            for key, point in _load_report_scores(Path(rp)):
                added[key].append(point)
        for key, points in added.items():
            if key in series:
                points += zip(series[key].dates, series[key].value)
            try:
                series[key] = ScoreSeries.from_columns(*key, *zip(*sorted(points)))
            except NonMonotonicDates as exc:
                raise NonMonotonicDates(f"{key[0]} {key[1].value}: {exc}") from None

        # Series run in (token, metric) order and each stage returns date-ordered
        # lists per token, so every output list below is already in its order.
        all_flags, events, buckets = [], [], []
        for _, group in groupby(sorted(series.items()), key=lambda item: item[0][0]):
            token_flags = {metric: rolling_flags(history, window_days, threshold)
                           for (_, metric), history in group}
            all_flags.extend(f for flags in token_flags.values() for f in flags)
            events.extend(joint_spike(token_flags, x_days))
            buckets.extend(assign_buckets(token_flags, x_days))

        doc = {
            "params": {"window_days": window_days, "threshold": threshold, "x_days": x_days},
            "warnings": [],
            "flags": [
                {
                    "token": f.token_id,
                    "metric": _NAMES[f.metric],
                    "date": f.date.isoformat(),
                    "value": f.value,
                    "window_percentile": f.window_percentile,
                }
                for f in all_flags
            ],
            "joint_events": [
                {
                    "token": e.token_id,
                    "date": e.date.isoformat(),
                    "metrics": [_NAMES[m] for m in e.metrics],
                }
                for e in events
            ],
            "buckets": [
                {
                    "token": b.token_id,
                    "date": b.date.isoformat(),
                    "bucket": _NAMES[b.bucket],
                    "metrics": [_NAMES[m] for m in b.metrics],
                }
                for b in buckets
            ],
        }
        out = ingest.make_dir(out_dir, "--out")
        (out / "warnings.json").write_text(_dumps(doc), encoding="utf-8")
        click.echo(
            f"{len(doc['flags'])} flag(s), {len(doc['joint_events'])} joint event(s) "
            f"-> {out / 'warnings.json'}",
            err=True,
        )

    _execute(run)


@main.command()
@click.option("--report", "report_path", required=True, type=click.Path(), help="report.json to plot")
@click.option("--out", "out_dir", default="me2f_out", show_default=True, type=click.Path())
def plot(report_path, out_dir):
    """Render descending bar charts (SVG + CSV sidecar) from a report."""

    def run():
        path = Path(report_path)
        doc = ingest.read_json_object(path, str(path), DataError)
        _report_tokens(path, doc)
        out = ingest.make_dir(out_dir, "--out")
        for notice in write_charts(doc, out):
            click.echo(notice, err=True)
        click.echo(f"charts -> {out}", err=True)

    _execute(run)


@main.command()
@click.option("--provider-config", "provider_path", required=True, type=click.Path())
@click.option("--token", "token_id", required=True)
@click.option("--start", "start_raw", required=True, help="YYYY-MM-DD")
@click.option("--end", "end_raw", required=True, help="YYYY-MM-DD")
@click.option("--cache-dir", envvar="ME2F_CACHE_DIR", default=".me2f_cache", show_default=True,
              type=click.Path())
@click.option("--out", "out_path", default=None, type=click.Path(), help="write bars CSV here")
def fetch(provider_path, token_id, start_raw, end_raw, cache_dir, out_path):
    """Fetch daily bars from a configured provider (cache-first)."""

    def run():
        try:
            start, end = ingest.iso_days([start_raw, end_raw])
        except ValueError:
            raise ConfigError(f"--start {start_raw!r} and --end {end_raw!r} must be YYYY-MM-DD") from None
        provider = ingest.load_provider_config(provider_path)
        if out_path:  # before any request
            if Path(out_path).is_dir():
                raise ConfigError(f"--out {out_path} is a directory")
            ingest.make_dir(Path(out_path).parent, "--out")
        client = MarketDataClient(provider, cache_dir)
        series = client.fetch_daily(token_id, start, end)
        if out_path:
            try:
                Path(out_path).write_text(bars_to_csv(series), encoding="utf-8")
            except OSError as exc:
                raise ConfigError(f"--out {out_path}: cannot write: {exc.strerror or exc}") from None
            click.echo(f"{len(series.dates)} bar(s) -> {out_path}", err=True)
        else:
            click.echo(f"{len(series.dates)} bar(s) cached for {token_id}", err=True)

    _execute(run)


if __name__ == "__main__":
    main()
