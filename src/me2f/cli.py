"""Command-line surface: score, warn, plot, fetch.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
error. Diagnostics go to stderr; data goes to files, all of a command's at
once through ``ingest.write_files``: an output directory or file that cannot
be written exits 2 and leaves the files that were there.

Report schemas, by top-level key:

- ``score`` writes report.json with params, window, tokens, warnings.
  Scores are rounded to 3 decimals for display with full precision
  preserved under each token's "raw" sub-field; absent scores serialize
  as null and render as an em dash in tabular output.
- ``warn`` writes warnings.json with params, warnings, flags,
  joint_events, buckets.

Each object of both schemas is stated once, as an ``_Object`` below: it
builds the object's dict from values in key order and writes it. Both files
hold the bytes of ``json.dumps(doc, indent=2)`` plus a newline: two spaces
per nesting level, ASCII-only strings (``\\uXXXX`` escapes), floats in
``repr`` form with ``NaN``/``Infinity``/``-Infinity``, and each object's keys
in the fixed order of its ``_Object``.
"""
from __future__ import annotations

import gc
import sys
from collections import defaultdict
from dataclasses import astuple, fields
from datetime import date as Date
from functools import cache, cached_property, partial
from itertools import chain, groupby, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

import click

from . import ingest, scoring
from .domain import FrameworkParams, TokenSeries
from .errors import ConfigError, DataError, NonMonotonicDates
from .ingest import HISTORY_HEADER
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

# each metric's and bucket's name, read once rather than through ``.value`` per item
_NAMES = {member: member.value for member in (*Metric, *ActionBucket)}


# --- serialization -------------------------------------------------------
#
# Each object of the two report schemas is stated once, as an ``_Object`` of
# its keys in order: its ``dict`` builds the object that ``report_to_dict`` and
# ``warn`` put in their documents, and its template writes it. The JSON writers
# emit exactly the bytes of ``json.dumps(doc, indent=2)``, whose encoder runs
# only in pure Python once ``indent`` is set. Each template has its
# indentation fixed; scalars are encoded by type, as ``json`` encodes them.
# Every array of objects (score tokens, flags, joint events, buckets) is
# rendered ``_BATCH`` items at a time by one core, ``_items``: one ``_encode``
# of all the batch's scalars, one more of all the items of its lists (a token's
# warnings, a metrics list), and one ``%`` on the items' templates joined. A
# warn object's template is its ``_Object``'s; a token's is the template of its
# shape (its role kind, and which of its volatility, concentration, fgi and
# window are present), composed once from the object templates, at most 32 of
# them. One loop, ``_document``, yields either file's text in pieces, in
# order: each literal of its top-level template, then the pieces of the next
# value as ``_DOCUMENTS`` states them, an object of scalars as one piece and an
# array one batch at a time. ``ingest.write_files`` writes the pieces as they
# come, so no whole text of either file is built.

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
    """An object of fixed keys at nesting ``depth``, the one statement of
    them: ``dict(*values)`` builds it from its values in key order, and its
    template writes it, one ``%s`` per value."""

    def __init__(self, depth: int, *keys: str):
        pad = "  " * (depth + 1)
        self.keys = keys
        # ``obj``'s values in key order (``itemgetter`` of one key returns the bare value)
        self.values = itemgetter(*keys) if len(keys) > 1 else lambda obj: (obj[keys[0]],)
        self.template = ("{\n" + ",\n".join(f"{pad}{encode_basestring_ascii(k)}: %s" for k in keys)
                         + "\n" + "  " * depth + "}")

    def scalars(self, obj: dict | None) -> tuple[str]:
        """``obj`` as one piece, when every value is a scalar; ``null`` for None."""
        return ("null" if obj is None else self.template % tuple(_encode(self.values(obj))),)

    @cached_property
    def dict(self):
        """``dict(*values)``: a dict display compiled from the key list on first
        use (not at import), as ``namedtuple`` compiles its ``__new__``, so a
        call costs what the written-out literal costs. The keys are the
        constants below, never input."""
        names = [f"v{i}" for i in range(len(self.keys))]
        return eval(f"lambda {', '.join(names)}: {{"
                    + ", ".join(f"{key!r}: {name}" for key, name in zip(self.keys, names)) + "}")


_SCORE = _Object(0, "params", "window", "tokens", "warnings")
_SCORE_PARAMS = _Object(1, *(f.name for f in fields(FrameworkParams)))
_REPORT_WINDOW = _Object(1, "start", "end")
_TOKEN = _Object(2, "id", "role", "vds", "wds", "sas", "raw", "inputs", "window", "warnings")
_STANDALONE = _Object(3, "kind")
_HOSTED = _Object(3, "kind", "base")
_RAW = _Object(3, *(m.value for m in Metric))  # one key per score, in ``Metric`` order
_INPUTS = _Object(3, "volatility", "concentration", "fgi")
_TOKEN_WINDOW = _Object(3, *_REPORT_WINDOW.keys)
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


def _window(window: tuple[Date, Date] | None) -> dict | None:
    return None if window is None else _REPORT_WINDOW.dict(*map(Date.isoformat, window))


def _token_entry(t: TokenReport) -> dict:
    inputs, vds, wds, sas = t.inputs, t.vds, t.wds, t.sas
    role, volatility, concentration, fgi = inputs.role, inputs.volatility, inputs.concentration, inputs.fgi
    return _TOKEN.dict(
        t.token_id,
        _STANDALONE.dict("standalone") if role.is_standalone else _HOSTED.dict("hosted", role.base),
        None if vds is None else round(vds, 3),
        None if wds is None else round(wds, 3),
        None if sas is None else round(sas, 3),
        _RAW.dict(vds, wds, sas),
        _INPUTS.dict(
            None if volatility is None else _VOLATILITY.dict(
                round(volatility.avg_vol * 100, 2), round(volatility.max_vol * 100, 2),
                volatility.max_volume, volatility.max_mcap),
            None if concentration is None else _CONCENTRATION.dict(
                round(concentration.c * 100, 2), concentration.h, concentration.n_internal),
            None if fgi is None else _FGI.dict(
                fgi.f_bar, fgi.f_max, fgi.f_min, fgi.r_f, round(fgi.q_g * 100, 2),
                round(fgi.q_f * 100, 2), fgi.delta_f_max, round(fgi.delta_p_max * 100, 2)),
        ),
        _window(inputs.window),
        list(t.warnings),
    )


def report_to_dict(report: FragilityReport) -> dict:
    return _SCORE.dict(_SCORE_PARAMS.dict(*astuple(report.params)), _window(report.window),
                       [_token_entry(t) for t in report.tokens], list(report.warnings))


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


def _brackets(depth: int) -> tuple[str, str, str]:
    """An array's opening, separator and closing at nesting ``depth``."""
    pad = "  " * (depth + 1)
    return "[\n" + pad, ",\n" + pad, "\n" + "  " * depth + "]"


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


_BATCH = 64  # items of an array at nesting 1 (score tokens, warn objects) rendered at a time
_OPENING, _SEPARATOR, _CLOSING = _brackets(1)
_LIST_OPENING, _LIST_SEPARATOR, _LIST_CLOSING = _brackets(3)  # a list within an item


def _pieces(render, items: list) -> Iterator[str]:
    """An array at nesting 1 of ``items``, in pieces: between its brackets,
    ``render`` of each ``_BATCH`` items in turn, which joins them with
    ``_SEPARATOR``."""
    if not items:
        yield "[]"
        return
    for start in range(0, len(items), _BATCH):
        yield _SEPARATOR if start else _OPENING
        yield render(items[start:start + _BATCH])
    yield _CLOSING


def _items(templates: Iterable[str], values: list, at: Iterable[int]) -> str:
    """Array items at nesting 2, joined with ``_SEPARATOR``. ``values`` fill
    the ``%s`` of ``templates`` in order: scalars, and at each index in ``at``
    a list of scalars (a token's warnings, a metrics list). One ``_encode`` of
    all the scalars, one more of all the lists' items, each list's array put
    back in its place, and one ``%`` on the joined templates."""
    lists = [values[i] for i in at]
    for i in at:
        values[i] = None  # a scalar in the list's place
    texts = _encode(values)
    listed = iter(_encode(chain.from_iterable(lists)))
    for i, n in zip(at, map(len, lists)):
        texts[i] = (_LIST_OPENING + _LIST_SEPARATOR.join(islice(listed, n)) + _LIST_CLOSING
                    if n else "[]")
    return _SEPARATOR.join(templates) % tuple(texts)


def _tokens_json(tokens: list[dict]) -> str:
    """Token entries, each on the template of its shape."""
    templates, values, at = [], [], []
    for t in tokens:
        role, inputs = t["role"], t["inputs"]
        sections = (inputs["volatility"], inputs["concentration"], inputs["fgi"], t["window"])
        role_object = _HOSTED if "base" in role else _STANDALONE
        templates.append(_token_template(role_object, *(s is not None for s in sections)))
        values += (t["id"], *role_object.values(role), t["vds"], t["wds"], t["sas"],
                   *_RAW.values(t["raw"]))
        for section, obj in zip(sections, _SECTIONS):
            if section is not None:
                values += obj.values(section)
        at.append(len(values))
        values.append(t["warnings"])
    return _items(templates, values, at)


def _objects(obj: _Object, items: list[dict]) -> str:
    """``obj`` items, their values gathered in key order; a key that holds a
    list in the first item holds one in every item."""
    width = len(obj.keys)
    values = list(chain.from_iterable(map(obj.values, items)))
    keys = [k for k, value in enumerate(values[:width]) if type(value) is list]
    return _items(repeat(obj.template, len(items)), values,
                  [i for k in keys for i in range(k, len(values), width)])


def _strings_json(strings: list[str]) -> str:
    return _SEPARATOR.join(_encode(strings))


_DOCUMENTS = {  # by top-level keys: the document's object, and each value's pieces in key order
    _SCORE.keys: (_SCORE, (_SCORE_PARAMS.scalars, _REPORT_WINDOW.scalars, partial(_pieces, _tokens_json),
                           partial(_pieces, _strings_json))),
    _WARN.keys: (_WARN, (_WARN_PARAMS.scalars, partial(_pieces, _strings_json),
                         partial(_pieces, partial(_objects, _FLAG)),
                         partial(_pieces, partial(_objects, _JOINT_EVENT)),
                         partial(_pieces, partial(_objects, _BUCKET)))),
}


def _document(obj: _Object, parts: tuple, doc: dict) -> Iterator[str]:
    """``doc`` in pieces: the literals of ``obj``'s template, each followed by
    the pieces of the next value."""
    literals = (obj.template + "\n").split("%s")
    for literal, pieces, value in zip(literals, parts, doc.values()):
        yield literal
        yield from pieces(value)
    yield literals[-1]


def _dumps(doc: dict) -> Iterator[str]:
    """``doc`` as ``json.dumps(doc, indent=2)`` writes it, plus a newline, as
    text pieces in order: their concatenation is that text.

    ``doc`` is a ``score`` or a ``warn`` document, told apart by its
    top-level keys; any other raises ``TypeError`` here, while an unencodable
    value raises it as its piece is made.
    """
    document = _DOCUMENTS.get(tuple(doc))
    if document is None:
        raise TypeError(f"no JSON writer for a document with keys {list(doc)}")
    return _document(*document, doc)


def bars_to_csv(series: TokenSeries) -> str:
    lines = [",".join(ingest.BARS_HEADER)]
    for day, high, low, close, volume, mcap in zip(
        series.dates, series.high, series.low, series.close,
        series.volume_usd, series.market_cap_usd,
    ):
        lines.append(f"{day.isoformat()},{high},{low},{close},{volume},{mcap}")
    return "\n".join(lines) + "\n"


# --- commands ----------------------------------------------------------------

def _execute(action) -> None:
    """Run a command under the exit-code contract, with the cyclic garbage
    collector paused: a command makes next to no reference cycles, so the
    collector's passes over its many live values cost time and free nothing.
    On every exit the caller's state comes back, and where the collector was
    on, one full collection frees what the command left."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        action()
    except (ConfigError, DataError) as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(2 if isinstance(exc, ConfigError) else 3)
    except Exception as exc:  # the exit-code contract holds for defects too
        click.echo(f"internal error: {type(exc).__name__}: {exc}", err=True)
        sys.exit(4)
    finally:
        if collecting:
            gc.enable()
            gc.collect()


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
        if not wanted:
            raise ConfigError(f"--format {formats!r} names no output format; "
                              "choose from json, table, chart")
        params = FrameworkParams(**{name: v for name, v in overrides.items() if v is not None})
        # One copy of the report at a time: each stage's input is dropped once its
        # last reader is done (the report's tokens hold their inputs, so no local
        # keeps load_universe's result). Those inputs are summaries: load_universe
        # reduces each token's bars and sentiment as it reads them, so no daily
        # row outlives its token's load. The document lives on in report.json's
        # pieces, which are rendered as they are written.
        report = scoring.score_universe(
            scoring.build_context(ingest.load_universe(universe_path, params), params))
        table = report_table(report) if "table" in wanted else None
        scored = len(report.tokens)
        doc = report_to_dict(report)
        del report
        files, notices, written = {}, [], []
        if "json" in wanted:
            files["report.json"] = _dumps(doc)
            written.append("report.json")
        if table is not None:
            files["report.txt"] = table
            written.append("report.txt")
        if "chart" in wanted:
            from .charts import chart_files  # here: it slows CLI start-up

            charts, notices = chart_files(doc)
            files |= charts
            written.append("charts")
        del doc
        out = ingest.write_files(out_dir, files, "--out")
        for notice in notices:
            click.echo(notice, err=True)
        click.echo(f"scored {scored} token(s) -> {out} ({', '.join(written)})", err=True)

    _execute(run)


def _is_score(value) -> bool:
    """A JSON number (not a bool) that ``ScorePoint``'s value rule accepts."""
    try:
        return type(value) in (int, float) and ScorePoint.rules[0].holds({"value": (value,)})
    except OverflowError:  # an integer beyond the float range
        return False


def _report_tokens(path: Path, doc: dict) -> list[dict]:
    """A report's token entries, checked for ``plot`` and ``warn`` alike.

    ``tokens`` must be a list of objects, each with a string ``id`` that
    keeps the token-id rule and no earlier entry holds; every score, at the
    top level or under ``raw``, must be null or a finite JSON number >= 0.
    """
    tokens = doc.get("tokens", [])
    if not isinstance(tokens, list):
        raise DataError(f"{path}: 'tokens' must be a list of token objects")
    ids = set()
    for number, t in enumerate(tokens, start=1):
        if not isinstance(t, dict) or not isinstance(t.get("id"), str):
            raise DataError(f"{path}: token entry {number} needs a string 'id'")
        if t["id"] in ids:
            raise DataError(f"{path}: token entry {number} repeats the id {t['id']!r}")
        ids.add(t["id"])
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
    if fault := ingest.token_id_fault([t["id"] for t in tokens]):
        raise DataError(f"{path}: {fault}")
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


def _flag_stages(series: dict[tuple[str, Metric], ScoreSeries], window_days: int,
                 threshold: float, x_days: int) -> tuple[list, list, list]:
    """The flags, joint events and buckets of every series in ``series``, which
    is emptied: each series is dropped once it is flagged. Series run in
    (token, metric) order and each stage returns date-ordered lists per token,
    so every list is already in its output order."""
    flags, events, buckets = [], [], []
    for _, group in groupby(sorted(series), key=itemgetter(0)):
        token_flags = {metric: rolling_flags(series.pop((token, metric)), window_days, threshold)
                       for token, metric in group}
        flags.extend(f for metric_flags in token_flags.values() for f in metric_flags)
        events.extend(joint_spike(token_flags, x_days))
        buckets.extend(assign_buckets(token_flags, x_days))
    return flags, events, buckets


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

        def repeated(key, day, later, earlier) -> NonMonotonicDates:
            return NonMonotonicDates(
                f"{later}: {key[0]} {key[1].value}: duplicate date {day}, also in {earlier}")

        series = {}
        if history_path is not None:
            series = {(s.token_id, s.metric): s for s in ingest.load_history_csv(history_path)}
        added = defaultdict(dict)  # each (token, metric)'s report scores: {day: (score, report)}
        for rp in report_paths:
            for key, (day, score) in _load_report_scores(Path(rp)):
                if day in added[key]:
                    raise repeated(key, day, rp, added[key][day][1])
                added[key][day] = score, rp
        for key, scores in added.items():
            points = [(day, score) for day, (score, _) in scores.items()]
            if key in series:
                points += zip(series[key].dates, series[key].value)
            try:
                series[key] = ScoreSeries.from_columns(*key, *zip(*sorted(points)))
            except NonMonotonicDates:  # a report's day is in the history too
                day = next(day for day in series[key].dates if day in scores)
                raise repeated(key, day, scores[day][1], f"--history {history_path}") from None
        flags, events, buckets = _flag_stages(series, window_days, threshold, x_days)
        doc = _WARN.dict(
            _WARN_PARAMS.dict(window_days, threshold, x_days),
            [],
            [_FLAG.dict(f.token_id, _NAMES[f.metric], f.date.isoformat(), f.value,
                        f.window_percentile) for f in flags],
            [_JOINT_EVENT.dict(e.token_id, e.date.isoformat(), [_NAMES[m] for m in e.metrics])
             for e in events],
            [_BUCKET.dict(b.token_id, b.date.isoformat(), _NAMES[b.bucket],
                          [_NAMES[m] for m in b.metrics]) for b in buckets],
        )
        # as in score, one copy at a time: the stages' objects go once the document
        # holds them, and the document, rendered as it is written, goes with its
        # last piece (before the rename), since only the pieces' generator holds it
        summary = f"{len(flags)} flag(s), {len(events)} joint event(s)"
        del flags, events, buckets
        files = {"warnings.json": _dumps(doc)}
        del doc
        out = ingest.write_files(out_dir, files, "--out")
        click.echo(f"{summary} -> {out / 'warnings.json'}", err=True)

    _execute(run)


@main.command()
@click.option("--report", "report_path", required=True, type=click.Path(), help="report.json to plot")
@click.option("--out", "out_dir", default="me2f_out", show_default=True, type=click.Path())
def plot(report_path, out_dir):
    """Render descending bar charts (SVG + CSV sidecar) from a report."""

    def run():
        from .charts import chart_files  # here: it slows CLI start-up

        path = Path(report_path)
        doc = ingest.read_json_object(path, str(path), DataError)
        _report_tokens(path, doc)
        files, notices = chart_files(doc)
        out = ingest.write_files(out_dir, files, "--out")
        for notice in notices:
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
        from . import remote  # here: it slows CLI start-up

        try:
            start, end = ingest.iso_days([start_raw, end_raw])
        except ValueError:
            raise ConfigError(f"--start {start_raw!r} and --end {end_raw!r} must be YYYY-MM-DD") from None
        if end < start:  # before --out makes any directory; fetch_daily checks it for library callers
            raise ConfigError(f"date range {start}..{end} is inverted")
        provider = remote.load_provider_config(provider_path)
        remote._check_cache_name("token", token_id)  # before --out makes any directory
        if out_path:  # before any request
            if Path(out_path).is_dir():
                raise ConfigError(f"--out {out_path} is a directory")
            ingest.write_files(Path(out_path).parent, {}, "--out")
        client = remote.MarketDataClient(provider, cache_dir)
        series = client.fetch_daily(token_id, start, end)
        if out_path:
            ingest.write_files(Path(out_path).parent, {Path(out_path).name: bars_to_csv(series)}, "--out")
            click.echo(f"{len(series.dates)} bar(s) -> {out_path}", err=True)
        else:
            click.echo(f"{len(series.dates)} bar(s) cached for {token_id}", err=True)

    _execute(run)


if __name__ == "__main__":
    main()
