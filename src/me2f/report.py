"""The report formats, without click: report.json and report.txt from a
scored universe, warnings.json from flagged histories, and report.json's readers.

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

from dataclasses import astuple, fields
from datetime import date as Date
from functools import cache, cached_property, partial
from itertools import chain, islice, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator

from . import ingest
from .domain import FrameworkParams
from .errors import DataError
from .scoring import FragilityReport, TokenReport
from .warning import ActionBucket, Metric, ScorePoint

ABSENT = "—"  # rendered for missing scores in tabular output

# each metric's and bucket's name, read once rather than through ``.value`` per item
_NAMES = {member: member.value for member in (*Metric, *ActionBucket)}


# --- serialization -------------------------------------------------------
#
# Each object of the two report schemas is stated once, as an ``_Object`` of
# its keys in order: its ``dict`` builds the object that ``report_to_dict`` and
# ``warn_document`` put in their documents, and its template writes it. The
# JSON writers emit exactly the bytes of ``json.dumps(doc, indent=2)``, whose
# encoder runs only in pure Python once ``indent`` is set. Each template has its
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


def warn_document(window_days: int, threshold: float, x_days: int, flags, events, buckets) -> dict:
    """warnings.json's document of the flags, joint events and buckets of ``warning.flag_stages``."""
    return _WARN.dict(
        _WARN_PARAMS.dict(window_days, threshold, x_days),
        [],
        [_FLAG.dict(f.token_id, _NAMES[f.metric], f.date.isoformat(), f.value,
                    f.window_percentile) for f in flags],
        [_JOINT_EVENT.dict(e.token_id, e.date.isoformat(), [_NAMES[m] for m in e.metrics])
         for e in events],
        [_BUCKET.dict(b.token_id, b.date.isoformat(), _NAMES[b.bucket],
                      [_NAMES[m] for m in b.metrics]) for b in buckets],
    )


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


def dumps(doc: dict) -> Iterator[str]:
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


def _is_score(value) -> bool:
    """A JSON number (not a bool) that ``ScorePoint``'s value rule accepts."""
    try:
        return type(value) in (int, float) and ScorePoint.rules[0].holds({"value": (value,)})
    except OverflowError:  # an integer beyond the float range
        return False


def report_tokens(path: Path, doc: dict) -> list[dict]:
    """A report's token entries, checked for ``plot`` and ``warn`` alike.

    ``tokens`` must be a list of objects, each with a string ``id`` that
    keeps the token-id rule and no earlier entry holds; every score, at the
    top level or under ``raw``, must be null or a finite JSON number >= 0.
    """
    tokens = doc.get("tokens")
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


def score_rows(doc: dict) -> list[tuple]:
    """Each token entry's ``(id, vds, wds, sas)``, its displayed scores, None where absent."""
    return [(t["id"], *(t.get(metric.value) for metric in Metric)) for t in doc["tokens"]]


def load_report_scores(path: Path) -> Iterator[tuple[tuple[str, Metric], tuple[Date, float]]]:
    """Each score of a report.json as ``(token, metric), (day of its window's end, score)``."""
    doc = ingest.read_json_object(path, str(path), DataError)
    window = doc.get("window")
    if not isinstance(window, dict) or not window.get("end"):
        raise DataError(f"{path}: report has no window; cannot date its scores")
    try:
        (day,) = ingest.iso_days([window["end"]])
    except (TypeError, ValueError):
        raise DataError(f"{path}: window end {window['end']!r} is not a YYYY-MM-DD date") from None
    for t in report_tokens(path, doc):
        raw = t.get("raw", {})
        for metric in Metric:
            score = raw.get(metric.value, t.get(metric.value))
            if score is not None:
                yield (t["id"], metric), (day, float(score))
