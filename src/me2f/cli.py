"""Command-line surface: score, warn, plot, fetch; ``report`` owns the file formats.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
error. Diagnostics go to stderr; data goes to files, all of a command's at
once through ``ingest.write_files``: an output directory or file that cannot
be written exits 2 and leaves the files that were there.
"""
from __future__ import annotations

import gc
import sys
from collections import defaultdict
from pathlib import Path

import click

from . import ingest, scoring
from .domain import FrameworkParams
from .errors import ConfigError, DataError, NonMonotonicDates
from .report import (dumps as _dumps, load_report_scores, report_table, report_to_dict, report_tokens,
                     score_rows, warn_document)
from .warning import ScoreSeries, flag_stages


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

            charts, notices = chart_files(score_rows(doc))
            files |= charts
            written.append("charts")
        del doc
        out = ingest.write_files(out_dir, files, "--out")
        for notice in notices:
            click.echo(notice, err=True)
        click.echo(f"scored {scored} token(s) -> {out} ({', '.join(written)})", err=True)

    _execute(run)


@main.command()
@click.option("--history", "history_path", type=click.Path(), default=None,
              help=f"score history CSV ({','.join(ingest.HISTORY_HEADER)})")
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
            for key, (day, score) in load_report_scores(Path(rp)):
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
        flags, events, buckets = flag_stages(series, window_days, threshold, x_days)
        doc = warn_document(window_days, threshold, x_days, flags, events, buckets)
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
@click.option("--report", "report_path", required=True, type=click.Path(path_type=Path),
              help="report.json to plot")
@click.option("--out", "out_dir", default="me2f_out", show_default=True, type=click.Path())
def plot(report_path, out_dir):
    """Render descending bar charts (SVG + CSV sidecar) from a report."""

    def run():
        from .charts import chart_files  # here: it slows CLI start-up

        doc = ingest.read_json_object(report_path, str(report_path), DataError)
        report_tokens(report_path, doc)  # checked as warn checks them
        files, notices = chart_files(score_rows(doc))
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
            ingest.write_files(Path(out_path).parent, {Path(out_path).name: ingest.bars_to_csv(series)}, "--out")
            click.echo(f"{len(series.dates)} bar(s) -> {out_path}", err=True)
        else:
            click.echo(f"{len(series.dates)} bar(s) cached for {token_id}", err=True)

    _execute(run)


if __name__ == "__main__":
    main()
