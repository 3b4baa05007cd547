"""Measurement process of the me2f benchmark.

``run.py`` starts this file in a fresh interpreter once per run, so that the
process's peak RSS belongs to one workload. It runs ``me2f score`` or
``me2f warn`` in-process through the click entry point, checks every
output, and prints one JSON object as the last line of stdout. Untraced
times are in reference seconds (see ``calibrate.py``).

In a traced run it also replaces the public module-level functions that the
commands call (``TRACED``) with wrappers that record nested spans in memory.
Nothing under ``src/`` is modified: the wrappers are bound in place of the
originals in every ``me2f`` module namespace that holds them.

Usage: python3 worker.py CONFIG_JSON   (the config is written by run.py)
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import math
import resource
import shutil
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
METRICS = ("vds", "wds", "sas")
BUCKETS = {"tighten_risk", "governance_watch", "standard_monitoring"}
THRESHOLD = 0.9  # matches the --threshold the warn-history workload passes
RAW_TOLERANCE = 1e-9  # absolute, per raw score, against the recorded reference
REFERENCE_TOKENS = 1000  # at most this many tokens' raw scores are recorded

TRACED = {
    "ingest": ("load_universe", "load_bars_csv", "load_sentiment_csv", "load_holders_csv",
               "load_volatility_table", "load_fgi_table", "load_history_csv"),
    "domain": ("validate_series",),
    "volatility": ("aggregate", "vds_from_normalized"),
    "sentiment": ("fgi_indicators",),
    "whale": ("concentration",),
    "scoring": ("build_context", "score_universe"),
    "warning": ("rolling_flags", "joint_spike", "assign_buckets"),
    "cli": ("report_to_dict", "report_table"),
}
ROOT_SPAN = "cli"  # the whole command, from argument parsing to files written
SPANS = {ROOT_SPAN} | {f"{mod}.{fn}" for mod, fns in TRACED.items() for fn in fns}
LOADERS = tuple(f"ingest.{fn}" for fn in TRACED["ingest"] if fn != "load_universe")
# Work counts read off a wrapped function's return value.
RESULT_COUNTS = {
    "ingest.load_bars_csv": ("ingest.rows", lambda r: len(r.bars)),
    "ingest.load_sentiment_csv": ("ingest.rows", lambda r: len(r.points)),
    "ingest.load_holders_csv": ("ingest.rows", lambda r: len(r.shares)),
    "ingest.load_volatility_table": ("ingest.rows", len),
    "ingest.load_fgi_table": ("ingest.rows", len),
    "ingest.load_history_csv": ("ingest.rows", len),
    "warning.rolling_flags": ("warning.flags", len),
    "warning.joint_spike": ("warning.joint_events", len),
    "warning.assign_buckets": ("warning.buckets", len),
}
OP_VALUES = {"ingest.rows", "ingest.us_per_row", "warning.flags", "warning.joint_events",
             "warning.buckets", "cli.output_bytes"}
OP_FIELDS = ("s", "self_s", "calls", "us_per_call")


# --- tracing ---------------------------------------------------------------

class Tracer:
    """Nested spans kept in memory as [name, parent index, start, end]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._bindings = self._find_bindings()

    def call(self, name, fn, *args, **kwargs):
        span = [name, self._open[-1] if self._open else -1, 0.0, 0.0]
        self._open.append(len(self.spans))
        self.spans.append(span)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._open.pop()

    def _wrap(self, name, fn):
        count = RESULT_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                self.counts[count[0]] += count[1](result)
            return result

        return traced

    def _find_bindings(self) -> list[tuple]:
        """(module, attribute, original, wrapper) wherever a me2f module holds
        a traced function, including names imported into other modules."""
        modules = [m for n, m in sys.modules.items() if n == "me2f" or n.startswith("me2f.")]
        bindings = []
        for mod_name, names in TRACED.items():
            home = importlib.import_module(f"me2f.{mod_name}")
            for fn_name in names:
                original = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in vars(module).items():
                        if value is original:
                            bindings.append((module, attr, original, wrapper))
        return bindings

    def bind(self, on: bool) -> None:
        for module, attr, original, wrapper in self._bindings:
            setattr(module, attr, wrapper if on else original)

    def summarize(self, first: int) -> dict[str, float]:
        """Per-name totals over the spans recorded since index ``first``."""
        covered = defaultdict(float)
        for _, parent, start, end in self.spans[first:]:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, start, end) in enumerate(self.spans[first:], start=first):
            out[f"{name}.s"] += end - start
            out[f"{name}.self_s"] += end - start - covered[i]
            out[f"{name}.calls"] += 1
        out.update(self.counts)
        rows = out.get("ingest.rows", 0)
        if rows:
            out["ingest.us_per_row"] = 1e6 * sum(out.get(f"{n}.s", 0.0) for n in LOADERS) / rows
        for name in SPANS:
            if out.get(f"{name}.calls"):
                out[f"{name}.us_per_call"] = 1e6 * out[f"{name}.s"] / out[f"{name}.calls"]
        return out


# --- output checks ---------------------------------------------------------

def check_score(out: Path, target: dict) -> list[str]:
    doc = json.loads((out / "report.json").read_text(encoding="utf-8"))
    problems = []
    ids = sorted(t["id"] for t in doc["tokens"])
    if ids != sorted(target["tokens"]):
        problems.append(f"report names {len(ids)} tokens, generated {len(target['tokens'])}")
    if doc["warnings"]:
        problems.append(f"report warnings: {doc['warnings'][:2]}")
    for t in doc["tokens"]:
        for metric in METRICS:
            if (t["raw"][metric] is not None) != (metric in target["scores"]):
                problems.append(f"{t['id']}: {metric} = {t['raw'][metric]!r}")
        if t["warnings"]:
            problems.append(f"{t['id']}: warnings {t['warnings'][:2]}")
        if len(problems) > 5:
            break
    table = (out / "report.txt").read_text(encoding="utf-8")
    if table.count("\n") < len(target["tokens"]) + 2:
        problems.append("report.txt does not list every token")
    return problems


def check_warn(out: Path, target: dict) -> list[str]:
    doc = json.loads((out / "warnings.json").read_text(encoding="utf-8"))
    problems = []
    flagged = {f["token"] for f in doc["flags"]}
    if flagged != set(target["tokens"]):
        problems.append(f"flags name {len(flagged)} tokens, generated {len(target['tokens'])}")
    bad = [f for f in doc["flags"] if f["metric"] not in METRICS or f["value"] < 0
           or not THRESHOLD <= f["window_percentile"] <= 1]
    if bad:
        problems.append(f"{len(bad)} malformed flag(s), e.g. {bad[0]}")
    bad = [e for e in doc["joint_events"] if e["token"] not in flagged
           or len(set(e["metrics"])) != 2 or not set(e["metrics"]) <= set(METRICS)]
    if bad:
        problems.append(f"{len(bad)} malformed joint event(s), e.g. {bad[0]}")
    bad = [b for b in doc["buckets"] if b["bucket"] not in BUCKETS or b["token"] not in flagged]
    if bad:
        problems.append(f"{len(bad)} malformed bucket(s), e.g. {bad[0]}")
    if doc["warnings"]:
        problems.append(f"report warnings: {doc['warnings'][:2]}")
    return problems


def warn_digest(doc: dict) -> str:
    """Digest of the warning content; the report envelope may change freely."""
    content = {key: doc[key] for key in ("flags", "joint_events", "buckets")}
    return hashlib.sha256(json.dumps(content, sort_keys=True).encode()).hexdigest()


def reference_of(kind: str, out: Path) -> dict:
    """The facts a later commit must reproduce for the same inputs.

    For a large universe only every n-th token (by id) is kept, at most
    REFERENCE_TOKENS of them, so that the recorded file stays small.
    """
    if kind == "warn":
        return {"warn_digest": warn_digest(json.loads((out / "warnings.json").read_text()))}
    tokens = sorted(json.loads((out / "report.json").read_text())["tokens"],
                    key=lambda t: t["id"])
    step = -(-len(tokens) // REFERENCE_TOKENS)
    return {"raw": {t["id"]: t["raw"] for t in tokens[::step]}}


def check_reference(kind: str, out: Path, expected: dict) -> list[str]:
    got = reference_of(kind, out)
    if kind == "warn":
        return [] if got == expected else ["warnings differ from the recorded reference"]
    problems = []
    if set(got["raw"]) != set(expected["raw"]):
        problems.append("tokens differ from the recorded reference")
    for tid, raw in expected["raw"].items():
        for metric, want in raw.items():
            have = got["raw"].get(tid, {}).get(metric)
            if (have is None) != (want is None) or (want is not None
                                                    and abs(have - want) > RAW_TOLERANCE):
                problems.append(f"{tid}.{metric}: {have!r} != reference {want!r}")
    return problems[:5]


def check_fixture(out: Path) -> list[str]:
    published = json.loads((HERE / "reference" / "published.json").read_text())
    tokens = {t["id"]: t["raw"] for t in json.loads((out / "report.json").read_text())["tokens"]}
    problems = []
    for metric in ("vds", "sas"):
        for tid, want in published[metric].items():
            have = tokens.get(tid, {}).get(metric)
            if (have is None) != (want is None) or (
                    want is not None and abs(have - want) > published["tolerance"]):
                problems.append(f"fixture {tid}.{metric}: {have!r}, published {want!r}")
    return problems


def digest_dir(out: Path) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        size += len(data)
        h.update(path.name.encode() + b"\0" + data)
    return h.hexdigest(), size


# --- operations --------------------------------------------------------------

class Session:
    """Runs and checks operations; counts attempts and failures."""

    def __init__(self, cli, work: Path):
        self.cli = cli
        self.work = work
        self.tracer: Tracer | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._verdicts: dict[tuple[str, str], list[str]] = {}

    def trace(self, tracer: Tracer | None) -> None:
        """Trace the following operations with ``tracer``, or stop tracing."""
        if self.tracer is not None:
            self.tracer.bind(False)
        self.tracer = tracer
        if tracer is not None:
            tracer.bind(True)

    def invoke(self, argv: list[str], out: Path) -> tuple[int | str, float, str]:
        """One CLI command; returns (exit code, seconds, captured stderr)."""
        args = [*argv, "--out", str(out)]
        err = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stderr(err):
                if self.tracer is None:
                    self.cli.main.main(args=args, prog_name="me2f")
                else:
                    self.tracer.call(ROOT_SPAN, self.cli.main.main, args=args, prog_name="me2f")
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
        except Exception as exc:  # an escaped traceback is a failed operation
            code = f"{type(exc).__name__}: {exc}"
        return code, time.perf_counter() - start, err.getvalue()

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
            del self.problems[5:]

    def op(self, target: dict, reference: dict | None = None) -> tuple[float, dict]:
        """Run the target's command once; check it unless identical output passed before.

        Output of every repetition must be byte-identical to the first one of
        the same target; the first one is checked in full.
        """
        out = self.work / "ops" / str(self.attempted)
        first_span = len(self.tracer.spans) if self.tracer else 0
        if self.tracer:
            self.tracer.counts.clear()
        code, seconds, err = self.invoke(target["argv"], out)
        summary = self.tracer.summarize(first_span) if self.tracer else {}
        problems = []
        if code != 0:
            problems.append(f"exit {code}: {err.strip()[-300:]}")
        else:
            try:
                digest, summary["cli.output_bytes"] = digest_dir(out)
                key = (target["name"], digest)
                if key not in self._verdicts:
                    seen = any(name == target["name"] for name, _ in self._verdicts)
                    check = check_warn if target["kind"] == "warn" else check_score
                    self._verdicts[key] = (
                        ["output differs from the first repetition"] if seen
                        else check(out, target)
                        + (check_reference(target["kind"], out, reference) if reference else [])
                    )
                problems = self._verdicts[key]
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
        shutil.rmtree(out, ignore_errors=True)
        self.record(problems)
        return seconds, summary

    def fixture(self) -> None:
        """Score the nine-token reference fixture against the published values."""
        out = self.work / "fixture"
        code, _, err = self.invoke(
            ["score", "--universe", str(HERE / "reference" / "universe.json"), "--format", "json"],
            out,
        )
        try:
            problems = check_fixture(out) if code == 0 else [f"fixture exit {code}: {err[-300:]}"]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problems = [f"unreadable fixture output: {type(exc).__name__}: {exc}"]
        shutil.rmtree(out, ignore_errors=True)
        self.record(problems)

    def repeat(self, target: dict, seconds: float) -> list[float]:
        """Operations back to back for ``seconds`` (at least one), in reference seconds.

        A calibration kernel runs between operations; each operation's wall
        time is scaled by the mean of the kernel times just before and after it.
        """
        times = []
        deadline = time.perf_counter() + seconds
        kernel_before = calibrate.timed()
        while not times or time.perf_counter() < deadline:
            seconds_, _ = self.op(target)
            kernel_after = calibrate.timed()
            times.append(calibrate.to_reference(seconds_, (kernel_before + kernel_after) / 2))
            kernel_before = kernel_after
        return times


# --- metrics -----------------------------------------------------------------

def _median(ops: list[tuple[float, dict]], key: str) -> float:
    return statistics.median(summary.get(key, 0.0) for _, summary in ops)


def layer_metrics(names: list[str], plain, traced, half, ratios: dict[str, float]) -> dict:
    """Per-layer values; a span that did not run on this workload reads 0."""
    metrics = {}
    for name in names:
        span, _, field = name.rpartition(".")
        if name == "trace.overhead_s":
            value = (statistics.median(s for s, _ in traced)
                     - statistics.median(s for s, _ in plain))
        elif name in OP_VALUES or (span in SPANS and field in OP_FIELDS):
            value = _median(traced, name)
        elif span in ratios and field == "growth":
            full, part = _median(traced, f"{span}.s"), _median(half, f"{span}.s")
            value = math.log(full / part) / math.log(ratios[span]) if full and part else 0.0
        else:
            raise ValueError(f"unknown per-layer metric {name!r}")
        metrics[name] = value
    return metrics


def main(config_path: str) -> None:
    cfg = json.loads(Path(config_path).read_text(encoding="utf-8"))
    src = Path(cfg["src"]).resolve()
    sys.path.insert(0, str(src))
    cli = importlib.import_module("me2f.cli")
    if src not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"me2f imported from {cli.__file__}, not from {src}")
    work = Path(cfg["work"])
    session = Session(cli, work)
    full = cfg["full"]
    session.fixture()
    session.op(full, cfg.get("reference"))  # warm-up, checked, not timed
    if not cfg["trace"]:
        calibrate.timed()  # warm-up
        run_s = statistics.median(session.repeat(full, cfg["seconds"]))
        result = {
            "run_s": run_s,
            "items_per_s": full["items"] / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    else:
        tracer = Tracer()
        plain, traced, half = [], [], []
        deadline = time.perf_counter() + cfg["seconds"]
        while not half or time.perf_counter() < deadline:
            # Interleaved, so that a drifting machine speed affects all three alike.
            plain.append(session.op(full))
            session.trace(tracer)
            traced.append(session.op(full))
            half.append(session.op(cfg["half"]))
            session.trace(None)
        result = layer_metrics(cfg["per_layer"], plain, traced, half, cfg["ratios"])
        Path(cfg["trace_file"]).write_text(
            json.dumps({"fields": ["name", "parent", "start", "end"],
                        "spans": tracer.spans}) + "\n",
            encoding="utf-8",
        )
    print(json.dumps({
        "attempted": session.attempted,
        "failed": session.failed,
        "problems": session.problems,
        "metrics": result,
    }))


if __name__ == "__main__":
    main(sys.argv[1])
