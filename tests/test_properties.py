"""Whole-pipeline relations: restating the same input another way leaves every
output byte where it was. Derandomized, so each run draws the same examples."""
from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import GOLDEN_DIR, write_date_major_history, write_tables_universe
from me2f.cli import main

PROPERTY_SETTINGS = settings(max_examples=25, derandomize=True, deadline=None)


def outputs(*args) -> dict[str, bytes]:
    """Run the CLI with ``args`` into a fresh directory; each file it wrote, by name."""
    with tempfile.TemporaryDirectory() as out:
        result = CliRunner().invoke(main, [*map(str, args), "--out", out])
        assert result.exit_code == 0, result.output
        return {path.name: path.read_bytes() for path in Path(out).iterdir()}


def score(universe: Path) -> dict[str, bytes]:
    return outputs("score", "--universe", universe, "--format", "json,table,chart")


def shuffle_rows(path: Path, rng) -> None:
    """Shuffle the data rows of the CSV file ``path``; the header stays first."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    rng.shuffle(rows)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


def shuffle_universe(universe: Path, rng) -> None:
    """Shuffle the rows of ``universe``'s volatility and FGI tables and its token entries."""
    doc = json.loads(universe.read_text(encoding="utf-8"))
    for key in ("volatility_table", "fgi_table"):
        shuffle_rows(universe.parent / doc[key], rng)
    rng.shuffle(doc.get("tokens", []))
    universe.write_text(json.dumps(doc), encoding="utf-8")


class TestRowOrder:
    """The order of table rows and of universe entries is not data."""

    @PROPERTY_SETTINGS
    @given(rng=st.randoms(use_true_random=False))
    def test_shuffled_golden_universe_gives_the_golden_outputs(self, rng):
        with tempfile.TemporaryDirectory() as work:
            universe = Path(shutil.copytree(GOLDEN_DIR, Path(work) / "u")) / "universe.json"
            shuffle_universe(universe, rng)
            assert score(universe) == {path.name: path.read_bytes()
                                       for path in (GOLDEN_DIR / "score").iterdir()}

    @PROPERTY_SETTINGS
    @given(tokens=st.integers(1, 30), seed=st.integers(0, 2**16),
           rng=st.randoms(use_true_random=False))
    def test_shuffled_tables_give_the_same_outputs(self, tokens, seed, rng):
        with tempfile.TemporaryDirectory() as work:
            universe = write_tables_universe(Path(work), tokens, seed)
            before = score(universe)
            shuffle_universe(universe, rng)
            assert score(universe) == before


class TestSplitHistory:
    """A day's scores read from a report are the same scores as in the history."""

    @PROPERTY_SETTINGS
    @given(tokens=st.integers(1, 3), window=st.integers(2, 12), more_days=st.integers(0, 30),
           seed=st.integers(0, 2**16), threshold=st.sampled_from([0.5, 0.6, 0.75, 0.9]),
           x_days=st.integers(0, 4))
    def test_last_day_as_a_report_gives_the_same_warnings(self, tokens, window, more_days, seed,
                                                          threshold, x_days):
        with tempfile.TemporaryDirectory() as work:
            history = write_date_major_history(Path(work) / "h.csv", tokens, window + more_days, seed)
            options = ("--window", window, "--threshold", threshold, "--x-days", x_days)
            whole = outputs("warn", "--history", history, *options)
            header, *rows = history.read_text(encoding="utf-8").splitlines()
            kept, last = rows[:-3 * tokens], [row.split(",") for row in rows[-3 * tokens:]]
            history.write_text("\n".join([header, *kept]) + "\n", encoding="utf-8")
            day = last[0][0]
            raw = {}
            for _, token, metric, value in last:
                raw.setdefault(token, {})[metric] = float(value)
            report = Path(work) / "report.json"
            report.write_text(json.dumps({
                "window": {"start": day, "end": day},
                "tokens": [{"id": token, "raw": scores} for token, scores in raw.items()],
            }), encoding="utf-8")
            assert outputs("warn", "--history", history, "--report", report, *options) == whole
