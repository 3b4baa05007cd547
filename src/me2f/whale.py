"""Whale Dominance Score (WDS).

WDS = C * N where C is the cumulative share of the top-n addresses and N
rescales the Herfindahl-Hirschman index of those shares onto [0, 1]
(0 = perfectly equal top-n holdings, 1 = a single dominant holder).
"""
from __future__ import annotations

import math

from .domain import Checked, HolderSnapshot, Rule, finite_in, value_type
from .errors import ConfigError, InvalidSummary


@value_type
class ConcentrationResult(Checked):
    """One token's top-n concentration: share sum ``c``, Herfindahl index ``h``,
    its rescaling ``n_internal`` onto [0, 1], and ``wds = c * n_internal``."""

    token_id: str
    c: float
    h: float
    n_internal: float
    wds: float

    rules = (
        Rule("c", finite_in("c", 0, 1), InvalidSummary, "{token_id}: c={c} outside [0, 1]"),
        Rule("n_internal", finite_in("n_internal", 0, 1), InvalidSummary,
             "{token_id}: n_internal={n_internal} outside [0, 1]"),
    )


def concentration(snapshot: HolderSnapshot, n: int) -> ConcentrationResult:
    """Full concentration profile over the top-n shares of a snapshot.

    c is their sum (dust above 1 clamped), h the sum of their squares and
    n_internal = ((h / c^2) - 1/n) / (1 - 1/n); an all-zero snapshot is 0.

    h / c^2 is summed as the squares of the shares divided by c, so tiny
    shares cannot underflow c^2 to zero, and with ``math.fsum`` it stays
    within a few ulp of the exact rational value. Equal shares take the
    exact ratio 1/k, so an equal distribution over all n slots yields
    exactly 0 and a single holder exactly 1. Snapshots longer than n are
    truncated to their top n entries.
    """
    if n < 2:
        raise ConfigError(f"n={n} must be >= 2")
    shares = snapshot.shares[:n]
    total = math.fsum(shares)
    if total == 0:  # exact: shares are >= 0 and fsum rounds correctly
        return ConcentrationResult(snapshot.token_id, 0.0, 0.0, 0.0, 0.0)
    c = 1.0 if total > 1.0 else total
    h = math.fsum(s * s for s in shares)
    if shares[0] == shares[-1]:  # descending, so all equal
        ratio = 1.0 / len(shares)
    else:
        ratio = math.fsum((s / total) ** 2 for s in shares)
    n_internal = min(1.0, max(0.0, (ratio - 1.0 / n) / (1.0 - 1.0 / n)))
    return ConcentrationResult(snapshot.token_id, c, h, n_internal, c * n_internal)


def wds(snapshot: HolderSnapshot, n: int) -> float:
    """Whale dominance score; 0 for empty or all-zero snapshots."""
    return concentration(snapshot, n).wds
