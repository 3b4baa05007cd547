"""Universe-level scoring: context construction and report assembly.

A token enters as its summaries: a volatility aggregate, a holder
concentration and FGI indicators, each reduced from a raw file
(``ingest.load_universe`` reduces them as it reads them) or read from a
summary table, so a context holds no daily rows. Scoring is
batch-oriented: VDS is the one score that can fail per token (its
spillover can overflow), and its failure becomes a warning on that token
instead of aborting the universe. WDS and SAS raise nothing on validated
inputs.
"""
from __future__ import annotations

from datetime import date as Date
from typing import Mapping

from . import sentiment as sent
from . import volatility as vol
from . import whale
from .domain import ChainRole, FrameworkParams, Value, value_type
from .errors import EmptyUniverse, Me2fError, MissingBaseChain


@value_type
class TokenInputs(Value):
    """A token's role and summaries; an unset summary disables its score.
    ``window`` is the date span of the raw series they were reduced from."""

    role: ChainRole
    volatility: vol.VolatilityAggregate | None = None
    concentration: whale.ConcentrationResult | None = None
    fgi: sent.FgiIndicators | None = None
    window: tuple[Date, Date] | None = None


@value_type
class ScoringContext(Value):
    """A checked universe: its parameters, its members by token id, and the
    cross-sectional sentiment maxima (None without FGI inputs)."""

    params: FrameworkParams
    members: dict[str, TokenInputs]
    sent_maxima: sent.SentimentMaxima | None


@value_type
class TokenReport(Value):
    """One token's inputs and scores (None where an input is absent), with its warnings."""

    token_id: str
    inputs: TokenInputs
    vds: float | None
    wds: float | None
    sas: float | None
    warnings: tuple[str, ...] = ()


@value_type
class FragilityReport(Value):
    """A scored universe: the parameters, the token reports in display order, the
    date span of their inputs and the report-level warnings."""

    params: FrameworkParams
    tokens: tuple[TokenReport, ...]
    window: tuple[Date, Date] | None
    warnings: tuple[str, ...] = ()


def build_context(
    inputs: Mapping[str, TokenInputs], params: FrameworkParams
) -> ScoringContext:
    """Validate a universe and compute its cross-sectional sentiment maxima.

    Hosted tokens must name a standalone base that is present in the
    universe. The members are the inputs as given, in order of token id.
    """
    if not inputs:
        raise EmptyUniverse("scoring universe contains no tokens")
    for token_id, ti in inputs.items():
        if ti.role.is_standalone:
            continue
        base = ti.role.base
        if base not in inputs:
            raise MissingBaseChain(f"{token_id}: base chain {base!r} not in universe")
        if not inputs[base].role.is_standalone:
            raise MissingBaseChain(f"{token_id}: base chain {base!r} is itself hosted")

    members = dict(sorted(inputs.items()))
    fgis = [m.fgi for m in members.values() if m.fgi is not None]
    sent_maxima = sent.sentiment_maxima(fgis) if fgis else None
    return ScoringContext(params, members, sent_maxima)


def score_universe(ctx: ScoringContext) -> FragilityReport:
    """Score every member of the context into a fragility report.

    VDS/WDS/SAS are absent exactly when their required input is absent.
    Degenerate cross-sections (all-zero volatilities, dead sentiment
    indicators) degrade to zero scores plus a report-level warning.
    """
    params = ctx.params
    global_warnings: list[str] = []
    roles = {tid: m.role for tid, m in ctx.members.items()}
    aggregates = {
        tid: m.volatility for tid, m in ctx.members.items() if m.volatility is not None
    }

    normalized: dict[str, vol.NormalizedVolatility] | None = None
    if aggregates:
        try:
            normalized = vol.normalize_cross_section(aggregates.values())
        except Me2fError as exc:
            normalized = None
            global_warnings.append(f"degenerate volatility normalization: {exc}; VDS set to 0")

    if ctx.sent_maxima is not None:
        dead = ctx.sent_maxima.degenerate_components()
        if dead:
            global_warnings.append(
                "degenerate sentiment maxima (component scored 0): " + ", ".join(dead)
            )

    reports: list[TokenReport] = []
    for token_id, member in ctx.members.items():
        notes: list[str] = []
        vds_value = None
        if member.volatility is not None:
            if normalized is None:
                vds_value = 0.0
            else:
                try:
                    vds_value = vol.vds_from_normalized(token_id, aggregates, roles, normalized, params)
                except Me2fError as exc:
                    notes.append(f"vds failed: {exc}")

        wds_value = None if member.concentration is None else member.concentration.wds

        sas_value = None
        if member.fgi is not None and ctx.sent_maxima is not None:
            u = sent.instability_index(member.fgi, ctx.sent_maxima)
            k = sent.shock_index(member.fgi, ctx.sent_maxima)
            sas_value = sent.sas(u, k, params.delta)

        reports.append(TokenReport(token_id, member, vds_value, wds_value, sas_value, tuple(notes)))

    # Display order: ascending VDS (the classic summary-table layout),
    # score-less tokens last, ties broken by id for determinism.
    reports.sort(key=lambda r: (r.vds is None, r.vds if r.vds is not None else 0.0, r.token_id))
    windows = [w for w in (r.inputs.window for r in reports) if w is not None]
    universe_window = None
    if windows:
        universe_window = (min(w[0] for w in windows), max(w[1] for w in windows))
    return FragilityReport(
        params=params,
        tokens=tuple(reports),
        window=universe_window,
        warnings=tuple(global_warnings),
    )
