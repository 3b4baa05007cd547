"""Universe-level scoring: context construction and report assembly.

Tokens enter either as raw series (bars, sentiment points, holder
snapshots) or as pre-aggregated summaries; both are first-class. Scoring
is batch-oriented: one token's failure becomes a report warning instead
of aborting the universe.
"""
from __future__ import annotations

from dataclasses import dataclass
from datetime import date as Date
from typing import Mapping

from . import sentiment as sent
from . import volatility as vol
from . import whale
from .domain import (
    ChainRole,
    FrameworkParams,
    HolderSnapshot,
    SentimentSeries,
    TokenSeries,
)
from .errors import EmptyUniverse, Me2fError, MissingBaseChain


@dataclass(frozen=True)
class TokenInputs:
    """Everything supplied for one token; unset inputs disable the
    corresponding score."""

    role: ChainRole
    series: TokenSeries | None = None
    volatility: vol.VolatilityAggregate | None = None
    holders: HolderSnapshot | None = None
    sentiment: SentimentSeries | None = None
    fgi: sent.FgiIndicators | None = None


@dataclass(frozen=True)
class TokenMember:
    """Resolved per-token inputs after aggregation and validation."""

    token_id: str
    role: ChainRole
    volatility: vol.VolatilityAggregate | None
    holders: HolderSnapshot | None
    fgi: sent.FgiIndicators | None
    window: tuple[Date, Date] | None


@dataclass(frozen=True)
class ScoringContext:
    params: FrameworkParams
    members: dict[str, TokenMember]
    sent_maxima: sent.SentimentMaxima | None


@dataclass(frozen=True)
class TokenReport:
    token_id: str
    role: ChainRole
    vds: float | None
    wds: float | None
    sas: float | None
    volatility: vol.VolatilityAggregate | None
    concentration: whale.ConcentrationResult | None
    fgi: sent.FgiIndicators | None
    window: tuple[Date, Date] | None
    warnings: tuple[str, ...] = ()


@dataclass(frozen=True)
class FragilityReport:
    params: FrameworkParams
    tokens: tuple[TokenReport, ...]
    window: tuple[Date, Date] | None
    warnings: tuple[str, ...] = ()


def build_context(
    inputs: Mapping[str, TokenInputs], params: FrameworkParams
) -> ScoringContext:
    """Validate a universe and compute its cross-sectional sentiment maxima.

    Raw series are aggregated here (volatility via ``params.scale_unit``,
    sentiment into FGI indicators); hosted tokens must name a standalone
    base that is present in the universe.
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

    members: dict[str, TokenMember] = {}
    for token_id, ti in sorted(inputs.items()):
        aggregate = ti.volatility
        window = None
        if ti.series is not None:
            window = ti.series.window()
            if aggregate is None:
                aggregate = vol.aggregate(ti.series, params.scale_unit)
        fgi = ti.fgi
        if ti.sentiment is not None:
            if window is None:
                window = ti.sentiment.window()
            if fgi is None:
                fgi = sent.fgi_indicators(ti.sentiment)
        members[token_id] = TokenMember(
            token_id=token_id,
            role=ti.role,
            volatility=aggregate,
            holders=ti.holders,
            fgi=fgi,
            window=window,
        )
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

        conc = None
        wds_value = None
        if member.holders is not None:
            try:
                conc = whale.concentration(member.holders, params.n)
                wds_value = conc.wds
            except Me2fError as exc:
                notes.append(f"wds failed: {exc}")

        sas_value = None
        if member.fgi is not None and ctx.sent_maxima is not None:
            try:
                u = sent.instability_index(member.fgi, ctx.sent_maxima)
                k = sent.shock_index(member.fgi, ctx.sent_maxima)
                sas_value = sent.sas(u, k, params.delta)
            except Me2fError as exc:
                notes.append(f"sas failed: {exc}")

        reports.append(
            TokenReport(
                token_id=token_id,
                role=member.role,
                vds=vds_value,
                wds=wds_value,
                sas=sas_value,
                volatility=member.volatility,
                concentration=conc,
                fgi=member.fgi,
                window=member.window,
                warnings=tuple(notes),
            )
        )

    # Display order: ascending VDS (the classic summary-table layout),
    # score-less tokens last, ties broken by id for determinism.
    reports.sort(key=lambda r: (r.vds is None, r.vds if r.vds is not None else 0.0, r.token_id))
    windows = [r.window for r in reports if r.window is not None]
    universe_window = None
    if windows:
        universe_window = (min(w[0] for w in windows), max(w[1] for w in windows))
    return FragilityReport(
        params=params,
        tokens=tuple(reports),
        window=universe_window,
        warnings=tuple(global_warnings),
    )
