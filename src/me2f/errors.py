"""Exception taxonomy for the fragility scoring engine.

Two broad families matter to callers: ``ConfigError`` (bad universe layout,
bad parameters -- the run could never succeed) and ``DataError`` (the inputs
themselves are unusable). The CLI maps them to distinct exit codes.
"""
from __future__ import annotations


class Me2fError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(Me2fError):
    """Universe or parameter configuration is invalid."""


class DataError(Me2fError):
    """Input data violates a contract (file content, series invariants, ...)."""


# --- domain invariants -------------------------------------------------

class NonMonotonicDates(DataError):
    """Dates are not strictly increasing; message names the offending date."""


class NegativePrice(DataError):
    """A price field is non-positive or not finite."""


class LowAboveHigh(DataError):
    """A bar's low exceeds its high."""


class InvalidBar(DataError):
    """Volume or market cap is negative or not finite."""


class InvalidShares(DataError):
    """Holder shares are negative, unordered, or sum past 1 beyond tolerance."""


class InsufficientHistory(DataError):
    """A series is too short for the requested computation."""


class OutOfRange(DataError):
    """A sentiment value lies outside its admissible interval."""


class FgiOutOfRange(OutOfRange):
    """A fear-and-greed index value is outside [0, 100]."""


class InvalidSummary(DataError):
    """A per-token summary (volatility aggregate, FGI indicators,
    concentration) breaks its invariants."""


# --- volatility pipeline -----------------------------------------------

class ZeroPrevClose(DataError):
    """Previous close is zero/non-positive; range volatility is undefined."""


class DegenerateUniverse(DataError):
    """Cross-sectional normalization has no positive maximum."""


class NonPositiveScale(DataError):
    """Harmonic-mean scale needs strictly positive volume and market cap."""


class MissingBaseChain(ConfigError):
    """A hosted token's base chain is absent or not standalone."""


class EmptyUniverse(ConfigError):
    """The scoring universe contains no tokens."""


# --- sentiment pipeline ------------------------------------------------

class DegenerateMaxima(DataError):
    """No usable cross-sectional maximum for a sentiment indicator."""


# --- early warning -----------------------------------------------------

class WindowTooShort(ConfigError):
    """Rolling window must span at least 2 observations."""


# --- ingestion ---------------------------------------------------------

class SchemaMismatch(DataError):
    """CSV header does not match the expected schema."""


class EmptyFile(DataError):
    """Input file has no data rows."""


class MalformedRow(DataError):
    """A CSV row failed to parse or violates a row-level invariant.

    ``line`` is the physical line number in ``path`` (blank lines count).
    """

    def __init__(self, path, line: int, column: str, reason: str):
        super().__init__(f"{path}: line {line}, column {column!r}: {reason}")
        self.path = path
        self.line = line
        self.column = column
        self.reason = reason


class HttpError(DataError):
    """Provider returned a non-success HTTP status."""

    def __init__(self, status: int, body: str):
        super().__init__(f"HTTP {status}: {body[:200]}")
        self.status = status
        self.body = body


class ProviderUnreachable(DataError):
    """Provider could not be reached: the connection failed or timed out."""


class RateLimited(DataError):
    """Provider kept rejecting requests after the advertised backoff."""


class ParseError(DataError):
    """Provider response could not be mapped to daily bars."""


class PartialRange(DataError):
    """Provider response does not cover the full requested date range."""

    def __init__(self, token_id: str, missing):
        missing = list(missing)
        head = ", ".join(str(d) for d in missing[:10])
        more = f" (+{len(missing) - 10} more)" if len(missing) > 10 else ""
        super().__init__(f"{token_id}: missing {len(missing)} day(s): {head}{more}")
        self.token_id = token_id
        self.missing = missing
