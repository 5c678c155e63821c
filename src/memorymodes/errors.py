"""Exception and warning types shared across the package."""

from __future__ import annotations


class MemoryModesError(Exception):
    """Base class for every error raised by this package."""


class NonPhysical(MemoryModesError):
    """Parameter set lies outside the domain where the method is valid."""


class ToleranceNotMet(MemoryModesError):
    """The time-local solve missed its tolerance, or a propagator exp(G*t) overflowed."""


class IllConditioned(MemoryModesError):
    """Eigen-decomposition too close to singular; use the expm fallback."""


class SectorLeak(MemoryModesError):
    """Initial state has support outside the representable excitation sector."""


class RateGapTooWide(MemoryModesError):
    """Invalid rate points cannot be bridged by interpolation."""


class AllPointsInvalid(MemoryModesError):
    """The excited amplitude vanishes on the whole grid; no rates defined."""


class StepTooLarge(MemoryModesError):
    """A per-step jump probability exceeded the first-order accuracy bound."""


class InvalidRates(MemoryModesError):
    """The unraveling needs rate values at points flagged invalid."""


class GridMismatch(MemoryModesError):
    """Operands were sampled on different time grids."""


class ParseError(MemoryModesError):
    """Configuration file could not be parsed; carries every violation found."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class ConsistencyWarning(UserWarning):
    """Non-fatal mismatch between user parameters and a derived quantity."""
