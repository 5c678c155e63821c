"""Exception and warning types shared across the package."""

from __future__ import annotations


class MemoryModesError(Exception):
    """Base class for every error raised by this package."""


class NonPhysical(MemoryModesError):
    """Parameter set lies outside the domain where the method is valid."""


class ToleranceNotMet(MemoryModesError):
    """A propagator exp(G*t) is not finite (a growing generator overflowed)."""


class IllConditioned(MemoryModesError):
    """Eigen-decomposition too close to singular; use the expm fallback."""


class SectorLeak(MemoryModesError):
    """Initial state has support outside the representable excitation sector."""


class AllPointsInvalid(MemoryModesError):
    """The excited amplitude vanishes on the whole grid; no rates defined."""


class StepTooLarge(MemoryModesError):
    """A per-step jump probability exceeded the first-order accuracy bound."""


class InvalidRates(MemoryModesError):
    """The rate series cannot be integrated: a point is invalid or a step is unresolved.

    Both happen near a zero of the excited amplitude, where no time-local
    generator exists; the time-local route and the jump unraveling refuse.
    """


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
