"""Time-local coefficient extraction and population-balance identities.

The exact emitter evolution is governed by two time-dependent coefficients:
a frequency shift and a decay rate, both defined through the logarithmic
derivative of the excited amplitude; their integral (``RateTrajectory.integral``)
is the exponent of the time-local route and of the no-jump state of the jump
unraveling. The same coefficients can be written in terms of the mode
amplitudes weighted by their emitter couplings, and the mode populations obey
exact balance identities that tie their compensated drain to the emitter
decay rate. Couplings and leak rates are read from the sector each trajectory
carries. Trajectories are rotating-frame; the shift is returned in the lab
frame by adding the carrier term 2*omega0. All derivatives here come from
the ODE right-hand side evaluated at the stored states, never from finite
differences, so the identities hold to rounding for any stored trajectory,
however it was propagated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amplitudes import AmplitudeTrajectory
from .errors import AllPointsInvalid, GridMismatch, InvalidRates
from .models import PseudomodeSector, TimeGrid

__all__ = [
    "VALIDITY_CUTOFF",
    "RateTrajectory",
    "MemoryIdentityReport",
    "rates_from_amplitudes",
    "rates_pseudomode_form",
    "memory_identity_sector",
    "intermode_memory_identity",
]

#: excited-population floor below which the defining quotient diverges
VALIDITY_CUTOFF = 1e-12

#: largest end correction dt^2/12 |k'_j - k'_{j+1}| of a resolved step of the
#: rate integral; the presets stay below 6e-5 from 1000 to 16 000 points, and
#: the pole of the rate at a zero of c1 between grid points gives 11 or more
MAX_END_CORRECTION = 1e-3


@dataclass(frozen=True)
class RateTrajectory:
    """Frequency-shift and decay-rate series extracted from amplitudes.

    ``s`` is the lab-frame shift (it contains the bare carrier contribution
    2*omega0); ``gamma`` is frame-independent. ``valid`` is False where the
    excited population fell below ``VALIDITY_CUTOFF``: the coefficients are
    genuinely undefined there and hold NaN instead of extrapolated values.
    ``dgamma``/``ds`` are their exact slopes, NaN where invalid or unknown.
    """

    grid: TimeGrid
    s: np.ndarray
    gamma: np.ndarray
    valid: np.ndarray
    omega0: float
    dgamma: np.ndarray
    ds: np.ndarray

    def integral(self) -> np.ndarray:
        """K(t) on the grid, the integral from t_0 of k = gamma + i(S - 2*omega0).

        It sums per-step increments, each the end-corrected trapezoid
        dt/2 (k_j + k_{j+1}) + dt^2/12 (k'_j - k'_{j+1}), O(dt^4), with the exact
        slopes. ``InvalidRates`` names the first time where the series cannot be
        integrated: a rate point flagged invalid, or a step whose end correction
        is not finite or exceeds ``MAX_END_CORRECTION``. Computed anew on each call.
        """
        times = self.grid.times
        if not self.valid.all():
            first = int(np.argmin(self.valid))
            raise InvalidRates(
                f"rate series is invalid at t={times[first]:.6g}; the time-local "
                "generator needs finite coefficients on the whole grid"
            )
        dt = self.grid.dt
        rate = self.gamma + 1j * (self.s - 2.0 * self.omega0)
        slope = self.dgamma + 1j * self.ds
        correction = dt * dt / 12.0 * (slope[:-1] - slope[1:])
        # written so that a NaN correction counts as unresolved
        unresolved = ~(np.abs(correction) <= MAX_END_CORRECTION)
        if unresolved.any():
            k = int(np.argmax(unresolved))
            raise InvalidRates(
                f"the step from t={times[k]:.6g} to t={times[k + 1]:.6g} is not resolved: its "
                f"end correction {abs(correction[k]):.3g} is not within {MAX_END_CORRECTION:g}; "
                "the rate varies faster than the grid, as near a zero of the excited amplitude"
            )
        increments = 0.5 * dt * (rate[:-1] + rate[1:]) + correction
        return np.concatenate([[0.0], np.cumsum(increments)])


@dataclass(frozen=True)
class MemoryIdentityReport:
    """Pointwise comparison of a mode-population balance against its rate form.

    ``max_relative_residual`` is the largest |lhs - rhs| over valid points
    normalized by the largest valid |rhs|; when the reference side vanishes
    identically the absolute residual is reported instead.
    """

    grid: TimeGrid
    lhs: np.ndarray
    rhs: np.ndarray
    residual: np.ndarray
    valid: np.ndarray
    max_relative_residual: float


def _validity(c1: np.ndarray) -> np.ndarray:
    valid = np.abs(c1) ** 2 >= VALIDITY_CUTOFF
    if not valid.any():
        raise AllPointsInvalid("excited amplitude below cutoff on the whole grid")
    return valid


def _rate_slopes(
    traj: AmplitudeTrajectory, derivs: np.ndarray, valid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Exact (gamma', s') = -2 (Re r', Im r'), NaN where invalid, with r = c1'/c1.

    r' = (c1'' c1 - c1'^2) / c1^2, where c1'' = (G^2 x)_0 comes from the generator
    and ``derivs`` are the trajectory's derivatives.
    """
    c1 = traj.c1
    slope = np.full(c1.shape, complex(np.nan, np.nan))
    np.divide(derivs @ traj.generator[0] * c1 - derivs[:, 0] ** 2, c1 * c1, out=slope, where=valid)
    return -2.0 * slope.real, -2.0 * slope.imag


def rates_from_amplitudes(traj: AmplitudeTrajectory) -> RateTrajectory:
    """Extract the decay rate -2 Re{c1'/c1} and shift -2 Im{c1'/c1} + 2*omega0.

    The derivatives, and the slopes of both series, are evaluated from the
    trajectory generator. The carrier term 2*omega0 turns the rotating-frame
    shift into the lab-frame one.
    """
    c1 = traj.c1
    derivs = traj.derivatives()
    valid = _validity(c1)
    ratio = np.full(c1.shape, complex(np.nan, np.nan))
    np.divide(derivs[:, 0], c1, out=ratio, where=valid)
    gamma = np.where(valid, -2.0 * ratio.real, np.nan)
    s = np.where(valid, -2.0 * ratio.imag + 2.0 * traj.omega0, np.nan)
    slopes = _rate_slopes(traj, derivs, valid)
    return RateTrajectory(traj.grid, s, gamma, valid, traj.omega0, *slopes)


def rates_pseudomode_form(traj: AmplitudeTrajectory) -> RateTrajectory:
    """Coefficients re-expressed through the mode amplitudes of the trajectory's sector.

    With X = sum_k g_k c1 conj(b_k)/|c1|^2 over the emitter couplings g_k,
    shift = 2*(omega0 + Re X) and rate = 2*Im X; both agree with
    :func:`rates_from_amplitudes` pointwise because c1' = -i sum_k g_k b_k.
    """
    c1 = traj.c1
    valid = _validity(c1)
    population = np.abs(c1) ** 2
    cross = np.full(c1.shape, complex(np.nan, np.nan))
    coupled = np.conj(traj.states[:, 1:]) @ np.asarray(traj.sector.couplings, dtype=float)
    np.divide(c1 * coupled, population, out=cross, where=valid)
    gamma = np.where(valid, 2.0 * cross.imag, np.nan)
    s = np.where(valid, 2.0 * (traj.omega0 + cross.real), np.nan)
    slopes = _rate_slopes(traj, traj.derivatives(), valid)
    return RateTrajectory(traj.grid, s, gamma, valid, traj.omega0, *slopes)


def _build_report(grid: TimeGrid, lhs, rhs, valid) -> MemoryIdentityReport:
    residual = np.abs(lhs - rhs)
    masked_rhs = np.where(valid, np.abs(rhs), np.nan)
    masked_res = np.where(valid, residual, np.nan)
    reference = float(np.nanmax(masked_rhs))
    worst = float(np.nanmax(masked_res))
    max_rel = worst / reference if reference > 0.0 else worst
    return MemoryIdentityReport(grid, lhs, rhs, residual, valid, max_rel)


def memory_identity_sector(
    traj: AmplitudeTrajectory, rates: RateTrajectory
) -> MemoryIdentityReport:
    """Total compensated mode drain versus decay rate times excited population.

    lhs: sum_k (d|b_k|^2/dt + rate_k*|b_k|^2) over the modes of the
    trajectory's sector, with the derivatives taken from the ODE right-hand
    side. rhs: rate(t)*|c1(t)|^2. The two are equal for the exact dynamics;
    the report records the numerical defect. Points with invalid rates are
    excluded from the residual maximum; both share one grid, else ``GridMismatch``.
    """
    if rates.grid != traj.grid:
        raise GridMismatch(f"rates on {rates.grid} for a trajectory on {traj.grid}")
    derivs = traj.derivatives()
    lhs = np.zeros(traj.grid.n_steps)
    for index, rate in enumerate(traj.sector.leak_rates, start=1):
        amp = traj.states[:, index]
        lhs = lhs + 2.0 * (derivs[:, index] * np.conj(amp)).real + rate * np.abs(amp) ** 2
    rhs = rates.gamma * np.abs(traj.c1) ** 2
    return _build_report(traj.grid, lhs, rhs, rates.valid)


def _band_gap_pair(sector: PseudomodeSector) -> bool:
    """Whether ``sector`` is the band-gap pair: a storage mode fed only through the leaky one."""
    return sector.n_modes == 2 and sector.couplings[0] == 0.0


def intermode_memory_identity(traj: AmplitudeTrajectory) -> MemoryIdentityReport:
    """Balance between the first mode's drain and its exchange with the second.

    For a two-mode sector whose first mode couples only to the second (the
    band-gap pair): lhs d|a1|^2/dt + rate_1*|a1|^2, rhs 2*v*Im{a2 conj(a1)},
    the factored form that stays well defined at zeros of a2. Defined at
    every grid point.
    """
    sector = traj.sector
    if not _band_gap_pair(sector):
        raise ValueError(
            "the intermode identity needs two modes, the first uncoupled from the emitter"
        )
    a1 = traj.states[:, 1]
    a2 = traj.states[:, 2]
    da1 = traj.derivatives()[:, 1]
    lhs = 2.0 * (da1 * np.conj(a1)).real + sector.leak_rates[0] * np.abs(a1) ** 2
    rhs = 2.0 * sector.intermode[0][1] * (a2 * np.conj(a1)).imag
    return _build_report(traj.grid, lhs, rhs, np.ones(traj.grid.n_steps, dtype=bool))
