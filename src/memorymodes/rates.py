"""Time-local coefficient extraction and population-balance identities.

The exact emitter evolution is governed by two time-dependent coefficients:
a frequency shift and a decay rate, both defined through the logarithmic
derivative of the excited amplitude. The same coefficients can be written in
terms of the directly coupled mode amplitude, and the mode populations obey
exact balance identities that tie their compensated drain to the emitter
decay rate. All derivatives here come from the ODE right-hand side evaluated
at the stored states, never from finite differences, so the identities hold
to rounding for any stored trajectory, however it was propagated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amplitudes import ROTATING, AmplitudeTrajectory
from .errors import AllPointsInvalid
from .models import TimeGrid, TwoPseudomodeConstants

__all__ = [
    "VALIDITY_CUTOFF",
    "RateTrajectory",
    "MemoryIdentityReport",
    "rates_from_amplitudes",
    "rates_pseudomode_form",
    "memory_identity_single",
    "memory_identity_double",
    "intermode_memory_identity",
]

#: excited-population floor below which the defining quotient diverges
VALIDITY_CUTOFF = 1e-12


@dataclass(frozen=True)
class RateTrajectory:
    """Frequency-shift and decay-rate series extracted from amplitudes.

    ``s`` is the lab-frame shift (it contains the bare carrier contribution
    2*omega0); ``gamma`` is frame-independent. ``valid`` is False where the
    excited population fell below ``VALIDITY_CUTOFF``: the coefficients are
    genuinely undefined there and hold NaN instead of extrapolated values.
    """

    grid: TimeGrid
    s: np.ndarray
    gamma: np.ndarray
    valid: np.ndarray
    omega0: float = 0.0


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


def rates_from_amplitudes(traj: AmplitudeTrajectory) -> RateTrajectory:
    """Extract the decay rate -2 Re{c1'/c1} and shift -2 Im{c1'/c1}.

    The derivative is evaluated from the trajectory generator. For a
    rotating-frame trajectory the shift gets the carrier correction
    2*omega0 so the returned series is always the lab-frame one.
    """
    c1 = traj.c1
    dc1 = traj.derivatives()[:, 0]
    valid = _validity(c1)
    ratio = np.full(c1.shape, complex(np.nan, np.nan))
    np.divide(dc1, c1, out=ratio, where=valid)
    gamma = np.where(valid, -2.0 * ratio.real, np.nan)
    s = -2.0 * ratio.imag
    if traj.frame == ROTATING:
        s = s + 2.0 * traj.omega0
    s = np.where(valid, s, np.nan)
    return RateTrajectory(traj.grid, s, gamma, valid, traj.omega0)


def rates_pseudomode_form(traj: AmplitudeTrajectory, omega_coupling: float) -> RateTrajectory:
    """Coefficients re-expressed through the directly coupled mode amplitude.

    shift = 2*[omega0 + coupling*Re{c1 conj(mode)}/|c1|^2] and
    rate = 2*coupling*Im{c1 conj(mode)}/|c1|^2; both agree with
    :func:`rates_from_amplitudes` pointwise because the cross products are
    frame invariant.
    """
    c1 = traj.c1
    mode = traj.mode_amplitude
    valid = _validity(c1)
    population = np.abs(c1) ** 2
    cross = np.full(c1.shape, complex(np.nan, np.nan))
    np.divide(c1 * np.conj(mode), population, out=cross, where=valid)
    gamma = np.where(valid, 2.0 * omega_coupling * cross.imag, np.nan)
    s = np.where(valid, 2.0 * (traj.omega0 + omega_coupling * cross.real), np.nan)
    return RateTrajectory(traj.grid, s, gamma, valid, traj.omega0)


def _build_report(grid: TimeGrid, lhs, rhs, valid) -> MemoryIdentityReport:
    residual = np.abs(lhs - rhs)
    masked_rhs = np.where(valid, np.abs(rhs), np.nan)
    masked_res = np.where(valid, residual, np.nan)
    reference = float(np.nanmax(masked_rhs))
    worst = float(np.nanmax(masked_res))
    max_rel = worst / reference if reference > 0.0 else worst
    return MemoryIdentityReport(grid, lhs, rhs, residual, valid, max_rel)


def memory_identity_single(
    traj: AmplitudeTrajectory, gamma: float, rates: RateTrajectory
) -> MemoryIdentityReport:
    """Compensated mode drain versus decay rate times excited population.

    lhs: d|b1|^2/dt + gamma*|b1|^2 with the derivative taken from the ODE
    right-hand side. rhs: rate(t)*|c1(t)|^2. The two are equal for the exact
    dynamics; the report records the numerical defect. Points with invalid
    rates are excluded from the residual maximum.
    """
    index = traj.labels.index("b1")
    b1 = traj.states[:, index]
    db1 = traj.derivatives()[:, index]
    lhs = 2.0 * (db1 * np.conj(b1)).real + gamma * np.abs(b1) ** 2
    rhs = rates.gamma * np.abs(traj.c1) ** 2
    return _build_report(traj.grid, lhs, rhs, rates.valid)


def memory_identity_double(
    traj: AmplitudeTrajectory,
    constants: TwoPseudomodeConstants,
    rates: RateTrajectory,
) -> MemoryIdentityReport:
    """Two-mode generalization: total compensated drain of both modes."""
    derivs = traj.derivatives()
    lhs = np.zeros(traj.grid.n_steps)
    for label, rate in (("a1", constants.gamma_p1), ("a2", constants.gamma_p2)):
        index = traj.labels.index(label)
        amp = traj.states[:, index]
        lhs = lhs + 2.0 * (derivs[:, index] * np.conj(amp)).real + rate * np.abs(amp) ** 2
    rhs = rates.gamma * np.abs(traj.c1) ** 2
    return _build_report(traj.grid, lhs, rhs, rates.valid)


def intermode_memory_identity(
    traj: AmplitudeTrajectory, constants: TwoPseudomodeConstants
) -> MemoryIdentityReport:
    """Balance between the storage mode drain and the intermode exchange.

    lhs: d|a1|^2/dt + gamma_p1*|a1|^2. rhs: 2*v*Im{a2 conj(a1)}, the factored
    form that stays well defined at zeros of a2. Defined at every grid point.
    """
    i1 = traj.labels.index("a1")
    i2 = traj.labels.index("a2")
    a1 = traj.states[:, i1]
    a2 = traj.states[:, i2]
    da1 = traj.derivatives()[:, i1]
    lhs = 2.0 * (da1 * np.conj(a1)).real + constants.gamma_p1 * np.abs(a1) ** 2
    rhs = 2.0 * constants.v * (a2 * np.conj(a1)).imag
    valid = np.ones(traj.grid.n_steps, dtype=bool)
    return _build_report(traj.grid, lhs, rhs, valid)
