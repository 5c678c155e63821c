"""One-excitation amplitude dynamics of an emitter and its pseudomode sector.

The amplitude vector (c1, one amplitude per mode) obeys a small
constant-coefficient linear ODE system built from a ``PseudomodeSector``.
Propagation is exact up to rounding, by matrix exponentials on the uniform
grid; an independent eigen-decomposition oracle provides the closed-form
solution for cross-checking. A trajectory carries the sector it was
propagated in: its labels, carrier frequency, generator and leak rates are
all read from that one description.

Everything is computed in the frame rotating at the emitter frequency, which
removes the fast common carrier so step sizes are set by the coupling, the
detuning and the decay rates alone. Restoring the carrier is an output step:
``AmplitudeTrajectory.lab_states`` multiplies the stored states by
exp(-i*omega0*t).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import expm

from .errors import IllConditioned, ToleranceNotMet
from .models import PseudomodeSector, TimeGrid

__all__ = [
    "AmplitudeTrajectory",
    "mode_generator",
    "propagate_sector",
    "closed_form_oracle",
    "expm_oracle",
    "norm_balance_residuals",
]

#: slack allowed on the unit-norm bound of initial amplitude vectors
NORM_SLACK = 1e-9


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Grid-sampled amplitude vectors of one pseudomode sector.

    ``states[k]`` is the amplitude vector at ``grid.times[k]``, ordered as in
    ``labels``: c1, then the modes of ``sector`` in order. ``generator`` is
    the constant matrix G with d(psi)/dt = G psi, so exact time derivatives
    can be evaluated without finite differencing. Both are in the frame
    rotating at ``omega0``.
    """

    grid: TimeGrid
    states: np.ndarray
    sector: PseudomodeSector

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=complex)
        n = self.sector.n_modes + 1
        if states.shape != (self.grid.n_steps, n):
            raise ValueError(
                f"states shape {states.shape} does not match grid length "
                f"{self.grid.n_steps} and {n} components"
            )
        object.__setattr__(self, "states", states)

    @property
    def labels(self) -> tuple[str, ...]:
        return ("c1",) + self.sector.labels

    @property
    def omega0(self) -> float:
        return self.sector.omega0

    @cached_property
    def generator(self) -> np.ndarray:
        return mode_generator(self.sector)

    @property
    def c1(self) -> np.ndarray:
        return self.states[:, 0]

    def component(self, label: str) -> np.ndarray:
        return self.states[:, self.labels.index(label)]

    def derivatives(self) -> np.ndarray:
        """Exact d(states)/dt evaluated from the generator at each grid point."""
        return self.states @ self.generator.T

    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    def lab_states(self) -> np.ndarray:
        """The states with the carrier phase exp(-i*omega0*t) restored on every component."""
        return self.states * np.exp(-1j * self.omega0 * self.grid.times)[:, None]


def mode_generator(sector: PseudomodeSector) -> np.ndarray:
    """Constant generator of the (c1, modes...) system, d(psi)/dt = G psi, rotating at omega0."""
    n = sector.n_modes + 1
    coeff = np.zeros((n, n), dtype=complex)
    coeff[0, 1:] = coeff[1:, 0] = sector.couplings
    coeff[1:, 1:] = sector.intermode
    for k, (frequency, leak) in enumerate(zip(sector.frequencies, sector.leak_rates), start=1):
        coeff[k, k] = frequency - sector.omega0 - 0.5j * leak
    return -1j * coeff


def _coerce_vector(initial, dim: int, what: str) -> np.ndarray:
    """``initial`` as a complex vector of ``dim`` finite entries, else ``ValueError``."""
    vec = np.asarray(initial, dtype=complex)
    if vec.shape != (dim,):
        raise ValueError(f"expected {what}, got shape {vec.shape}")
    # a NaN entry would pass every norm bound, since NaN comparisons are False
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"expected {what} with finite entries, got {vec}")
    return vec


def _coerce_state(initial, dim: int) -> np.ndarray:
    if initial is None:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return vec
    vec = _coerce_vector(initial, dim, f"{dim} amplitudes")
    norm = np.linalg.norm(vec)
    if norm > 1.0 + NORM_SLACK:
        raise ValueError(f"initial amplitude norm {norm} exceeds 1")
    return vec


def _propagate_constant(generator: np.ndarray, x0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Rows exp(G*(t_k - t_0)) @ x0 on the uniform ``grid``, filled by doubling.

    Rows [m, 2m) are rows [0, m) times exp(G*m*dt).T, each from its own
    ``expm``: squaring the previous one would double its rounding error.
    """
    if not np.all(np.isfinite(generator)):
        raise ValueError("generator entries must be finite")
    rows = np.empty((grid.n_steps, len(x0)), dtype=np.result_type(generator, x0))
    rows[0] = x0
    m = 1
    while m < len(rows):
        # expm overflows to inf with only a RuntimeWarning
        propagator = expm(generator * (m * grid.dt))
        if not np.all(np.isfinite(propagator)):
            raise ToleranceNotMet(f"propagator exp(G*t) at t={m * grid.dt:g} is not finite")
        rows[m : 2 * m] = rows[: min(m, len(rows) - m)] @ propagator.T
        m *= 2
    return rows


def propagate_sector(sector: PseudomodeSector, initial, grid: TimeGrid) -> AmplitudeTrajectory:
    """Propagate (c1, modes...) on ``grid`` in the rotating frame.

    ``initial`` is a sequence ordered (c1, then the modes in sector order),
    or None for the fully excited emitter with empty modes.
    """
    psi0 = _coerce_state(initial, sector.n_modes + 1)
    states = _propagate_constant(mode_generator(sector), psi0, grid)
    return AmplitudeTrajectory(grid, states, sector)


def closed_form_oracle(generator, initial, t, *, cond_limit: float = 1e6):
    """Closed-form solution exp(G t) @ initial via eigen-decomposition.

    Independent of the step propagator. ``t`` may be a scalar (returns one
    amplitude vector) or an array (returns one vector per row). Raises
    ``IllConditioned`` when the eigenvector matrix condition number exceeds
    ``cond_limit`` (degenerate poles); callers should then fall back to
    :func:`expm_oracle`. The error is about cond*eps; at an exceptional point
    cond is near 1/sqrt(eps) (6.7e7 to 2.3e8), well above the default.
    """
    gen = np.asarray(generator, dtype=complex)
    evals, evecs = np.linalg.eig(gen)
    cond = np.linalg.cond(evecs)
    if not np.isfinite(cond) or cond > cond_limit:
        raise IllConditioned(
            f"eigenvector condition number {cond:.3e} exceeds {cond_limit:.1e}"
        )
    coeff = np.linalg.solve(evecs, np.asarray(initial, dtype=complex))
    times = np.atleast_1d(np.asarray(t, dtype=float))
    out = (evecs @ (np.exp(np.outer(evals, times)) * coeff[:, None])).T
    return out[0] if np.ndim(t) == 0 else out


def expm_oracle(generator, initial, t):
    """Dense matrix-exponential solution by scaling and squaring.

    Slower than :func:`closed_form_oracle` but valid for defective
    generators (exceptional points).
    """
    gen = np.asarray(generator, dtype=complex)
    vec = np.asarray(initial, dtype=complex)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.stack([expm(gen * tk) @ vec for tk in times])
    return out[0] if np.ndim(t) == 0 else out


def norm_balance_residuals(traj: AmplitudeTrajectory) -> np.ndarray:
    """Per-interval defect of the norm balance.

    The total one-excitation norm can only drain through the leaking modes:
    d(sum |psi_i|^2)/dt = -sum_k rate_k |b_k|^2. Returns
    |(n_{k+1}-n_k)/dt + trapezoid(drain)| for every grid interval, with the
    leak rates of the trajectory's sector.
    """
    populations = traj.populations()
    total = populations.sum(axis=1)
    drain = populations @ np.array([0.0, *traj.sector.leak_rates])
    dt = traj.grid.dt
    return np.abs(np.diff(total) / dt + 0.5 * (drain[1:] + drain[:-1]))
