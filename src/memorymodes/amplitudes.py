"""One-excitation amplitude dynamics of the single- and two-mode systems.

The amplitude vectors obey small constant-coefficient linear ODE systems.
Propagation is exact up to rounding, by matrix exponentials on the uniform
grid; an independent eigen-decomposition oracle provides the closed-form
solution for cross-checking.

Everything is computed in the frame rotating at the emitter frequency, which
removes the fast common carrier so step sizes are set by the coupling, the
detuning and the decay rates alone. The carrier can be restored exactly from
the stored frequency and frame tag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.linalg import expm

from .errors import IllConditioned, ToleranceNotMet
from .models import (
    BandGapModel,
    LorentzianModel,
    TimeGrid,
    TwoPseudomodeConstants,
    derive_two_pseudomode_constants,
)

__all__ = [
    "ROTATING",
    "LAB",
    "AmplitudeState1",
    "AmplitudeState2",
    "AmplitudeTrajectory",
    "single_mode_generator",
    "double_mode_generator",
    "propagate_single",
    "propagate_double",
    "closed_form_oracle",
    "expm_oracle",
    "norm_balance_residuals",
]

ROTATING = "rotating"
LAB = "lab"

#: slack allowed on the unit-norm bound of initial amplitude vectors
NORM_SLACK = 1e-9


@dataclass(frozen=True)
class AmplitudeState1:
    """Amplitudes (excited emitter, mode photon) in the one-excitation sector."""

    c1: complex
    b1: complex = 0j

    def as_vector(self) -> np.ndarray:
        return np.array([self.c1, self.b1], dtype=complex)


@dataclass(frozen=True)
class AmplitudeState2:
    """Amplitudes (excited emitter, storage mode, leaky mode)."""

    c1: complex
    a1: complex = 0j
    a2: complex = 0j

    def as_vector(self) -> np.ndarray:
        return np.array([self.c1, self.a1, self.a2], dtype=complex)


@dataclass(frozen=True)
class AmplitudeTrajectory:
    """Grid-sampled amplitude vectors plus the generator that produced them.

    ``states[k]`` is the amplitude vector at ``grid.times[k]``, ordered as in
    ``labels``. ``generator`` is the constant matrix G with d(psi)/dt = G psi,
    kept so exact time derivatives can be evaluated without finite
    differencing. ``frame`` records whether the common carrier phase at
    ``omega0`` has been removed ("rotating") or retained ("lab").
    """

    grid: TimeGrid
    states: np.ndarray
    generator: np.ndarray
    labels: tuple[str, ...]
    frame: str
    omega0: float

    def __post_init__(self) -> None:
        states = np.asarray(self.states, dtype=complex)
        n = len(self.labels)
        if states.shape != (self.grid.n_steps, n):
            raise ValueError(
                f"states shape {states.shape} does not match grid length "
                f"{self.grid.n_steps} and {n} components"
            )
        if self.frame not in (ROTATING, LAB):
            raise ValueError(f"unknown frame tag {self.frame!r}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "generator", np.asarray(self.generator, dtype=complex))

    @property
    def c1(self) -> np.ndarray:
        return self.states[:, 0]

    @property
    def mode_amplitude(self) -> np.ndarray:
        """Amplitude of the mode the emitter couples to directly."""
        return self.states[:, -1]

    def component(self, label: str) -> np.ndarray:
        return self.states[:, self.labels.index(label)]

    def derivatives(self) -> np.ndarray:
        """Exact d(states)/dt evaluated from the generator at each grid point."""
        return self.states @ self.generator.T

    def populations(self) -> np.ndarray:
        return np.abs(self.states) ** 2

    def lab_frame(self) -> "AmplitudeTrajectory":
        """Restore the carrier phase exp(-i*omega0*t) on every component."""
        if self.frame == LAB:
            return self
        phase = np.exp(-1j * self.omega0 * self.grid.times)
        generator = self.generator - 1j * self.omega0 * np.eye(len(self.labels))
        return AmplitudeTrajectory(
            self.grid, self.states * phase[:, None], generator, self.labels, LAB, self.omega0
        )


def single_mode_generator(model: LorentzianModel, frame: str = ROTATING) -> np.ndarray:
    """Constant generator of the (c1, b1) system, d(psi)/dt = G psi."""
    coeff = np.array(
        [
            [0.0, model.omega_coupling],
            [model.omega_coupling, model.detuning - 0.5j * model.gamma],
        ],
        dtype=complex,
    )
    generator = -1j * coeff
    if frame == LAB:
        generator = generator - 1j * model.omega0 * np.eye(2)
    return generator


def double_mode_generator(
    model: BandGapModel,
    constants: TwoPseudomodeConstants | None = None,
    frame: str = ROTATING,
) -> np.ndarray:
    """Constant generator of the (c1, a1, a2) system, d(psi)/dt = G psi."""
    if constants is None:
        constants = derive_two_pseudomode_constants(model)
    delta = model.detuning
    coeff = np.array(
        [
            [0.0, 0.0, model.omega_coupling],
            [0.0, delta - 0.5j * constants.gamma_p1, constants.v],
            [model.omega_coupling, constants.v, delta - 0.5j * constants.gamma_p2],
        ],
        dtype=complex,
    )
    generator = -1j * coeff
    if frame == LAB:
        generator = generator - 1j * model.omega0 * np.eye(3)
    return generator


def _coerce_state(initial, dim: int) -> np.ndarray:
    if initial is None:
        vec = np.zeros(dim, dtype=complex)
        vec[0] = 1.0
        return vec
    if isinstance(initial, (AmplitudeState1, AmplitudeState2)):
        vec = initial.as_vector()
    else:
        vec = np.asarray(initial, dtype=complex)
    if vec.shape != (dim,):
        raise ValueError(f"expected {dim} amplitudes, got shape {vec.shape}")
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


def propagate_single(
    model: LorentzianModel,
    initial=None,
    grid: TimeGrid | None = None,
) -> AmplitudeTrajectory:
    """Propagate (c1, b1) on ``grid`` in the rotating frame.

    ``initial`` may be an :class:`AmplitudeState1`, a length-2 sequence, or
    None for the default fully excited emitter with an empty mode.
    """
    if grid is None:
        raise TypeError("grid is required")
    psi0 = _coerce_state(initial, 2)
    generator = single_mode_generator(model)
    states = _propagate_constant(generator, psi0, grid)
    return AmplitudeTrajectory(grid, states, generator, ("c1", "b1"), ROTATING, model.omega0)


def propagate_double(
    model: BandGapModel,
    initial=None,
    grid: TimeGrid | None = None,
) -> AmplitudeTrajectory:
    """Propagate (c1, a1, a2) on ``grid`` in the rotating frame."""
    if grid is None:
        raise TypeError("grid is required")
    psi0 = _coerce_state(initial, 3)
    constants = derive_two_pseudomode_constants(model)
    generator = double_mode_generator(model, constants)
    states = _propagate_constant(generator, psi0, grid)
    return AmplitudeTrajectory(
        grid, states, generator, ("c1", "a1", "a2"), ROTATING, model.omega0
    )


def closed_form_oracle(generator, initial, t, *, cond_limit: float = 1e12):
    """Closed-form solution exp(G t) @ initial via eigen-decomposition.

    Independent of the step propagator. ``t`` may be a scalar (returns one
    amplitude vector) or an array (returns one vector per row). Raises
    ``IllConditioned`` when the eigenvector matrix condition number exceeds
    ``cond_limit`` (degenerate poles); callers should then fall back to
    :func:`expm_oracle`.
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


def norm_balance_residuals(traj: AmplitudeTrajectory, decay_rates: Sequence[float]) -> np.ndarray:
    """Per-interval defect of the norm balance.

    The total one-excitation norm can only drain through the damped
    components: d(sum |psi_i|^2)/dt = -sum_i rate_i |psi_i|^2. Returns
    |(n_{k+1}-n_k)/dt + trapezoid(drain)| for every grid interval, where
    ``decay_rates[i]`` pairs with component i of the trajectory.
    """
    rates = np.asarray(decay_rates, dtype=float)
    if rates.shape != (len(traj.labels),):
        raise ValueError(f"expected {len(traj.labels)} decay rates, got {rates.shape}")
    populations = traj.populations()
    total = populations.sum(axis=1)
    drain = populations @ rates
    dt = traj.grid.dt
    return np.abs(np.diff(total) / dt + 0.5 * (drain[1:] + drain[:-1]))
