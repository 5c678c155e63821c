"""Stochastic pure-state unravelings of the exact evolutions.

Two engines fill the same ``Ensemble`` record, each unraveling the record it
is given. The first runs on the emitter alone, driven by a ``RateTrajectory``:
while the decay rate is non-negative members fall to the ground state, and
during negative-rate intervals ground members jump *back* into the shared
state, restoring previously destroyed superpositions. The second is a
standard Monte Carlo wave-function process on an ``AmplitudeTrajectory`` of
the emitter+mode sector, whose constant leakage rates never reverse.

Because every not-yet-jumped member shares one deterministic pure state,
an ensemble is a count ``n0`` of members in that shared state, the rest in
the ground state, and the net jumps per step and channel. An engine builds
only its no-jump state and step probabilities; both draw through one
sampler, ``_unravel``, from the engine's own Philox stream, keyed by (seed,
engine), and repeat bit for bit. Over a pure-death stretch (a run of direct
steps; the whole MCWF run) the members leave independently, so the counts of
a stretch are one multinomial draw, which numpy makes as the binomial draws
of one draw per step, up to rounding. A reverse-jump step draws its returning
members alone, as its probability depends on the counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .amplitudes import NORM_SLACK, AmplitudeTrajectory, _coerce_vector
from .density import (
    DensitySeries,
    _emitter_entries,
    _extended_vectors,
    _rate_integral,
    atom_density_from_amplitudes,
)
from .errors import GridMismatch, NonPhysical, StepTooLarge
from .models import TimeGrid
from .rates import RateTrajectory

if TYPE_CHECKING:
    from numpy.random import Generator

__all__ = [
    "MAX_JUMP_PROBABILITY",
    "Ensemble",
    "ComparisonReport",
    "run_nmqj",
    "run_mcwf_pseudomode",
    "traced_ensemble_atom_state",
    "compare_unravelings",
]

#: hard bound on any single-step jump probability (first-order sampling)
MAX_JUMP_PROBABILITY = 0.1

# stream ids keep the two engines statistically independent under one seed
NMQJ_STREAM = 0x4E4D514A
MCWF_STREAM = 0x4D435746

_LOG_2 = float(np.log(2.0))


@dataclass(frozen=True)
class Ensemble:
    """Jump ensemble of either unraveling, held as counts around one shared state.

    ``n0[k]`` members share the normalized no-jump state ``psi0[k]``: (C_g, C_e)
    on the emitter, or the MCWF engine's amplitude solution on the sector basis
    (vacuum, modes, excited). The other ``n1[k]`` members sit in the (joint)
    ground state.
    ``jump_counts[k, c]`` is the net number of members that left the shared
    state on step k through channel c, so ``n0[k+1] == n0[k] - jump_counts[k].sum()``;
    the emitter engine has one channel, negative on reverse-jump steps.
    """

    grid: TimeGrid
    n_members: int
    n0: np.ndarray
    psi0: np.ndarray
    seed: int
    jump_counts: np.ndarray

    @property
    def n1(self) -> np.ndarray:
        return self.n_members - self.n0


@dataclass(frozen=True)
class ComparisonReport:
    """Ground-population agreement between the two unravelings and a reference.

    ``sigma`` is the binomial standard error from the exact probability at
    the smaller ensemble size; ``z`` is the larger of the two per-engine
    deviations in units of that engine's own standard error.
    """

    grid: TimeGrid
    pg_nmqj: np.ndarray
    pg_mcwf: np.ndarray
    pg_exact: np.ndarray
    sigma: np.ndarray
    z: np.ndarray
    max_z_score: float
    max_cross_z: float


def _check_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is an integer that fits an unsigned 64-bit key."""
    # the uint64 key would truncate a fractional seed to another run's stream,
    # and a bool is an int but no seed
    integral = isinstance(seed, (int, np.integer)) and not isinstance(seed, bool)
    if not integral or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _check_members(n_members) -> None:
    """Raise ``ValueError`` unless ``n_members`` is an integer size the int64 counts hold."""
    # a fractional size would make fractional counts, and True would run one member
    integral = isinstance(n_members, (int, np.integer)) and not isinstance(n_members, bool)
    if not integral or not 1 <= n_members < 2**63:
        raise ValueError(f"n_members must be an integer in [1, 2**63), got {n_members!r}")


def _engine_generator(seed: int, stream: int) -> Generator:
    """The random stream of one engine run, keyed by (seed, engine stream id).

    ``numpy.random`` is imported here, at the first draw, so that the runs
    that draw nothing do not pay for loading it.
    """
    from numpy.random import Generator, Philox

    _check_seed(seed)
    return Generator(Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _death_counts(rng: Generator, n0: int, p: np.ndarray) -> np.ndarray:
    """Per-step, per-channel departures of ``n0`` members over a pure-death stretch.

    ``p[j, c]`` is the probability that a member still in the shared state
    at step j leaves it through channel c during that step. With no returns
    the members leave independently, so the counts over the stretch are one
    multinomial over the (step, channel) cells plus a survived cell, cell
    (j, c) with probability S_j*p[j, c], where S_j is the survival to step j.
    numpy draws the cells in order as binomials of the members left, with the
    same n and, up to rounding, the same conditional p as one draw per step.
    The stretch is cut where its own survival falls below 1/2, so the running
    remainder numpy subtracts the cells from stays at 1/2 or more.
    """
    n_steps = len(p)
    counts = np.zeros(p.shape, dtype=np.int64)
    step_p = p.sum(axis=1)
    # minus the log-survival to each step boundary; non-decreasing
    decay = -np.concatenate([[0.0], np.cumsum(np.log1p(-step_p))])
    start = 0
    while start < n_steps and n0 > 0:
        end = min(int(np.searchsorted(decay, decay[start] + _LOG_2, side="right")), n_steps)
        survival = np.cumprod(np.concatenate([[1.0], 1.0 - step_p[start:end]]))
        cells = np.append(survival[:-1, None] * p[start:end], survival[-1])
        drawn = rng.multinomial(n0, cells)[:-1].reshape(end - start, -1)
        counts[start:end] = drawn
        n0 -= int(drawn.sum())
        start = end
    return counts


def _unravel(rng, grid: TimeGrid, n_members, p, direct, reverse, psi0, seed) -> Ensemble:
    """Draw the jumps of either engine into its ``Ensemble``: the one sampler of both.

    On a direct step k (``direct[k]``) a shared member leaves through channel c
    with probability ``p[k, c]``; a maximal run of direct steps is one
    pure-death stretch. On a reverse step each of the ``n1`` ground members
    returns with probability (n0/n1)*reverse[k], counted negative on channel
    0, with no draw while n1 = 0, as no source members exist.
    """
    step_p = p.sum(axis=1)
    worst = step_p.max(initial=0.0)
    if worst > MAX_JUMP_PROBABILITY:
        k = int(np.argmax(step_p))
        raise StepTooLarge(
            f"jump probability {worst:.3g} at t={grid.times[k]:.6g} exceeds "
            f"{MAX_JUMP_PROBABILITY}; refine the grid"
        )
    jumps = np.zeros(p.shape, dtype=np.int64)
    cur0 = n_members
    # maximal runs of one step kind: a death stretch, or reverse steps one by one
    edges = [0, *(np.flatnonzero(direct[1:] != direct[:-1]) + 1), len(p)]
    for start, end in zip(edges[:-1], edges[1:]):
        if direct[start]:
            jumps[start:end] = _death_counts(rng, cur0, p[start:end])
            cur0 -= int(jumps[start:end].sum())
            continue
        for k in range(start, end):
            cur1 = n_members - cur0
            if cur1 == 0:
                continue
            p_reverse = (cur0 / cur1) * reverse[k]
            if p_reverse > MAX_JUMP_PROBABILITY:
                raise StepTooLarge(
                    f"reverse-jump probability {p_reverse:.3g} at t={grid.times[k]:.6g} "
                    f"exceeds {MAX_JUMP_PROBABILITY}; refine the grid or enlarge "
                    "the ensemble"
                )
            back = int(rng.binomial(cur1, p_reverse))
            jumps[k, 0] = -back
            cur0 += back
    n0 = n_members - np.concatenate([[0], np.cumsum(jumps.sum(axis=1))])
    return Ensemble(grid, n_members, n0, psi0, seed, jumps)


def run_nmqj(rates: RateTrajectory, initial, n_members: int, seed: int) -> Ensemble:
    """Sample the emitter unraveling driven by a signed decay-rate series.

    Per step the shared state drifts under the non-Hermitian generator
    (shift/2 - i*rate/2 acting on the excited projector) and renormalizes.
    For rate >= 0 each of the ``n0`` members falls to the ground state with
    probability rate*dt*|C_e|^2; for rate < 0 each of the ``n1`` ground
    members returns to the *current* shared state with probability
    (n0/n1)*|rate|*dt*|C_e|^2. The engine builds the no-jump state and these
    probabilities, with rate >= 0 as the direct-step mask; ``_unravel``, the
    sampler of both unravelings, draws the jumps on ``rates.grid``. The no-jump
    state integrates the rate series as the time-local route does, so the same
    ``InvalidRates`` refuses an invalid rate point or an unresolved step (see
    ``density._rate_integral``).
    """
    _check_members(n_members)
    psi_init = _coerce_vector(initial, 2, "a 2-component pure state")
    norm = np.linalg.norm(psi_init)
    if abs(norm - 1.0) > NORM_SLACK:
        raise ValueError(f"pure state must be normalized, got norm {norm}")
    rng = _engine_generator(seed, NMQJ_STREAM)

    grid = rates.grid
    gamma = np.asarray(rates.gamma, dtype=float)[:-1]

    # no-jump state: C_g frozen, C_e attenuated/rephased by the accumulated
    # complex rate, the same integral K as the time-local route
    half = 0.5 * _rate_integral(rates)
    c_g, c_e = psi_init
    if c_g == 0:
        excited = (c_e / abs(c_e)) * np.exp(-1j * half.imag)
        psi0 = np.column_stack([np.zeros_like(excited), excited])
        excited_pop = np.ones(grid.n_steps)
    else:
        magnitude = abs(c_e) * np.exp(-half.real)
        norm = np.hypot(abs(c_g), magnitude)
        unnormalized = c_e * np.exp(-half)
        psi0 = np.column_stack([np.full(grid.n_steps, c_g), unnormalized]) / norm[:, None]
        excited_pop = (magnitude / norm) ** 2

    direct = gamma >= 0.0
    p = np.where(direct, gamma, 0.0) * grid.dt * excited_pop[:-1]
    reverse = np.abs(gamma) * grid.dt * excited_pop[:-1]
    return _unravel(rng, grid, n_members, p[:, None], direct, reverse, psi0, seed)


def run_mcwf_pseudomode(traj: AmplitudeTrajectory, n_members: int, seed: int) -> Ensemble:
    """Monte Carlo wave-function sampling of the amplitude solution ``traj``.

    The no-jump state is ``traj`` normalized on the sector basis (vacuum, modes,
    excited), with the frozen ``traj.vacuum`` that makes the joint state start
    with unit norm. Each remaining member jumps to the joint ground state with
    probability sum_i rate_i*dt*(mode-i population), resolved per channel. The
    leak rates of ``traj.sector`` are non-negative constants, so every step on
    ``traj.grid`` is direct and ``_unravel``, the sampler of both unravelings,
    draws the run as one pure-death stretch.
    """
    _check_members(n_members)
    grid = traj.grid
    phi = _extended_vectors(traj.states, traj.vacuum)
    # a NaN entry would pass the probability bound, since NaN comparisons are False
    if not np.all(np.isfinite(phi)):
        raise ValueError("the trajectory must be finite")
    rng = _engine_generator(seed, MCWF_STREAM)

    channel_rates = np.array(traj.sector.leak_rates)
    if np.any(channel_rates < 0.0):
        raise NonPhysical(
            f"the MCWF unraveling needs non-negative mode leakage rates, got {channel_rates}"
        )

    psi0 = phi / np.linalg.norm(phi, axis=1)[:, None]
    p = np.abs(psi0[:-1, 1:-1]) ** 2 * channel_rates * grid.dt
    return _unravel(rng, grid, n_members, p, np.ones(len(p), dtype=bool), None, psi0, seed)


def traced_ensemble_atom_state(ens: Ensemble) -> DensitySeries:
    """Emitter marginal of the ensemble state at every step, for either engine.

    Mixes the mode-traced shared state with the jumped fraction:
    (n0/N) Tr_modes |psi0><psi0| + (n1/N) |g><g|.
    """
    psi = ens.psi0
    excited = psi[:, -1]
    w0 = ens.n0 / ens.n_members
    w1 = ens.n1 / ens.n_members
    return DensitySeries._adopt(
        _emitter_entries(
            w0 * np.sum(np.abs(psi[:, :-1]) ** 2, axis=1) + w1,
            w0 * np.float_power(np.hypot(excited.real, excited.imag), 2.0),
            w0 * excited * np.conj(psi[:, 0]),
        )
    )


def _z_scores(diff: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    out = np.zeros_like(diff)
    positive = sigma > 0.0
    out[positive] = diff[positive] / sigma[positive]
    out[~positive & (diff > 1e-12)] = np.inf
    return out


def compare_unravelings(a: Ensemble, b: Ensemble, traj: AmplitudeTrajectory) -> ComparisonReport:
    """Check both unravelings' ground populations against the exact solution ``traj``.

    The exact ground population is that of ``atom_density_from_amplitudes(traj)``.
    ``GridMismatch`` refuses ensembles on two grids and a ``traj`` on
    another grid than theirs.
    The binomial standard error uses the exact probability, so degenerate
    points (p = 0 or 1) produce zero sigma and a zero score whenever the
    observation agrees exactly.
    """
    if not np.array_equal(a.grid.times, b.grid.times):
        raise GridMismatch("ensembles were sampled on different grids")
    if not np.array_equal(traj.grid.times, a.grid.times):
        raise GridMismatch("the exact trajectory is on another grid than the ensembles")
    p_exact = atom_density_from_amplitudes(traj).ground_population()
    variance = np.clip(p_exact * (1.0 - p_exact), 0.0, None)
    sigma_a = np.sqrt(variance / a.n_members)
    sigma_b = np.sqrt(variance / b.n_members)
    pg_a = traced_ensemble_atom_state(a).ground_population()
    pg_b = traced_ensemble_atom_state(b).ground_population()
    z_a = _z_scores(np.abs(pg_a - p_exact), sigma_a)
    z_b = _z_scores(np.abs(pg_b - p_exact), sigma_b)
    z = np.maximum(z_a, z_b)
    sigma = np.sqrt(variance / min(a.n_members, b.n_members))
    cross_sigma = np.sqrt(variance * (1.0 / a.n_members + 1.0 / b.n_members))
    cross_z = _z_scores(np.abs(pg_a - pg_b), cross_sigma)
    return ComparisonReport(
        grid=a.grid,
        pg_nmqj=pg_a,
        pg_mcwf=pg_b,
        pg_exact=p_exact,
        sigma=sigma,
        z=z,
        max_z_score=float(np.max(z)),
        max_cross_z=float(np.max(cross_z)),
    )
