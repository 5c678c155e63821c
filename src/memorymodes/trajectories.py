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
the ground state, and the net jumps per step and channel. Each run draws
from the engine's own Philox stream, keyed by (seed, engine), and repeats bit
for bit. Over a pure-death stretch (a run of steps without reverse jumps;
the whole MCWF run) the members leave independently, so the counts of every
step and channel of the stretch are one multinomial draw, which numpy makes
as the binomial draws of one draw per step, up to rounding. A reverse-jump
step draws its returning members alone, as its probability depends on the
counts. The same ground population, emitter marginal and comparison then
serve both engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .amplitudes import AmplitudeTrajectory, _coerce_vector
from .density import DensitySeries, _emitter_entries, _extended_vectors, _rate_integral
from .errors import GridMismatch, InvalidRates, NonPhysical, StepTooLarge
from .models import TimeGrid
from .rates import RateTrajectory

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
    # the uint64 key would truncate a fractional seed to another run's stream
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _engine_generator(seed: int, stream: int) -> Generator:
    """The random stream of one engine run, keyed by (seed, engine stream id)."""
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


def _shared_counts(n_members: int, jump_counts: np.ndarray) -> np.ndarray:
    """Members in the shared state at every grid point, from the net jumps per step."""
    return n_members - np.concatenate([[0], np.cumsum(jump_counts.sum(axis=1))])


def run_nmqj(rates: RateTrajectory, initial, n_members: int, seed: int) -> Ensemble:
    """Sample the emitter unraveling driven by a signed decay-rate series.

    Per step the shared state drifts under the non-Hermitian generator
    (shift/2 - i*rate/2 acting on the excited projector) and renormalizes.
    For rate >= 0 each of the ``n0`` members falls to the ground state with
    probability rate*dt*|C_e|^2; for rate < 0 each of the ``n1`` ground
    members returns to the *current* shared state with probability
    (n0/n1)*|rate|*dt*|C_e|^2 (zero when n1 = 0, as no source members exist).
    Each maximal run of rate >= 0 steps is one pure-death stretch, sampled in
    one multinomial draw; reverse-jump steps are drawn one at a time. The
    ensemble lives on ``rates.grid``.
    """
    grid = rates.grid
    if not 1 <= n_members < 2**63:  # the counts are int64
        raise ValueError(f"need 1 <= n_members < 2**63, got {n_members}")
    if not rates.valid.all():
        first = int(np.flatnonzero(~rates.valid)[0])
        raise InvalidRates(
            f"rate series is invalid at t={grid.times[first]:.6g}; "
            "the unraveling needs finite coefficients on the whole grid"
        )
    psi_init = _coerce_vector(initial, 2, "a 2-component pure state")
    norm = np.linalg.norm(psi_init)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"pure state must be normalized, got norm {norm}")
    rng = _engine_generator(seed, NMQJ_STREAM)

    times = grid.times
    dt = grid.dt
    gamma = np.asarray(rates.gamma, dtype=float)

    # no-jump state: C_g frozen, C_e attenuated/rephased by the accumulated
    # complex rate, the same integral K as the time-local route
    half = 0.5 * _rate_integral(rates)
    c_g, c_e = psi_init
    if c_g == 0:
        excited = (c_e / abs(c_e)) * np.exp(-1j * half.imag)
        psi0 = np.column_stack([np.zeros_like(excited), excited])
        excited_pop = np.ones(len(times))
    else:
        magnitude = abs(c_e) * np.exp(-half.real)
        norm = np.hypot(abs(c_g), magnitude)
        unnormalized = c_e * np.exp(-half)
        psi0 = np.column_stack([np.full(len(times), c_g), unnormalized]) / norm[:, None]
        excited_pop = (magnitude / norm) ** 2

    direct = gamma >= 0.0
    p_direct = np.where(direct, gamma, 0.0) * dt * excited_pop
    worst = p_direct[:-1].max(initial=0.0)
    if worst > MAX_JUMP_PROBABILITY:
        k = int(np.argmax(p_direct[:-1]))
        raise StepTooLarge(
            f"jump probability {worst:.3g} at t={times[k]:.6g} exceeds "
            f"{MAX_JUMP_PROBABILITY}; refine the grid"
        )

    n_steps = len(times) - 1
    jumps = np.zeros((n_steps, 1), dtype=np.int64)
    cur0 = n_members
    # maximal runs of one rate sign: a death stretch, or reverse steps one by one
    edges = [0, *(np.flatnonzero(direct[1:n_steps] != direct[: n_steps - 1]) + 1), n_steps]
    for start, end in zip(edges[:-1], edges[1:]):
        if direct[start]:
            jumps[start:end] = _death_counts(rng, cur0, p_direct[start:end, None])
            cur0 -= int(jumps[start:end].sum())
            continue
        for k in range(start, end):
            cur1 = n_members - cur0
            if cur1 == 0:
                continue
            p_reverse = (cur0 / cur1) * (-gamma[k]) * dt * excited_pop[k]
            if p_reverse > MAX_JUMP_PROBABILITY:
                raise StepTooLarge(
                    f"reverse-jump probability {p_reverse:.3g} at t={times[k]:.6g} "
                    f"exceeds {MAX_JUMP_PROBABILITY}; refine the grid or enlarge "
                    "the ensemble"
                )
            back = int(rng.binomial(cur1, p_reverse))
            jumps[k] = -back
            cur0 += back
    return Ensemble(grid, n_members, _shared_counts(n_members, jumps), psi0, seed, jumps)


def run_mcwf_pseudomode(
    traj: AmplitudeTrajectory, n_members: int, seed: int, vacuum_amplitude: complex = 0.0
) -> Ensemble:
    """Monte Carlo wave-function sampling of the amplitude solution ``traj``.

    The no-jump state is ``traj`` normalized on the sector basis (vacuum, modes,
    excited), with the frozen ``vacuum_amplitude`` the drift leaves invariant;
    the joint state must start with unit norm. Each remaining member jumps to
    the joint ground state with probability sum_i rate_i*dt*(mode-i
    population), resolved per channel; the leak rates of ``traj.sector`` are
    non-negative constants, so the whole run on ``traj.grid`` is one
    pure-death stretch.
    """
    if not 1 <= n_members < 2**63:  # the counts are int64
        raise ValueError(f"need 1 <= n_members < 2**63, got {n_members}")
    grid = traj.grid
    phi = _extended_vectors(traj, vacuum_amplitude)
    # a NaN entry would pass every norm bound, since NaN comparisons are False
    if not np.all(np.isfinite(phi)):
        raise ValueError(f"vacuum amplitude {vacuum_amplitude} and trajectory must be finite")
    norms = np.linalg.norm(phi, axis=1)
    if abs(norms[0] - 1.0) > 1e-9:
        raise ValueError(f"pure state must be normalized, got norm {norms[0]}")
    rng = _engine_generator(seed, MCWF_STREAM)

    channel_rates = np.array(traj.sector.leak_rates)
    if np.any(channel_rates < 0.0):
        raise NonPhysical(
            f"the MCWF unraveling needs non-negative mode leakage rates, got {channel_rates}"
        )

    psi0 = phi / norms[:, None]
    mode_pops = np.abs(psi0[:, 1:-1]) ** 2

    p_channel = mode_pops * channel_rates * grid.dt
    p_total = p_channel.sum(axis=1)
    worst = p_total[:-1].max(initial=0.0)
    if worst > MAX_JUMP_PROBABILITY:
        k = int(np.argmax(p_total[:-1]))
        raise StepTooLarge(
            f"total jump probability {worst:.3g} at t={grid.times[k]:.6g} exceeds "
            f"{MAX_JUMP_PROBABILITY}; refine the grid"
        )
    jump_counts = _death_counts(rng, n_members, p_channel[:-1])
    n0 = _shared_counts(n_members, jump_counts)
    return Ensemble(grid, n_members, n0, psi0, seed, jump_counts)


def traced_ensemble_atom_state(ens: Ensemble) -> DensitySeries:
    """Emitter marginal of the ensemble state at every step, for either engine.

    Mixes the mode-traced shared state with the jumped fraction:
    (n0/N) Tr_modes |psi0><psi0| + (n1/N) |g><g|.
    """
    psi = ens.psi0
    excited = psi[:, -1]
    w0 = ens.n0 / ens.n_members
    w1 = ens.n1 / ens.n_members
    return DensitySeries(
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


def compare_unravelings(a: Ensemble, b: Ensemble, exact: DensitySeries) -> ComparisonReport:
    """Check both unravelings' ground populations against an exact series.

    The exact ground population is the emitter-ground diagonal sum, so an
    emitter series and an extended-sector series give the same reference.
    The binomial standard error uses the exact probability, so degenerate
    points (p = 0 or 1) produce zero sigma and a zero score whenever the
    observation agrees exactly.
    """
    if not np.array_equal(a.grid.times, b.grid.times):
        raise GridMismatch("ensembles were sampled on different grids")
    if len(exact) != a.grid.n_steps:
        raise GridMismatch(
            f"reference series has {len(exact)} states for {a.grid.n_steps} grid points"
        )
    p_exact = exact.ground_population()
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
