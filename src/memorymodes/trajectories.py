"""Stochastic pure-state unravelings of the exact evolutions.

Two engines fill the same ``Ensemble`` record. The first runs on the emitter
alone, driven by the extracted coefficient series: while the decay rate is
non-negative members fall to the ground state, and during negative-rate
intervals ground members jump *back* into the deterministically evolving
state, restoring previously destroyed superpositions. The second is a
standard Monte Carlo wave-function process on the emitter+mode sector whose
constant leakage rates never reverse.

Because every not-yet-jumped member shares one deterministic pure state,
an ensemble is a count ``n0`` of members in that shared state, the rest in
the ground state, and the net jumps per step and channel. The members that
move in one step are one binomial draw (one multinomial draw across the MCWF
channels) from the engine's own Philox stream, keyed by (seed, engine), so a
run is a single sequential loop and repeats bit for bit. The same ground
population, emitter marginal and comparison then serve both engines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .amplitudes import _coerce_vector, propagate_sector
from .density import DensitySeries, _emitter_entries, _extended_vectors, _rate_integral
from .errors import GridMismatch, InvalidRates, NonPhysical, StepTooLarge
from .models import Reservoir, TimeGrid
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


@dataclass(frozen=True)
class Ensemble:
    """Jump ensemble of either unraveling, held as counts around one shared state.

    ``n0[k]`` members share the normalized no-jump state ``psi0[k]``: (C_g, C_e)
    on the emitter, or the sector basis (vacuum, modes, excited) for the MCWF
    engine. The other ``n1[k]`` members sit in the (joint) ground state.
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


def _coerce_unit_vector(initial, dim: int) -> np.ndarray:
    vec = _coerce_vector(initial, dim, f"a {dim}-component pure state")
    norm = np.linalg.norm(vec)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError(f"pure state must be normalized, got norm {norm}")
    return vec


def _check_seed(seed) -> None:
    """Raise ``ValueError`` unless ``seed`` is an integer that fits an unsigned 64-bit key."""
    # the uint64 key would truncate a fractional seed to another run's stream
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 2**64:
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _engine_generator(seed: int, stream: int) -> Generator:
    """The random stream of one engine run, keyed by (seed, engine stream id)."""
    _check_seed(seed)
    return Generator(Philox(key=np.array([seed, stream], dtype=np.uint64)))


def run_nmqj(rates: RateTrajectory, initial, n_members: int, seed: int) -> Ensemble:
    """Sample the emitter unraveling driven by a signed decay-rate series.

    Per step the shared state drifts under the non-Hermitian generator
    (shift/2 - i*rate/2 acting on the excited projector) and renormalizes.
    For rate >= 0 each of the ``n0`` members falls to the ground state with
    probability rate*dt*|C_e|^2; for rate < 0 each of the ``n1`` ground
    members returns to the *current* shared state with probability
    (n0/n1)*|rate|*dt*|C_e|^2 (zero when n1 = 0, as no source members exist).
    The ensemble lives on ``rates.grid``.
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
    psi_init = _coerce_unit_vector(initial, 2)
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

    n_points = len(times)
    n0 = np.empty(n_points, dtype=np.int64)
    cur0 = n_members
    for k in range(n_points - 1):
        n0[k] = cur0
        cur1 = n_members - cur0
        if direct[k]:
            cur0 -= int(rng.binomial(cur0, p_direct[k]))
        elif cur1 > 0:
            p_reverse = (cur0 / cur1) * (-gamma[k]) * dt * excited_pop[k]
            if p_reverse > MAX_JUMP_PROBABILITY:
                raise StepTooLarge(
                    f"reverse-jump probability {p_reverse:.3g} at t={times[k]:.6g} "
                    f"exceeds {MAX_JUMP_PROBABILITY}; refine the grid or enlarge "
                    "the ensemble"
                )
            cur0 += int(rng.binomial(cur1, p_reverse))
    n0[-1] = cur0
    return Ensemble(grid, n_members, n0, psi0, seed, -np.diff(n0)[:, None])


def run_mcwf_pseudomode(
    model: Reservoir,
    initial,
    n_members: int,
    seed: int,
    grid: TimeGrid,
) -> Ensemble:
    """Monte Carlo wave-function sampling on the emitter+mode sector ``model.sector``.

    The deterministic no-jump state comes from the amplitude propagator (the
    vacuum component is left invariant by the non-Hermitian drift). Each
    remaining member jumps to the joint ground state with probability
    sum_i rate_i*dt*(mode-i population), resolved per channel for the
    bookkeeping; the rates are non-negative constants so no reverse jumps
    ever occur.
    """
    if not 1 <= n_members < 2**63:  # the counts are int64
        raise ValueError(f"need 1 <= n_members < 2**63, got {n_members}")
    sector = model.sector
    dim = sector.n_modes + 2
    psi_init = _coerce_unit_vector(initial, dim)
    rng = _engine_generator(seed, MCWF_STREAM)

    # the amplitude vector is (excited, modes) on the sector basis (vacuum, modes, excited)
    traj = propagate_sector(sector, np.concatenate([psi_init[-1:], psi_init[1:-1]]), grid)
    channel_rates = np.array(sector.leak_rates)
    if np.any(channel_rates < 0.0):
        raise NonPhysical(
            f"the MCWF unraveling needs non-negative mode leakage rates, got {channel_rates}"
        )

    n_points = grid.n_steps
    phi = _extended_vectors(traj, psi_init[0])
    norms = np.linalg.norm(phi, axis=1)
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
    # per step: one probability per channel, then staying in the no-jump state
    p_outcome = np.column_stack([p_channel, 1.0 - p_total])

    n0 = np.empty(n_points, dtype=np.int64)
    jump_counts = np.zeros((n_points - 1, len(channel_rates)), dtype=np.int64)
    cur0 = n_members
    for k in range(n_points - 1):
        n0[k] = cur0
        jump_counts[k] = rng.multinomial(cur0, p_outcome[k])[:-1]
        cur0 -= int(jump_counts[k].sum())
    n0[-1] = cur0
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
