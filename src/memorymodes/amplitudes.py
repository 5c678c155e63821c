"""One-excitation amplitude dynamics of an emitter and its pseudomode sector.

The amplitude vector (c1, one amplitude per mode) obeys a small
constant-coefficient linear ODE system built from a ``PseudomodeSector``.
Propagation is exact up to rounding, by matrix exponentials on the uniform
grid (:func:`expm`, a numpy Padé-13 scaling and squaring that takes the
doubling ladder in batches of matrices), filled whole or a chunk of rows at
a time (:func:`_ladder_chunks`); an independent eigen-decomposition oracle
provides the closed-form solution for cross-checking. A trajectory
carries the sector it was propagated in: its labels, carrier frequency,
generator and leak rates are all read from that one description.

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

from .errors import IllConditioned, ToleranceNotMet
from .models import PseudomodeSector, TimeGrid

__all__ = [
    "AmplitudeTrajectory",
    "mode_generator",
    "propagate_sector",
    "closed_form_oracle",
    "norm_balance_residuals",
]

#: slack allowed on the unit-norm bound of initial amplitude vectors
NORM_SLACK = 1e-9

#: coefficients b_0..b_13 of the degree-13 Padé approximant to exp
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
#: largest scaled norm at which the Padé-13 backward error stays below 2**-53
_THETA13 = 5.371920351148152
#: 1/|c_27|, the leading coefficient of the Padé-13 backward error series
_C27_RECIP = 113250775606021113483283660800000000.0


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

    @property
    def vacuum(self) -> float:
        """The joint-vacuum amplitude sqrt(1 - |states[0]|^2), frozen by the drift, real as the
        global phase is free; ``ValueError`` unless ``propagate_sector`` takes ``states[0]``."""
        norm = np.linalg.norm(_coerce_state(self.states[0], len(self.labels)))
        return float(np.sqrt(max(0.0, 1.0 - norm**2)))

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
        return np.eye(1, dim, dtype=complex)[0]
    vec = _coerce_vector(initial, dim, f"{dim} amplitudes")
    norm = np.linalg.norm(vec)
    if norm > 1.0 + NORM_SLACK:
        raise ValueError(f"initial amplitude norm {norm} exceeds 1")
    return vec


def _norm1(a: np.ndarray) -> np.ndarray:
    """The 1-norm (largest column sum) of each matrix in the stack ``a``."""
    return np.abs(a).sum(axis=-2).max(axis=-1)


def expm(a) -> np.ndarray:
    """exp of every matrix in the stack ``a`` of shape (..., n, n).

    Scaling and squaring around the degree-13 Padé approximant, with the
    scaling of Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31, 970 (2009):
    each matrix gets its own s from the norms of its powers, which scales a
    non-normal matrix less than its norm would, plus the correction that
    raises s where evaluating the approximant would lose digits. The norms
    are computed exactly, not estimated. A stack of diagonal matrices
    is exponentiated entry by entry. A triangular matrix gets its diagonal
    and first off-diagonal recomputed in closed form before and after every
    squaring, and its other triangle kept at zero (ibid., Code Fragment 2.1),
    as ``scipy.linalg.expm`` does for upper-triangular input: the squarings
    alone would lose them where its norm is large. An overflowing exponential
    comes out with inf or NaN entries and no warning; the caller checks.
    """
    a = np.asarray(a)
    n = a.shape[-1]
    stack = a.reshape(-1, n, n)
    diagonal = np.eye(n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if np.any(stack[:, ~diagonal]):
            # exactly one triangle nonzero: triangular, not diagonal; a lower
            # triangular matrix is exponentiated as its transpose
            below = np.any(np.tril(stack, -1), axis=(-2, -1))
            above = np.any(np.triu(stack, 1), axis=(-2, -1))
            lower = below & ~above
            if lower.any():
                stack = stack.copy()
                stack[lower] = stack[lower].swapaxes(-2, -1)
            out = _scaled_pade13(stack, np.flatnonzero(below != above))
            out[lower] = out[lower].swapaxes(-2, -1)
        else:
            out = np.zeros_like(stack)
            out[:, diagonal] = np.exp(stack[:, diagonal])
    return out.reshape(a.shape)


def _scaled_pade13(stack: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """exp of each matrix of the 3-d ``stack`` by Padé-13 with its own scaling 2**s;
    the matrices indexed by ``upper`` are upper triangular."""
    a2 = stack @ stack
    a4 = a2 @ a2
    a6 = a4 @ a2
    a8 = a4 @ a4
    d6, d8, d10 = (_norm1(p) ** (1 / k) for p, k in ((a6, 6), (a8, 8), (a8 @ a2, 10)))
    # eta_5 of the paper, capped by the norm, which bounds it also where a power overflowed
    eta = np.fmin(np.fmin(np.maximum(d6, d8), np.maximum(d8, d10)), _norm1(stack))
    s = np.fmax(np.ceil(np.log2(eta / _THETA13)), 0)
    b = stack * (2.0**-s)[:, None, None]
    alpha = _norm1(np.linalg.matrix_power(np.abs(b), 27)) / (_norm1(b) * _C27_RECIP)
    s = s + np.fmax(np.ceil(np.log2(alpha * 2.0**53) / 26), 0)
    # a power of two scales exactly, so these are the powers of the scaled matrix
    scale = (2.0**-s)[:, None, None]
    b, b2, b4, b6 = stack * scale, a2 * scale**2, a4 * scale**4, a6 * scale**6
    c = _PADE13
    eye = np.eye(stack.shape[-1])
    u = b6 @ (c[13] * b6 + c[11] * b4 + c[9] * b2) + c[7] * b6 + c[5] * b4 + c[3] * b2
    u = b @ (u + c[1] * eye)
    v = b6 @ (c[12] * b6 + c[10] * b4 + c[8] * b2) + c[6] * b6 + c[4] * b4 + c[2] * b2
    v += c[0] * eye
    # (V - U)^-1 (V + U), written so that it keeps the digits the plain form loses near I
    out = eye + 2 * np.linalg.solve(v - u, u)
    s = s.astype(int)
    _triangular_bands(out, stack, upper, 2.0 ** -s[upper])
    for done in range(s.max()):
        todo = s > done
        square = out[todo]
        out[todo] = square @ square
        upper = upper[s[upper] > done]
        _triangular_bands(out, stack, upper, 2.0 ** (done + 1 - s[upper]))
    return out


def _triangular_bands(out: np.ndarray, stack: np.ndarray, upper: np.ndarray, scale: np.ndarray):
    """Write exp of ``stack[upper] * scale`` into ``out[upper]`` on the diagonal and the
    first superdiagonal, where it has closed forms, and zero below the diagonal."""
    if not len(upper):
        return
    t = stack[upper] * scale[:, None, None]
    d = np.diagonal(t, axis1=-2, axis2=-1)
    index = np.arange(t.shape[-1])
    row, col = index[:-1], index[1:]
    x = np.triu(out[upper])
    x[:, index, index] = np.exp(d)
    x[:, row, col] = t[:, row, col] * _exp_divided_difference(d[:, :-1], d[:, 1:])
    out[upper] = x


def _exp_divided_difference(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(exp(x) - exp(y)) / (x - y), which is exp(x) where x == y.

    Near the diagonal x ~ y it is exp((x+y)/2) sinh(h)/h with h = (x-y)/2
    (Higham, Functions of Matrices, eq. (10.42)), sinh(h)/h by its Taylor
    series for tiny h; far from it the plain quotient, where sinh(h) could
    overflow.
    """
    h = 0.5 * (x - y)
    h2 = h * h
    sinch = np.where(np.abs(h) < 0.0135, 1 + h2 / 6 * (1 + h2 / 20 * (1 + h2 / 42)), np.sinh(h) / h)
    return np.where(np.abs(h) < 1, np.exp(0.5 * (x + y)) * sinch, (np.exp(x) - np.exp(y)) / (x - y))


#: bytes of the matrices one :func:`expm` call of the doubling ladder takes, an
#: eighth of ``density._CHUNK_BYTES``: the ladders of the presets and of three
#: lone peaks fit one call, where batching pays (2.8 ms against 14.8 ms one
#: matrix at a time at three peaks); the 144x144 Liouvillian of ten peaks takes
#: one matrix per call, as batched its temporaries reach 27 MiB and run slower
_LADDER_BYTES = 1 << 17


def _ladder(generator: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """The propagators exp(G*m*dt) of the doubling fill on ``grid``, m = 1, 2, 4, ...
    below its length, each from :func:`expm` with its own scaling: squaring the
    previous one would double its rounding error. They are exponentiated in
    batches of at most ``_LADDER_BYTES`` of matrices (at least one matrix), whose
    bits are those of one call. ``ToleranceNotMet`` where one is not finite."""
    if not np.all(np.isfinite(generator)):
        raise ValueError("generator entries must be finite")
    lengths = 2 ** np.arange((grid.n_steps - 1).bit_length())
    steps = (lengths * grid.dt)[:, None, None]
    batch = max(1, _LADDER_BYTES // generator.nbytes)
    # an overflow here leaves a propagator that is not finite, reported below
    with np.errstate(over="ignore"):
        parts = [expm(generator * steps[at : at + batch]) for at in range(0, len(steps), batch)]
    propagators = parts[0] if len(parts) == 1 else np.concatenate(parts)
    finite = np.isfinite(propagators).all(axis=(-2, -1))
    if not finite.all():
        t = lengths[np.argmin(finite)] * grid.dt
        raise ToleranceNotMet(f"propagator exp(G*t) at t={t:g} is not finite")
    return propagators


def _ladder_chunks(propagators: np.ndarray, x0: np.ndarray, n: int, size: int):
    """Yield the rows exp(G*(t_k - t_0)) @ x0, k < ``n``, as (start, rows) over chunks
    of ``size`` rows, a power of two, the last chunk shorter; ``propagators`` are
    those of :func:`_ladder`.

    The first chunk is filled by doubling: rows [m, 2m) are rows [0, m) times
    P_m.T, with P_m = exp(G*m*dt). Rows [a, a + size) of a later chunk are rows
    [0, size) times P_{2^j}.T for each set bit j of a, lowest first. So row k
    is x0 times the propagators of k's set bits, lowest first: the products, in
    order, of one doubling fill of all ``n`` rows. A last chunk that starts at
    a power of two is that fill's own product, rows [0, n - a) times P_a.T; any
    other last chunk multiplies all ``size`` rows and keeps those it needs, so
    no product has fewer rows than the fill's. BLAS then gives each row the
    fill's bits, as the tests check from 16 rows per chunk; a product of one or
    a few rows can round differently.
    """
    first = np.empty((min(size, n), len(x0)), np.result_type(propagators, x0))
    first[0] = x0
    for m, propagator in zip(2 ** np.arange(len(propagators)), propagators):
        if m >= len(first):
            break
        k = min(m, len(first) - m)
        np.matmul(first[:k], propagator.T, out=first[m : m + k])
    yield 0, first
    for start in range(size, n, size):
        rows = first[: n - start] if start & (start - 1) == 0 else first
        for j in range(start.bit_length()):
            if start >> j & 1:
                rows = rows @ propagators[j].T
        yield start, rows[: n - start]


def _propagate_constant(generator: np.ndarray, x0: np.ndarray, grid: TimeGrid) -> np.ndarray:
    """Rows exp(G*(t_k - t_0)) @ x0 on the uniform ``grid``: the one chunk of
    :func:`_ladder_chunks` that holds them all, filled by doubling."""
    n = grid.n_steps
    ((_, rows),) = _ladder_chunks(_ladder(generator, grid), x0, n, 1 << (n - 1).bit_length())
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
    ``cond_limit`` (degenerate poles); callers should then fall back to a
    dense matrix exponential. The error is about cond*eps; at an exceptional point
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
