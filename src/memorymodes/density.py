"""Density-matrix evolutions and the partial traces connecting them.

Three exact routes to the same emitter state are implemented: the time-local
emitter master equation driven by extracted coefficient series, dissipative
(Lindblad-form) master equations on the extended emitter+mode sector, and
direct reconstruction from amplitude trajectories. All evolutions run in the
rotating frame; coherences can be dressed with the carrier phase afterwards.

A single state is a ``DensityMatrix``; a state per grid point is one
``DensitySeries``, a read-only ``(n, d, d)`` stack validated once for the
whole series. Partial traces, populations and invariant checks act on the
last two axes, so one implementation serves a single state and a series.

The extended basis of an n-mode ``PseudomodeSector`` is the joint vacuum,
one excitation in each mode in sector order, then the excited emitter, so
dim = n + 2 and dim 2 is the emitter alone. The labels of
:func:`basis_labels` name the emitter level, then the occupation of each
mode: ``g0…0``, ``g`` with a ``1`` in mode k's position for each k, then
``e0…0``. So dim 2 is (g, e), dim 3 is (g0, g1, e0) and dim 4 is
(g00, g10, g01, e00).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .amplitudes import AmplitudeTrajectory, _propagate_constant
from .errors import RateGapTooWide, SectorLeak
from .models import PseudomodeSector, Reservoir, TimeGrid
from .rates import RateTrajectory

__all__ = [
    "basis_labels",
    "DensityMatrix",
    "DensitySeries",
    "sector_hamiltonian",
    "evolve_atom_timelocal",
    "evolve_lindblad_sector",
    "evolve_lindblad_single",
    "evolve_lindblad_double",
    "partial_trace_pseudomodes",
    "partial_trace_atom",
    "density_series_lab_frame",
    "atom_density_from_amplitudes",
    "extended_density_from_amplitudes",
]


def basis_labels(dim: int) -> tuple[str, ...]:
    """Labels of the sector basis of dimension ``dim``, as the module docstring spells them."""
    empty = "0" * (dim - 2)
    one_each = (f"g{empty[:k]}1{empty[k + 1:]}" for k in range(dim - 2))
    return ("g" + empty, *one_each, "e" + empty)


#: longest run of invalid rate points the time-local route will bridge
MAX_BRIDGEABLE_GAP = 2


def _validated(matrices, ndim: int, expected: str) -> np.ndarray:
    """Read-only complex copy with square trailing axes of a sector dimension (at least 2)."""
    mat = np.array(matrices, dtype=complex, order="C")
    if mat.ndim != ndim or mat.shape[-1] != mat.shape[-2] or mat.size == 0:
        raise ValueError(f"expected {expected}, got shape {mat.shape}")
    if mat.shape[-1] < 2:
        raise ValueError(f"unsupported dimension {mat.shape[-1]}; expected at least 2")
    if not np.all(np.isfinite(mat.view(float))):
        raise ValueError("matrix entries must be finite")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """State operator on the emitter or emitter+mode sector basis.

    A physically valid instance is Hermitian with unit trace and
    non-negative spectrum; those properties are reported, not enforced, so
    integration noise and deliberately nonphysical inputs stay visible.
    States compare by identity; compare ``matrix`` to compare entries.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _validated(self.matrix, 2, "a square matrix"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def basis(self) -> tuple[str, ...]:
        return basis_labels(self.dim)

    @classmethod
    def from_pure(cls, vector) -> "DensityMatrix":
        vec = np.asarray(vector, dtype=complex)
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def excited(cls, dim: int = 2) -> "DensityMatrix":
        """Emitter excited, all modes empty."""
        vec = np.zeros(dim, dtype=complex)
        vec[-1] = 1.0
        return cls.from_pure(vec)

    def invariant_defects(self) -> dict[str, float]:
        """Hermiticity gap, trace deviation, and smallest eigenvalue."""
        return _invariant_defects(self.matrix, _spectrum(self.matrix))

    def excited_population(self) -> float:
        return float(self.matrix[-1, -1].real)

    def ground_population(self) -> float:
        """Sum of the emitter-ground diagonal entries."""
        return float(_ground_population(self.matrix))


@dataclass(frozen=True, eq=False)
class DensitySeries:
    """One state per grid point, held as a read-only ``(n, d, d)`` stack.

    Shape, dimension and finiteness are checked once for the whole series.
    ``series[k]`` is the ``DensityMatrix`` at point k, a slice is again a
    series, and iteration yields ``DensityMatrix`` objects. Series compare by
    identity; compare ``matrices`` to compare entries.
    """

    matrices: np.ndarray

    def __post_init__(self) -> None:
        stack = _validated(self.matrices, 3, "a non-empty (n, d, d) stack")
        object.__setattr__(self, "matrices", stack)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def basis(self) -> tuple[str, ...]:
        return basis_labels(self.dim)

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DensitySeries(self.matrices[index])
        return DensityMatrix(self.matrices[index])

    def __iter__(self):
        return (DensityMatrix(mat) for mat in self.matrices)

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Read-only spectrum of every Hermitized state, ``(n, d)``, computed once."""
        eigs = _spectrum(self.matrices)
        eigs.setflags(write=False)
        return eigs

    def invariant_defects(self) -> dict[str, float]:
        """Worst hermiticity gap, trace deviation and smallest eigenvalue."""
        return _invariant_defects(self.matrices, self.eigenvalues)

    def ground_population(self) -> np.ndarray:
        """Sum of the emitter-ground diagonal entries at every point."""
        return _ground_population(self.matrices)


#: ``?heevd`` rescales a matrix whose largest entry lies outside about
#: [1e-146, 1e146]; a diagonal stack takes the shortcut only well inside
_UNSCALED = (1e-140, 1e140)
#: ``dlasrt`` sorts up to 20 values by insertion, which keeps ties in order
_MAX_SORTED_DIM = 20


def _spectrum(matrices: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitized part of one matrix or a stack (last two axes).

    When every off-diagonal entry of the Hermitized stack is exactly zero,
    its real diagonal, stably sorted, is returned without ``eigvalsh``. The
    emitter states of runs that start in |e> are such stacks. On them
    LAPACK's ``?heevd`` applies zero reflectors (``?hetd2``), splits the
    tridiagonal matrix into 1x1 blocks (``dsterf``) and sorts them by
    insertion (``dlasrt``), so it returns the same bits unless it rescales.
    So a stack with a matrix whose largest entry lies outside ``_UNSCALED``
    (a density matrix has trace one, so its largest entry is at least 1/d)
    or is not finite, or with a dimension above ``_MAX_SORTED_DIM``, still
    goes to ``eigvalsh``.
    """
    hermitized = 0.5 * (matrices + np.swapaxes(matrices, -1, -2).conj())
    diagonal = np.diagonal(hermitized, axis1=-2, axis2=-1)
    diagonal_only = np.count_nonzero(hermitized) == np.count_nonzero(diagonal)
    if diagonal_only and hermitized.shape[-1] <= _MAX_SORTED_DIM:
        values = np.sort(diagonal.real, axis=-1, kind="stable")
        # the largest magnitude is at one end of a sorted row, a NaN at the last
        largest = np.maximum(np.abs(values[..., :1]), np.abs(values[..., -1:]))
        low, high = _UNSCALED
        if np.all((largest == 0.0) | ((largest >= low) & (largest <= high))):
            return values
    return np.linalg.eigvalsh(hermitized)


def _invariant_defects(matrices: np.ndarray, eigs: np.ndarray) -> dict[str, float]:
    """Worst invariant defects of one matrix or a stack with its spectrum ``eigs``."""
    adjoint = np.swapaxes(matrices, -1, -2).conj()
    trace = np.trace(matrices, axis1=-2, axis2=-1)
    return {
        "hermiticity": float(np.max(np.abs(matrices - adjoint))),
        "trace": float(np.max(np.abs(trace.real - 1.0) + np.abs(trace.imag))),
        "min_eigenvalue": float(eigs.min()),
    }


def _ground_population(matrices: np.ndarray) -> np.ndarray:
    return np.sum(np.diagonal(matrices, axis1=-2, axis2=-1).real[..., :-1], axis=-1)


def _entries(rho: DensityMatrix | DensitySeries) -> np.ndarray:
    return rho.matrices if isinstance(rho, DensitySeries) else rho.matrix


def _emitter_entries(ground, excited, coherence) -> np.ndarray:
    """Emitter matrices on (|g>, |e>) with rho_eg = ``coherence`` at [1, 0].

    The three entries share their leading axes, which become the leading axes
    of the ``(..., 2, 2)`` result.
    """
    out = np.empty(np.shape(coherence) + (2, 2), dtype=complex)
    out[..., 0, 0] = ground
    out[..., 0, 1] = np.conj(coherence)
    out[..., 1, 0] = coherence
    out[..., 1, 1] = excited
    return out


def sector_hamiltonian(sector: PseudomodeSector) -> np.ndarray:
    """Rotating-frame emitter+modes Hamiltonian on the sector basis (vacuum, modes, excited).

    Hermitian by construction: the sector holds finite real numbers and a
    symmetric intermode matrix.
    """
    dim = sector.n_modes + 2
    h = np.zeros((dim, dim), dtype=complex)
    h[1:-1, 1:-1] = sector.intermode
    h[1:-1, -1] = h[-1, 1:-1] = sector.couplings
    for k, frequency in enumerate(sector.frequencies, start=1):
        h[k, k] = frequency - sector.omega0
    return h


def _rate_integral(rates: RateTrajectory) -> np.ndarray:
    """K(t) on the grid, the integral from t_0 of k = gamma + i(S - 2*omega0).

    It sums per-step increments, each the end-corrected trapezoid
    dt/2 (k_j + k_{j+1}) + dt^2/12 (k'_j - k'_{j+1}), O(dt^4), with the exact
    slopes. Invalid runs shorter than 3 points are bridged linearly
    (``RateGapTooWide`` otherwise); an interval with an invalid end, or a NaN
    slope, takes the plain trapezoid.
    """
    valid = rates.valid
    rate = rates.gamma + 1j * (rates.s - 2.0 * rates.omega0)
    if not valid.all():
        times = rates.grid.times
        invalid = np.flatnonzero(~valid)
        for run in np.split(invalid, np.flatnonzero(np.diff(invalid) > 1) + 1):
            if len(run) > MAX_BRIDGEABLE_GAP:
                raise RateGapTooWide(
                    f"{len(run)} consecutive invalid rate points starting at "
                    f"t={times[run[0]]:.6g}; only gaps shorter than 3 steps are bridged"
                )
            if run[0] == 0 or run[-1] == len(times) - 1:
                raise RateGapTooWide("invalid rate points at the grid boundary cannot be bridged")
        rate = np.where(valid, rate, np.interp(times, times[valid], rate[valid]))
    dt = rates.grid.dt
    steps = 0.5 * dt * (rate[:-1] + rate[1:])
    slope = np.where(valid, rates.dgamma + 1j * rates.ds, np.nan)
    correction = dt * dt / 12.0 * (slope[:-1] - slope[1:])
    increments = np.where(np.isfinite(correction), steps + correction, steps)
    return np.concatenate([[0.0], np.cumsum(increments)])


def evolve_atom_timelocal(rates: RateTrajectory, rho0: DensityMatrix) -> DensitySeries:
    """Emitter master equation with time-dependent coefficients, in closed form.

    It decouples: rho_ee(t) = rho_ee(0) exp(-Re K) and rho_eg(t) = rho_eg(0) exp(-K/2),
    with K from :func:`_rate_integral`. rho_gg = 1 - rho_ee, so the trace is
    one by construction. Output is rotating-frame, on ``rates.grid``.
    """
    if rho0.dim != 2:
        raise ValueError(f"the time-local equation acts on the emitter alone, got dim {rho0.dim}")
    exponent = _rate_integral(rates)
    ee = rho0.matrix[1, 1].real * np.exp(-exponent.real)
    coherence = rho0.matrix[1, 0] * np.exp(-0.5 * exponent)
    return DensitySeries(_emitter_entries(1.0 - ee, ee, coherence))


def evolve_lindblad_sector(
    sector: PseudomodeSector,
    rho0: DensityMatrix,
    grid: TimeGrid,
) -> DensitySeries:
    """Evolve the emitter+modes state with one leakage channel per mode, rotating frame.

    The constant Liouvillian is stepped exactly in the real coordinates of rho:
    the diagonal, then Re and Im of the upper triangle, so every state is
    exactly Hermitian. ``basis`` has orthogonal columns: its scaled adjoint is
    an exact left inverse. A mode with a zero leak rate keeps its channel.
    """
    dim = sector.n_modes + 2
    if rho0.dim != dim:
        raise SectorLeak(
            f"a {sector.n_modes}-mode sector acts on dimension {dim}, got dim {rho0.dim}"
        )
    if np.max(np.abs(rho0.matrix - rho0.matrix.conj().T)) > 1e-12:
        raise ValueError("initial state must be Hermitian")
    hamiltonian = sector_hamiltonian(sector)
    eye = np.eye(dim)
    # row-major vec(A rho B) = kron(A, B.T) vec(rho); the jump operators are real
    liouvillian = -1j * (np.kron(hamiltonian, eye) - np.kron(eye, hamiltonian.T))
    for which, rate in enumerate(sector.leak_rates, start=1):
        op = np.zeros((dim, dim))
        op[0, which] = 1.0  # lowers mode ``which`` to the joint vacuum
        num = op.T @ op
        liouvillian += rate * (np.kron(op, op) - 0.5 * (np.kron(num, eye) + np.kron(eye, num)))
    rows, cols = np.triu_indices(dim, 1)
    unit = np.eye(dim * dim)
    upper, lower = unit[rows * dim + cols], unit[cols * dim + rows]
    basis = np.concatenate([unit[:: dim + 1], upper + lower, 1j * (upper - lower)]).T
    inverse = basis.conj().T / np.sum(np.abs(basis) ** 2, axis=0)[:, None]
    generator = (inverse @ liouvillian @ basis).real
    coords = _propagate_constant(generator, (inverse @ rho0.matrix.ravel()).real, grid)
    return DensitySeries((coords @ basis.T).reshape(-1, dim, dim))


def evolve_lindblad_single(model: Reservoir, rho0: DensityMatrix, grid: TimeGrid) -> DensitySeries:
    """:func:`evolve_lindblad_sector` on ``model.sector``, for a one-mode sector."""
    return evolve_lindblad_sector(model.sector, rho0, grid)


def evolve_lindblad_double(model: Reservoir, rho0: DensityMatrix, grid: TimeGrid) -> DensitySeries:
    """:func:`evolve_lindblad_sector` on ``model.sector``, for a two-mode sector."""
    return evolve_lindblad_sector(model.sector, rho0, grid)


def partial_trace_pseudomodes(
    rho: DensityMatrix | DensitySeries,
) -> DensityMatrix | DensitySeries:
    """Reduce an extended-sector state (or series) to the emitter alone.

    The ground population collects every emitter-ground diagonal entry; the
    only surviving coherence pairs |e, vacuum> with |g, vacuum> because all
    other cross terms involve orthogonal mode states.
    """
    if rho.dim == 2:
        raise ValueError("state is already emitter-only")
    m = _entries(rho)
    last = rho.dim - 1
    ground = np.trace(m[..., :last, :last], axis1=-2, axis2=-1)
    return type(rho)(_emitter_entries(ground, m[..., last, last], m[..., last, 0]))


def partial_trace_atom(rho: DensityMatrix | DensitySeries) -> np.ndarray:
    """Mode marginal of an extended-sector state (both modes as one subsystem).

    A series gives an ``(n, d-1, d-1)`` array.
    """
    if rho.dim == 2:
        raise ValueError("state carries no mode factor")
    m = _entries(rho)
    last = rho.dim - 1
    out = np.array(m[..., :last, :last])
    out[..., 0, 0] += m[..., last, last]
    return out


def density_series_lab_frame(
    densities: DensitySeries, omega0: float, times: np.ndarray
) -> DensitySeries:
    """Dress a rotating-frame density series with the carrier phase.

    The rotating frame removes exp(i*omega0*t) per excitation, so entry
    (i, j) regains the phase exp(-i*omega0*t*(n_i - n_j)) with n the
    excitation number of the basis state (0 for the joint vacuum, 1
    otherwise). Populations and vacuum-diagonal blocks are unchanged.
    """
    times = np.asarray(times, dtype=float)
    if len(densities) != len(times):
        raise ValueError(f"{len(densities)} states for {len(times)} time points")
    excitation = np.ones(densities.dim)
    excitation[0] = 0.0
    # single exp per entry keeps the diagonal exactly one
    gaps = excitation[:, None] - excitation[None, :]
    phase = np.exp(-1j * omega0 * times[:, None, None] * gaps)
    return DensitySeries(densities.matrices * phase)


def atom_density_from_amplitudes(
    traj: AmplitudeTrajectory, vacuum_amplitude: complex = 0.0
) -> DensitySeries:
    """Emitter state series reconstructed from a pure amplitude solution.

    Valid when the initial joint state was pure with vacuum component
    ``vacuum_amplitude`` and unit total norm: the norm lost by the amplitude
    vector accumulates in the ground population.
    """
    c1 = traj.c1
    # hypot then pow rounds like the scalar abs(c1) ** 2; np.abs(c1) ** 2 can
    # differ in the last bit
    ee = np.float_power(np.hypot(c1.real, c1.imag), 2.0)
    coh = c1 * np.conj(complex(vacuum_amplitude))
    return DensitySeries(_emitter_entries(1.0 - ee, ee, coh))


def _extended_vectors(traj: AmplitudeTrajectory, vacuum_amplitude: complex) -> np.ndarray:
    """phi(t) on the sector basis (vacuum, modes, excited) of an amplitude solution.

    The amplitude vector is (excited, modes); the vacuum amplitude is frozen.
    """
    states = traj.states
    phi = np.empty((len(states), states.shape[1] + 1), dtype=complex)
    phi[:, 0] = vacuum_amplitude
    phi[:, 1:-1] = states[:, 1:]
    phi[:, -1] = states[:, 0]
    return phi


def extended_density_from_amplitudes(
    traj: AmplitudeTrajectory, vacuum_amplitude: complex = 0.0
) -> DensitySeries:
    """Extended-sector state series reconstructed from a pure amplitude solution.

    Each state is |phi(t)><phi(t)| plus the lost norm parked in the joint
    vacuum, with phi ordered on the sector basis (vacuum, modes, excited).
    """
    phi = _extended_vectors(traj, vacuum_amplitude)
    rho = phi[:, :, None] * phi[:, None, :].conj()
    # a batched matmul rounds each norm as np.vdot(phi, phi) does
    rho[:, 0, 0] += 1.0 - (phi.conj()[:, None, :] @ phi[:, :, None])[:, 0, 0].real
    return DensitySeries(rho)
