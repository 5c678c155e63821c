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
Whole-series operations (validation, spectra, invariant checks, the
Lindblad fill, the carrier phase) run over chunks of ``_CHUNK_BYTES`` of
matrices, so their scratch stays fixed while the series grows; the stacks
the library builds become series without a copy. A Lindblad series can
also be streamed, never held whole (:class:`_LindbladStream`). A spectrum
(``_spectrum``) of 2x2 matrices takes a closed form, and larger matrices
go to ``eigvalsh``.

From a pure start every state of the sector has rank two. A jump takes the
one excitation to the joint vacuum, which is stationary, so the Lindblad
state is the mixture of the no-jump state and the jumped members (Dalibard,
Castin & Mølmer, PRL 68, 580 (1992)): rho(t) = |Phi><Phi| + mu |vac><vac|,
with Phi = v|vac> + phi(t), phi(t) the amplitude solution, v =
``traj.vacuum`` and mu = 1 - v^2 - |phi|^2 the jumped weight. The joint
state and both marginals are then trace-one 2x2 blocks whose spectra are
closed forms in the populations of the amplitude solution
(:func:`_rank_two_spectra`). The ``info`` entropies read them, and the
distance of a Lindblad state from this reconstruction bounds its spectrum
(:func:`_certified_defects`).

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

from .amplitudes import AmplitudeTrajectory, _ladder, _ladder_chunks
from .errors import InvalidRates, SectorLeak
from .models import PseudomodeSector, TimeGrid
from .rates import RateTrajectory

__all__ = [
    "basis_labels",
    "DensityMatrix",
    "DensitySeries",
    "sector_hamiltonian",
    "evolve_atom_timelocal",
    "evolve_lindblad_sector",
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


#: largest end correction dt^2/12 |k'_j - k'_{j+1}| of a resolved step of the
#: rate integral; the presets stay below 6e-5 from 1000 to 16 000 points, and
#: the pole of the rate at a zero of c1 between grid points gives 11 or more
MAX_END_CORRECTION = 1e-3


#: bytes of complex matrices per chunk of a whole-series operation
_CHUNK_BYTES = 1 << 20


def _chunk_rows(dim: int) -> int:
    """Complex ``(dim, dim)`` matrices in ``_CHUNK_BYTES``, at least one."""
    return max(1, _CHUNK_BYTES // (16 * dim * dim))


def _chunks(n: int, dim: int) -> list[slice]:
    """Consecutive slices of ``range(n)`` of ``_chunk_rows(dim)`` matrices, the last shorter."""
    rows = _chunk_rows(dim)
    return [slice(start, min(start + rows, n)) for start in range(0, n, rows)]


def _stream_rows(dim: int) -> int:
    """Rows per chunk of a Lindblad stream: the largest power of two at most half of
    ``_chunk_rows(dim)``, at least one, so that a chunk's states and the scratch of
    its checks take about 1.5 MiB together."""
    return 1 << max(0, (_chunk_rows(dim) // 2).bit_length() - 1)


def _checked(mat: np.ndarray, ndim: int, expected: str) -> np.ndarray:
    """``mat``, a C-ordered complex array, made read-only once its shape and entries pass."""
    if mat.ndim != ndim or mat.shape[-1] != mat.shape[-2] or mat.size == 0:
        raise ValueError(f"expected {expected}, got shape {mat.shape}")
    dim = mat.shape[-1]
    if dim < 2:
        raise ValueError(f"unsupported dimension {dim}; expected at least 2")
    stack = mat.reshape(-1, dim, dim)
    if not all(np.isfinite(stack[rows].view(float)).all() for rows in _chunks(len(stack), dim)):
        raise ValueError("matrix entries must be finite")
    mat.setflags(write=False)
    return mat


def _validated(matrices, ndim: int, expected: str) -> np.ndarray:
    """Read-only complex copy with square trailing axes of a sector dimension (at least 2)."""
    return _checked(np.array(matrices, dtype=complex, order="C"), ndim, expected)


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


_STACK = "a non-empty (n, d, d) stack"


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
        stack = _validated(self.matrices, 3, _STACK)
        object.__setattr__(self, "matrices", stack)

    @classmethod
    def _adopt(cls, stack: np.ndarray) -> "DensitySeries":
        """Series on ``stack`` itself: a C-ordered complex stack the library has just
        built and holds nowhere else, checked like any stack and made read-only."""
        series = object.__new__(cls)
        object.__setattr__(series, "matrices", _checked(stack, 3, _STACK))
        return series

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


def _spectrum(matrices: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of the Hermitized part 0.5 (a + a^H) of one matrix or a stack
    (last two axes), taken chunk by chunk (``_chunks``): 2x2 matrices by
    :func:`_two_by_two_spectrum`, larger ones by ``eigvalsh``, one call per chunk."""
    dim = matrices.shape[-1]
    stack = matrices.reshape(-1, dim, dim)
    values = np.empty(stack.shape[:-1])
    for rows in _chunks(len(stack), dim):
        chunk = stack[rows]
        if dim == 2:
            values[rows] = _two_by_two_spectrum(chunk)
        else:
            hermitized = np.conj(np.swapaxes(chunk, -1, -2))
            hermitized += chunk
            hermitized *= 0.5
            values[rows] = np.linalg.eigvalsh(hermitized)
    return values.reshape(matrices.shape[:-1])


def _two_by_two_spectrum(chunk: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues ``(n, 2)`` of the Hermitized 2x2 matrices of ``chunk``.

    A diagonal matrix gives its sorted diagonal. Any other one is scaled by
    the power of two that puts its largest part in [0.5, 1), which is exact,
    so that its determinant a c - |b|^2 cannot overflow, and takes
    :func:`_pair_spectrum`.
    """
    a, c = chunk[:, 0, 0].real, chunk[:, 1, 1].real
    b = np.abs(chunk[:, 0, 1] + np.conj(chunk[:, 1, 0]))
    b *= 0.5
    values = np.stack([np.minimum(a, c), np.maximum(a, c)], axis=-1)
    coupled = b != 0.0
    if coupled.any():
        a, c, b = a[coupled], c[coupled], b[coupled]
        _, exponent = np.frexp(np.maximum(np.maximum(np.abs(a), np.abs(c)), b))
        a, c, b = (np.ldexp(part, -exponent) for part in (a, c, b))
        pair = _pair_spectrum(a + c, np.hypot(a - c, 2.0 * b), a * c - b * b)
        values[coupled] = np.ldexp(pair, exponent[:, None])
    return values


def _pair_spectrum(total, root, det) -> np.ndarray:
    """Ascending eigenvalues ``(n, 2)`` of Hermitian 2x2 matrices [[a, b], [b*, c]] from their
    trace a + c, the root hypot(a - c, 2|b|) of their discriminant and their determinant.

    The eigenvalue of larger magnitude, (total +- root)/2 with the sign of
    the trace, does not cancel; the other is the determinant over it. Both
    callers pass a positive root or a trace of one, so it is never zero.
    """
    outer = 0.5 * (total + np.copysign(root, total))
    inner = det / outer
    return np.stack([np.minimum(outer, inner), np.maximum(outer, inner)], axis=-1)


def _invariant_defects(matrices: np.ndarray, eigs: np.ndarray) -> dict[str, float]:
    """Worst invariant defects of one matrix or a stack with its spectrum, or lower bounds
    on it, ``eigs``.

    The hermiticity gap max |a - a^H| is taken once per off-diagonal pair, as
    |a_ij - conj(a_ji)| over i < j (entry (j, i) has the same modulus, bit for
    bit), and as 2 |Im a_ii| on the diagonal.
    """
    dim = matrices.shape[-1]
    stack = matrices.reshape(-1, dim, dim)
    gaps, traces = zip(*(_gap_and_trace(stack[rows]) for rows in _chunks(len(stack), dim)))
    # finite entries give no NaN, so the builtin max is the worst chunk's
    return {"hermiticity": max(gaps), "trace": max(traces), "min_eigenvalue": float(eigs.min())}


def _gap_and_trace(chunk: np.ndarray) -> tuple[float, float]:
    """The worst hermiticity gap and trace deviation of the ``(n, d, d)`` stack ``chunk``."""
    dim = chunk.shape[-1]
    rows, cols = np.triu_indices(dim, 1)
    pairs = chunk[:, cols, rows]
    np.conjugate(pairs, out=pairs)
    np.subtract(chunk[:, rows, cols], pairs, out=pairs)
    diagonal = np.diagonal(chunk, axis1=-2, axis2=-1).imag
    gap = max(np.max(np.abs(pairs)), 2.0 * np.max(np.abs(diagonal)))
    trace = np.trace(chunk, axis1=-2, axis2=-1)
    return float(gap), float(np.max(np.abs(trace.real - 1.0) + np.abs(trace.imag)))


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
    slopes. ``InvalidRates`` names the first time where the series cannot be
    integrated: a rate point flagged invalid, or a step whose end correction
    is not finite or exceeds ``MAX_END_CORRECTION``.
    """
    times = rates.grid.times
    if not rates.valid.all():
        first = int(np.argmin(rates.valid))
        raise InvalidRates(
            f"rate series is invalid at t={times[first]:.6g}; the time-local "
            "generator needs finite coefficients on the whole grid"
        )
    dt = rates.grid.dt
    rate = rates.gamma + 1j * (rates.s - 2.0 * rates.omega0)
    slope = rates.dgamma + 1j * rates.ds
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


def _check_hermitian(rho0: DensityMatrix) -> None:
    """Raise ``ValueError`` unless an initial state is Hermitian to 1e-12."""
    # each route keeps only part of the state: one triangle, or its Hermitian part
    if np.max(np.abs(rho0.matrix - rho0.matrix.conj().T)) > 1e-12:
        raise ValueError("initial state must be Hermitian")


def evolve_atom_timelocal(rates: RateTrajectory, rho0: DensityMatrix) -> DensitySeries:
    """Emitter master equation with time-dependent coefficients, in closed form.

    It decouples: rho_ee(t) = rho_ee(0) exp(-Re K) and rho_eg(t) = rho_eg(0) exp(-K/2),
    with K from :func:`_rate_integral`. rho_gg = 1 - rho_ee, so the trace is
    one by construction. Output is rotating-frame, on ``rates.grid``. Near a
    zero of c1 no time-local generator exists, and ``InvalidRates`` refuses.
    """
    if rho0.dim != 2:
        raise ValueError(f"the time-local equation acts on the emitter alone, got dim {rho0.dim}")
    _check_hermitian(rho0)
    return DensitySeries._adopt(_timelocal_entries(rho0, _rate_integral(rates)))


def _timelocal_entries(rho0: DensityMatrix, exponent: np.ndarray) -> np.ndarray:
    """Emitter entries of the time-local route from ``rho0`` at the points of the rate
    integral values ``exponent``, each a function of its own point."""
    ee = rho0.matrix[1, 1].real * np.exp(-exponent.real)
    coherence = rho0.matrix[1, 0] * np.exp(-0.5 * exponent)
    return _emitter_entries(1.0 - ee, ee, coherence)


def evolve_lindblad_sector(
    sector: PseudomodeSector, rho0: DensityMatrix, grid: TimeGrid
) -> DensitySeries:
    """Evolve the emitter+modes state with one leakage channel per mode, rotating frame.

    The constant Liouvillian is stepped exactly, by the doubling ladder of
    ``amplitudes``, in the real coordinates of rho (the diagonal, then Re and
    Im of the upper triangle), so every state is exactly Hermitian. A mode
    with a zero leak rate keeps its channel. The stack is filled a chunk at a
    time from the coordinates of :class:`_LindbladStream`, so the states have
    its bits and no whole coordinate series is held beside them.
    """
    stream = _LindbladStream(sector, rho0, grid)
    dim = stream.dim
    flat = np.empty((len(stream), dim * dim), dtype=complex)
    for rows, coords in stream.coordinates():
        stream.expand(coords, flat[rows])
    return DensitySeries._adopt(flat.reshape(-1, dim, dim))


class _LindbladStream:
    """The states of :func:`evolve_lindblad_sector`, made a chunk at a time and never held
    whole; each iteration makes them anew.

    The propagators of the coordinates' doubling ladder are computed once, when
    the stream is built, which also refuses a state of the wrong dimension or
    one that is not Hermitian. Iterating yields ``(rows, part)`` over chunks of
    ``_stream_rows(dim)`` states, ``part`` the ``DensitySeries`` of the states
    ``rows``, checked finite as every series is.
    """

    def __init__(self, sector: PseudomodeSector, rho0: DensityMatrix, grid: TimeGrid):
        self.dim = sector.n_modes + 2
        if rho0.dim != self.dim:
            raise SectorLeak(
                f"a {sector.n_modes}-mode sector acts on dimension {self.dim}, got dim {rho0.dim}"
            )
        _check_hermitian(rho0)
        generator, self._x0 = _coordinate_problem(sector, rho0.matrix)
        self._propagators = _ladder(generator, grid)
        self._n = grid.n_steps
        self._basis = _coordinate_basis(self.dim)

    @property
    def basis(self) -> tuple[str, ...]:
        return basis_labels(self.dim)

    def __len__(self) -> int:
        return self._n

    def coordinates(self):
        """Yield ``(rows, coordinates)`` of the states ``rows``, chunk by chunk."""
        chunks = _ladder_chunks(self._propagators, self._x0, self._n, _stream_rows(self.dim))
        for start, coords in chunks:
            yield slice(start, start + len(coords)), coords

    def expand(self, coords: np.ndarray, out: np.ndarray) -> None:
        """Write the row-major states of the rows ``coords`` of coordinates into ``out``."""
        # cast first: a real-by-complex matmul takes a loop 3x slower, with these bits
        np.matmul(coords.astype(complex), self._basis.T, out=out)

    def __iter__(self):
        dim = self.dim
        for rows, coords in self.coordinates():
            flat = np.empty((len(coords), dim * dim), dtype=complex)
            self.expand(coords, flat)
            yield rows, DensitySeries._adopt(flat.reshape(-1, dim, dim))


def _coordinate_basis(dim: int) -> np.ndarray:
    """Row-major vec of the matrix of each real coordinate, one per column: the
    diagonal, then Re and Im of the upper triangle in ``np.triu_indices`` order."""
    rows, cols = np.triu_indices(dim, 1)
    unit = np.eye(dim * dim)
    upper, lower = unit[rows * dim + cols], unit[cols * dim + rows]
    return np.concatenate([unit[:: dim + 1], upper + lower, 1j * (upper - lower)]).T


def _coordinate_problem(sector: PseudomodeSector, rho0: np.ndarray):
    """The real generator of the Lindblad coordinates and the coordinates of ``rho0``.

    The basis of :func:`_coordinate_basis` has orthogonal columns, so its
    scaled adjoint is an exact left inverse, and the generator is real.
    """
    dim = len(rho0)
    hamiltonian = sector_hamiltonian(sector)
    eye = np.eye(dim)
    # row-major vec(A rho B) = kron(A, B.T) vec(rho); the jump operators are real
    liouvillian = -1j * (np.kron(hamiltonian, eye) - np.kron(eye, hamiltonian.T))
    for which, rate in enumerate(sector.leak_rates, start=1):
        op = np.zeros((dim, dim))
        op[0, which] = 1.0  # lowers mode ``which`` to the joint vacuum
        num = op.T @ op
        liouvillian += rate * (np.kron(op, op) - 0.5 * (np.kron(num, eye) + np.kron(eye, num)))
    basis = _coordinate_basis(dim)
    inverse = basis.conj().T / np.sum(np.abs(basis) ** 2, axis=0)[:, None]
    return (inverse @ liouvillian @ basis).real, (inverse @ rho0.ravel()).real


def partial_trace_pseudomodes(rho: DensityMatrix | DensitySeries) -> DensityMatrix | DensitySeries:
    """Reduce an extended-sector state (or series) to the emitter alone.

    The ground population collects every emitter-ground diagonal entry; the
    only surviving coherence pairs |e, vacuum> with |g, vacuum> because all
    other cross terms involve orthogonal mode states.
    """
    if rho.dim == 2:
        raise ValueError("state is already emitter-only")
    traced = _traced_entries(_entries(rho))
    return DensitySeries._adopt(traced) if isinstance(rho, DensitySeries) else DensityMatrix(traced)


def _traced_entries(m: np.ndarray) -> np.ndarray:
    """Emitter entries of extended-sector matrices ``m`` (last two axes)."""
    last = m.shape[-1] - 1
    ground = np.trace(m[..., :last, :last], axis1=-2, axis2=-1)
    return _emitter_entries(ground, m[..., last, last], m[..., last, 0])


def partial_trace_atom(rho: DensityMatrix | DensitySeries) -> np.ndarray:
    """Mode marginal of an extended-sector state (both modes as one subsystem).

    A series gives an ``(n, d-1, d-1)`` array.
    """
    if rho.dim == 2:
        raise ValueError("state carries no mode factor")
    return _mode_entries(_entries(rho))


def _mode_entries(m: np.ndarray) -> np.ndarray:
    """Mode-marginal entries of extended-sector matrices ``m`` (last two axes)."""
    last = m.shape[-1] - 1
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
    excitation = (np.arange(densities.dim) > 0).astype(float)
    # single exp per entry keeps the diagonal exactly one
    gaps = excitation[:, None] - excitation[None, :]
    dressed = np.empty_like(densities.matrices)
    for rows in _chunks(len(densities), densities.dim):
        phase = np.exp(-1j * omega0 * times[rows, None, None] * gaps)
        np.multiply(densities.matrices[rows], phase, out=dressed[rows])
    return DensitySeries._adopt(dressed)


def atom_density_from_amplitudes(traj: AmplitudeTrajectory) -> DensitySeries:
    """Emitter state series reconstructed from a pure amplitude solution.

    The joint state is pure with unit norm and vacuum component
    ``traj.vacuum``: the norm lost by the amplitude vector accumulates in the
    ground population.
    """
    return DensitySeries._adopt(_amplitude_entries(traj.c1, traj.vacuum))


def _amplitude_entries(c1: np.ndarray, vacuum: float) -> np.ndarray:
    """Emitter entries of the pure states with excited amplitudes ``c1`` and vacuum
    amplitude ``vacuum``, each a function of its own amplitude."""
    # hypot then pow rounds like the scalar abs(c1) ** 2; np.abs(c1) ** 2 can
    # differ in the last bit
    ee = np.float_power(np.hypot(c1.real, c1.imag), 2.0)
    return _emitter_entries(1.0 - ee, ee, c1 * np.conj(complex(vacuum)))


def _extended_vectors(states: np.ndarray, vacuum: float) -> np.ndarray:
    """phi(t) on the sector basis (vacuum, modes, excited) of the amplitude vectors
    ``states`` (excited, modes), rows of an ``AmplitudeTrajectory`` whose frozen
    vacuum amplitude is ``vacuum``."""
    phi = np.empty((len(states), states.shape[1] + 1), dtype=complex)
    phi[:, 0] = vacuum
    phi[:, 1:-1] = states[:, 1:]
    phi[:, -1] = states[:, 0]
    return phi


def extended_density_from_amplitudes(traj: AmplitudeTrajectory) -> DensitySeries:
    """Extended-sector state series reconstructed from a pure amplitude solution.

    Each state is |phi(t)><phi(t)| plus the lost norm parked in the joint
    vacuum, with phi ordered on the sector basis (vacuum, modes, excited).
    """
    return DensitySeries._adopt(_reconstructed(_extended_vectors(traj.states, traj.vacuum)))


def _reconstructed(phi: np.ndarray) -> np.ndarray:
    """|phi><phi| plus the lost norm 1 - |phi|^2 at the joint vacuum, for each row of ``phi``."""
    rho = phi[:, :, None] * phi[:, None, :].conj()
    # a batched matmul rounds each norm as np.vdot(phi, phi) does
    rho[:, 0, 0] += 1.0 - (phi.conj()[:, None, :] @ phi[:, :, None])[:, 0, 0].real
    return rho


def _rank_two_spectra(states: np.ndarray, vacuum: float):
    """Yield the spectra ``(n, 2)`` of the joint states of the amplitude vectors ``states``
    (rows of an ``AmplitudeTrajectory``) with vacuum amplitude ``vacuum``, then those of
    their emitter and mode marginals, each that of its trace-one 2x2 block (module
    docstring):

    - joint: [[1 - s, v sqrt(s)], [v sqrt(s), s]], determinant mu s;
    - emitter: [[1 - e, v conj(c1)], [v c1, e]], determinant e (m + mu);
    - modes: [[1 - m, v sqrt(m)], [v sqrt(m), m]], determinant m (e + mu);

    with e = |c1|^2, m the summed mode populations, s = e + m, v = ``vacuum``
    and mu = 1 - v^2 - s. A block [[1 - x, b], [conj(b), x]] has |b|^2 = v^2 x,
    so its root is sqrt((1 - 2x)^2 + 4 v^2 x), and the product form of its
    determinant does not cancel. The other eigenvalues of the joint state and
    of the mode marginal are zero.
    """
    populations = states.real**2 + states.imag**2
    e = populations[:, 0]
    m = populations[:, 1:].sum(axis=1)
    s = e + m
    v2 = vacuum * vacuum
    mu = 1.0 - v2 - s
    for x, det in ((s, mu * s), (e, e * (m + mu)), (m, m * (e + mu))):
        yield _pair_spectrum(1.0, np.sqrt((1.0 - 2.0 * x) ** 2 + 4.0 * v2 * x), det)


def _rank_two_defects(traj: AmplitudeTrajectory) -> dict[str, float]:
    """Invariant defects of the rank-two joint states of ``traj``: Hermitian by construction,
    the trace as the sum of the closed-form spectrum and the smallest eigenvalue,
    the block's smaller one or one of the zeros beside it."""
    vacuum, traces, lowest = traj.vacuum, [], [0.0]
    for rows in _chunks(len(traj.states), traj.states.shape[1] + 1):
        joint = next(_rank_two_spectra(traj.states[rows], vacuum))
        traces.append(np.max(np.abs(joint.sum(axis=1) - 1.0)))
        lowest.append(joint.min())
    return {"hermiticity": 0.0, "trace": float(max(traces)), "min_eigenvalue": float(min(lowest))}


def _certified_defects(
    series: DensitySeries, traj: AmplitudeTrajectory
) -> tuple[dict[str, float], float]:
    """Invariant defects of the Lindblad series of the pure start of ``traj`` without its
    spectrum, and the largest distance max_k delta_k from its reconstruction.

    delta_k is the Frobenius distance of state k from state k of
    :func:`extended_density_from_amplitudes`, taken chunk by chunk with no
    second stack. By Weyl's inequality every eigenvalue of state k lies within
    delta_k of one of the reconstruction, whose smallest, lambda_min(k), is
    the smaller eigenvalue of its block or one of the zeros beside it
    (:func:`_rank_two_spectra`). So ``min_eigenvalue`` is the lower bound
    min_k (lambda_min(k) - delta_k), up to the rounding of both terms.
    """
    vacuum = traj.vacuum
    return _certificate(
        _certified_terms(series.matrices[rows], traj.states[rows], vacuum)
        for rows in _chunks(len(series), series.dim)
    )


def _certified_terms(matrices: np.ndarray, states: np.ndarray, vacuum: float):
    """The terms of :func:`_certified_defects` on the Lindblad states ``matrices`` of the
    amplitude vectors ``states``: their hermiticity gap and trace deviation, the
    bound min_k (lambda_min(k) - delta_k) and max_k delta_k."""
    smaller = next(_rank_two_spectra(states, vacuum))[:, 0]
    distances = _distances(matrices, _extended_vectors(states, vacuum))
    bound = float(np.min(np.minimum(smaller, 0.0) - distances))
    return *_gap_and_trace(matrices), bound, float(distances.max())


def _certificate(terms) -> tuple[dict[str, float], float]:
    """The defects and the largest distance of :func:`_certified_defects` from the
    :func:`_certified_terms` of every chunk of a series."""
    gaps, traces, bounds, distances = zip(*terms)
    defects = {"hermiticity": max(gaps), "trace": max(traces), "min_eigenvalue": min(bounds)}
    return defects, max(distances)


def _distances(matrices: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Frobenius distance of each of ``matrices`` from its state of :func:`_reconstructed`;
    a function of its own, so that a chunk's scratch is freed before the next one's."""
    gap = _reconstructed(phi)
    np.subtract(matrices, gap, out=gap)
    parts = gap.reshape(len(gap), -1).view(float)
    return np.sqrt(np.einsum("ij,ij->i", parts, parts))
