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
the library builds become series without a copy. A spectrum calls LAPACK
only where it must (``_spectrum``): a diagonal stack is sorted, a joint
vacuum that couples to nothing is split off, a 2x2 block takes a closed
form and a 3x3 block a Jacobi iteration. Of a preset run from |e> nothing
reaches LAPACK; the joint states of three or more modes do.

The spectral kernel reads Hermitian parts, the real diagonal and the upper
triangle, and a stack is only one source of them. The Lindblad route steps
real coordinates (:func:`_lindblad_coordinates`); ``evolve_lindblad_sector``
expands them into a stack, while ``_CoordinateSeries`` hands their parts to
the kernel directly, with the same bits and without a complex stack. The
``info`` experiment reads its states that way.

The extended basis of an n-mode ``PseudomodeSector`` is the joint vacuum,
one excitation in each mode in sector order, then the excited emitter, so
dim = n + 2 and dim 2 is the emitter alone. The labels of
:func:`basis_labels` name the emitter level, then the occupation of each
mode: ``g0…0``, ``g`` with a ``1`` in mode k's position for each k, then
``e0…0``. So dim 2 is (g, e), dim 3 is (g0, g1, e0) and dim 4 is
(g00, g10, g01, e00).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .amplitudes import AmplitudeTrajectory, _propagate_constant
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


def _expanding_chunks(n: int, dim: int) -> list[slice]:
    """Consecutive slices [a, b) of ``range(1, n)`` of at most ``_chunk_rows(dim)``
    matrices with b <= 2a: 1, 2, 4, ... matrices until they reach that size."""
    rows, start, out = _chunk_rows(dim), 1, []
    while start < n:
        stop = min(start + min(start, rows), n)
        out.append(slice(start, stop))
        start = stop
    return out


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

    def _parts(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        """Hermitian parts of the states ``rows``, as :func:`_stack_parts` gives them."""
        return _stack_parts(self.matrices[rows])


class _CoordinateSeries:
    """Hermitian states held by their real coordinates, a read-only ``(n, d*d)`` array:
    the diagonal, then Re and Im of the upper triangle in ``_upper_indices`` order.

    It offers what ``info.info_series`` and the invariant checks read of a
    ``DensitySeries``, taken from the coordinates without a complex stack:
    ``len``, ``dim``, ``eigenvalues``, ``invariant_defects`` and the Hermitian
    parts of a slice of states. The parts have the values a stack of the
    same states gives (its diagonal, and u_ij = x_ij + i y_ij), so the
    spectra have the same bits. The coordinates are checked finite, as a
    stack is, and made read-only. A plain class, not a dataclass, so that
    defining it costs the import nothing measurable.
    """

    def __init__(self, coordinates: np.ndarray) -> None:
        self.coordinates = coordinates
        self.dim = math.isqrt(coordinates.shape[1])
        if not all(np.isfinite(coordinates[rows]).all() for rows in _chunks(len(self), self.dim)):
            raise ValueError("matrix entries must be finite")
        coordinates.setflags(write=False)

    def __len__(self) -> int:
        return self.coordinates.shape[0]

    def _parts(self, rows: slice) -> tuple[np.ndarray, np.ndarray]:
        dim = self.dim
        coords = self.coordinates[rows]
        pairs = dim * (dim - 1) // 2
        upper = np.empty((len(coords), pairs), dtype=complex)
        upper.real = coords[:, dim : dim + pairs]
        upper.imag = coords[:, dim + pairs :]
        return coords[:, :dim], upper

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """Read-only spectrum of every state, ``(n, d)``, computed once."""
        eigs = np.empty((len(self), self.dim))
        for rows in _chunks(len(self), self.dim):
            _parts_spectrum(*self._parts(rows), eigs[rows])
        eigs.setflags(write=False)
        return eigs

    def invariant_defects(self) -> dict[str, float]:
        """What ``DensitySeries.invariant_defects`` reads on the expanded states: the
        states are Hermitian by construction, so the hermiticity gap is 0."""
        dim = self.dim
        traces = [
            np.max(np.abs(_diagonal_sum(self.coordinates[rows, :dim]) - 1.0))
            for rows in _chunks(len(self), dim)
        ]
        return {
            "hermiticity": 0.0,
            "trace": float(max(traces)),
            "min_eigenvalue": float(self.eigenvalues.min()),
        }


#: ``?heevd`` rescales a matrix whose largest entry lies outside about
#: [1e-146, 1e146]; the shortcuts of ``_spectrum`` act only well inside
_UNSCALED = (1e-140, 1e140)
#: ``dlasrt`` sorts up to 20 values by insertion, which keeps ties in order
_MAX_SORTED_DIM = 20
#: a rotation of :func:`_jacobi` acts on a matrix while its coupling exceeds
#: this fraction of the block's largest |entry|
_JACOBI_FLOOR = 2.0**-60
#: sweeps after which :func:`_jacobi` gives up on a matrix still rotating
_JACOBI_SWEEPS = 8


def _spectrum(matrices: np.ndarray) -> np.ndarray:
    """Eigenvalues of the Hermitized part of one matrix or a stack (last two axes).

    The stack is taken chunk by chunk (``_chunks``). Each chunk is routed from
    the entries its kernels read (:func:`_parts_spectrum`): the real diagonal
    and the Hermitized upper triangle 0.5 (a_ij + conj(a_ji)), which has the
    bits of 0.5 (a + a^H). A chunk, or each matrix of it, takes the first of
    these routes that applies. Only the closed form and Jacobi give other
    bits than ``eigvalsh``, and they are chosen matrix by matrix, so a
    matrix of a series gets the bits it gets alone.

    - Diagonal, for a whole chunk of dimension at most ``_MAX_SORTED_DIM``:
      every off-diagonal entry is exactly zero, and the largest entry of each
      matrix is zero or inside ``_UNSCALED``. Its real diagonal, stably
      sorted, is the spectrum. The emitter states of runs that start in |e>
      are such stacks. On them LAPACK's ``?heevd`` applies zero reflectors
      (``?hetd2``), splits the tridiagonal matrix into 1x1 blocks
      (``dsterf``) and sorts them by insertion (``dlasrt``), so it returns
      the same bits; it would rescale a matrix with a larger or smaller
      largest entry (a density matrix has trace one, so its largest entry is
      at least 1/d).
    - A block kernel, for each matrix of dimension 2 to 4 whose every nonzero
      real and imaginary part lies inside ``_UNSCALED``. Where row 0 is zero
      off the diagonal, the joint vacuum couples to nothing: entry [0, 0] is
      an eigenvalue, merged in by a stable sort, and the block is what is
      left. A 2x2 block, such as an emitter state with a coherence or the
      mode marginal of a two-mode run, takes the closed form of
      :func:`_closed_form`; a 3x3 block, the joint state of a two-mode run
      from |e> or the coupled joint state of a one-mode run, takes
      :func:`_jacobi`.
    - Otherwise ``eigvalsh``, which works matrix by matrix, one call per
      chunk: a larger block, a matrix with a part LAPACK could rescale or
      that is not finite, and one that Jacobi left unconverged. It gets the
      Hermitian matrices rebuilt from the parts (:func:`_hermitian`).
    """
    dim = matrices.shape[-1]
    stack = matrices.reshape(-1, dim, dim)
    values = np.empty(stack.shape[:-1])
    for rows in _chunks(len(stack), dim):
        _chunk_spectrum(stack[rows], values[rows])
    return values.reshape(matrices.shape[:-1])


def _chunk_spectrum(chunk: np.ndarray, out: np.ndarray) -> None:
    """Write the spectra of the matrices of ``chunk`` to ``out``, routed as :func:`_spectrum` says."""
    _parts_spectrum(*_stack_parts(chunk), out)


def _stack_parts(chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Hermitian parts of the matrices of ``chunk``: the real diagonal ``(n, d)`` and
    the upper triangle 0.5 (a_ij + conj(a_ji)) ``(n, d(d-1)/2)`` in ``_upper_indices`` order."""
    rows, cols = _upper_indices(chunk.shape[-1])
    upper = chunk[:, cols, rows]
    np.conjugate(upper, out=upper)
    upper += chunk[:, rows, cols]
    upper *= 0.5
    # the Hermitized diagonal: a + conj(a), halved, is exactly its real part
    return np.diagonal(chunk, axis1=-2, axis2=-1).real, upper


def _parts_spectrum(diagonal: np.ndarray, upper: np.ndarray, out: np.ndarray) -> None:
    """Write the spectra of the Hermitian matrices with real ``diagonal`` and upper
    triangle ``upper`` (as :func:`_stack_parts` gives them) to ``out``, routed as
    :func:`_spectrum` says."""
    n, dim = diagonal.shape
    lapack = np.ones(n, dtype=bool)
    if dim <= _MAX_SORTED_DIM:
        if not upper.any():
            out[...] = diagonal
            out.sort(axis=-1, kind="stable")
            # the largest magnitude is at one end of a sorted row, a NaN at the last
            if _unscaled(np.maximum(np.abs(out[:, :1]), np.abs(out[:, -1:]))).all():
                return
        if dim <= 4:
            # the block left once a decoupled vacuum is split off
            coupled = upper[:, : dim - 1].any(axis=1) | (dim == 2)
            size = np.where(coupled, dim, dim - 1)
            lapack = size > 3
            for part in (diagonal, upper.real, upper.imag):
                lapack |= ~_unscaled(part)
            for block in (2, 3):
                take = ~lapack & (size == block)
                if take.all():
                    out[...], converged = _split_spectrum(diagonal, upper, block)
                    lapack = ~converged
                elif take.any():
                    out[take], converged = _split_spectrum(diagonal[take], upper[take], block)
                    lapack[take] = ~converged
    if lapack.all():
        out[...] = np.linalg.eigvalsh(_hermitian(diagonal, upper))
    elif lapack.any():
        out[lapack] = np.linalg.eigvalsh(_hermitian(diagonal[lapack], upper[lapack]))


def _hermitian(diagonal: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """The Hermitian matrices with real ``diagonal`` (imaginary part +0) and upper
    triangle ``upper``, its conjugate below: the values of 0.5 (a + a^H) of the
    matrices the parts were taken from."""
    n, dim = diagonal.shape
    rows, cols = _upper_indices(dim)
    out = np.zeros((n, dim, dim), dtype=complex)
    out[:, range(dim), range(dim)] = diagonal
    out[:, rows, cols] = upper
    out[:, cols, rows] = upper.conj()
    return out


def _unscaled(parts: np.ndarray) -> np.ndarray:
    """Whether every nonzero entry of each row of ``parts`` lies inside ``_UNSCALED``."""
    low, high = _UNSCALED
    parts = np.abs(parts)
    # a NaN fails the comparisons
    return np.all((parts == 0.0) | ((parts >= low) & (parts <= high)), axis=1)


@lru_cache(maxsize=None)
def _upper_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only row and column indices of the strict upper triangle at ``dim``."""
    indices = np.triu_indices(dim, 1)
    for index in indices:
        index.setflags(write=False)
    return indices


def _split_spectrum(diagonal: np.ndarray, upper: np.ndarray, block: int):
    """Ascending spectra ``(n, d)`` of Hermitian matrices, given by their real
    diagonal and upper triangle, that couple only within their trailing
    ``block`` x ``block`` block; and which of them converged.

    Entry [0, 0] of a matrix larger than its block is an eigenvalue.
    """
    if block == 2:
        eigs = _closed_form(diagonal[:, -2], diagonal[:, -1], upper[:, -1])
        converged = np.ones(len(eigs), dtype=bool)
    else:
        eigs, converged = _jacobi(diagonal[:, -3:], upper[:, -3:])
    values = np.empty(diagonal.shape)
    values[:, 0] = diagonal[:, 0]
    values[:, -block:] = eigs
    if block == 3 or diagonal.shape[-1] > block:
        values.sort(axis=-1, kind="stable")
    return values, converged


def _closed_form(a: np.ndarray, c: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues ``(n, 2)`` of the Hermitian 2x2 matrices [[a, b], [b*, c]],
    b = ``coupling``.

    LAPACK's ``dlae2``, vectorized, on the diagonal a, c and the coupling
    |b|: rt1 = (sm +- hypot(a - c, 2|b|))/2 takes the sign of sm = a + c, so
    it does not cancel, and rt2 = (acmx/rt1) acmn - (|b|/rt1) |b|, where
    acmx and acmn are the diagonal entries of larger and smaller magnitude;
    at sm = 0 they are +-hypot/2. A block with b = 0 keeps its diagonal,
    stably sorted, the bits of ``eigvalsh``. Every nonzero part must lie
    within ``_UNSCALED``, so nothing overflows or underflows. On the presets'
    blocks the error against mpmath is at most 5.6e-16 of the block's
    largest |entry|, where ``eigvalsh`` reads up to 1.2e-15
    (``scripts/spectrum_errors.py``).
    """
    b = np.abs(coupling)
    sm = a + c
    rt = np.hypot(a - c, 2.0 * b)
    rt1 = 0.5 * np.where(sm < 0.0, sm - rt, sm + rt)
    larger = np.abs(a) > np.abs(c)
    acmx, acmn = np.where(larger, a, c), np.where(larger, c, a)
    # rt1 is zero only on a zero block, whose b is zero
    pivot = np.where(rt1 == 0.0, 1.0, rt1)
    rt2 = np.where(sm == 0.0, -rt1, (acmx / pivot) * acmn - (b / pivot) * b)
    swap = c < a
    coupled = b != 0.0
    out = np.empty((len(b), 2))
    out[:, 0] = np.where(coupled, np.minimum(rt1, rt2), np.where(swap, c, a))
    out[:, 1] = np.where(coupled, np.maximum(rt1, rt2), np.where(swap, a, c))
    return out


def _jacobi(diagonal: np.ndarray, upper: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues ``(n, 3)``, in no order, of Hermitian 3x3 matrices given by their
    real diagonal and upper triangle (a01, a02, a12); and which of them converged.

    Cyclic Jacobi with complex rotations (Demmel & Veselić, SIAM J. Matrix
    Anal. Appl. 13, 1204 (1992)), vectorized over the stack. A rotation on
    (p, q) zeroes a_pq = b e^(i phi): it rephases q by e^(-i phi), which makes
    the coupling b real, then applies the real rotation of Rutishauser's
    formulas with t = 2b sgn(d)/(|d| + sqrt(d^2 + 4b^2)), d = a_qq - a_pp,
    c = 1/sqrt(1 + t^2), s = t c and tau = s/(1 + c):
    a_pp -= t b, a_qq += t b, and for the third index r, with y = a_rq e^(-i phi),
    a_rp -= s (y + tau a_rp) and y += s (a_rp - tau y). The couplings are held
    as A01, A12, A20, so the rotations (0, 1), (1, 2), (2, 0) of a sweep read
    them alike. A rotation acts on a matrix only while b exceeds
    ``_JACOBI_FLOOR`` of the largest |entry| of that matrix, so each matrix
    gets the bits it gets alone; what is left off the diagonal moves an
    eigenvalue by less than that. A matrix still rotating after
    ``_JACOBI_SWEEPS`` sweeps has not converged. Every nonzero part must lie
    within ``_UNSCALED``, so no square overflows. The presets' blocks
    converge in two sweeps.
    """
    d = np.array(diagonal.T)
    w = np.empty((3, 2, len(d[0])))
    w[0, 0], w[0, 1] = upper[:, 0].real, upper[:, 0].imag
    w[1, 0], w[1, 1] = upper[:, 2].real, upper[:, 2].imag
    w[2, 0], w[2, 1] = upper[:, 1].real, -upper[:, 1].imag
    floor = np.maximum(np.max(d * d, axis=0), np.max(np.sum(w * w, axis=1), axis=0))
    floor *= _JACOBI_FLOOR**2
    for _ in range(_JACOBI_SWEEPS):
        if not any([_rotate(d, w, floor, p) for p in range(3)]):
            break
    converged = np.all(np.sum(w * w, axis=1) <= floor, axis=0)
    return d.T, converged


def _rotate(d: np.ndarray, w: np.ndarray, floor: np.ndarray, p: int) -> bool:
    """The rotation of :func:`_jacobi` on (p, p + 1 mod 3), in place on the diagonal
    ``d`` and the couplings ``w`` of every matrix whose squared coupling exceeds
    ``floor``; whether any matrix rotated."""
    q, r = (p + 1) % 3, (p + 2) % 3
    b2 = np.sum(w[p] * w[p], axis=0)
    active = b2 > floor
    if active.all():
        where = True
    elif active.any():
        # the others are left alone; b = 1 keeps their lanes finite
        where = active
        b2[~active] = 1.0
    else:
        return False
    b = np.sqrt(b2)
    delta = d[q] - d[p]
    # in place, as the arrays of a chunk are what the kernel holds: b2 becomes
    # |delta| + sqrt(delta^2 + 4b^2), then 1 + c; c becomes 1/b once s and tau
    # are formed, and t becomes t b at the end
    b2 *= 4.0
    b2 += delta * delta
    np.sqrt(b2, out=b2)
    b2 += np.abs(delta)
    t = np.copysign(2.0 * b, delta)
    t /= b2
    c = t * t
    c += 1.0
    np.sqrt(c, out=c)
    np.reciprocal(c, out=c)
    s = t * c
    tau = np.add(c, 1.0, out=b2)
    np.divide(s, tau, out=tau)
    (ur, ui), (xr, xi), (yr, yi) = w[p], w[r], w[q]
    # z = A_qr e^(i phi), the conjugate of y
    np.reciprocal(b, out=c)
    zr, zi = (yr * ur - yi * ui) * c, (yr * ui + yi * ur) * c
    np.add(zr, s * (xr - tau * zr), out=yr, where=where)
    np.subtract(zi, s * (xi + tau * zi), out=yi, where=where)
    np.subtract(xr, s * (zr + tau * xr), out=xr, where=where)
    np.add(xi, s * (zi - tau * xi), out=xi, where=where)
    np.copyto(w[p], 0.0, where=where)
    t *= b
    np.subtract(d[p], t, out=d[p], where=where)
    np.add(d[q], t, out=d[q], where=where)
    return True


def _invariant_defects(matrices: np.ndarray, eigs: np.ndarray) -> dict[str, float]:
    """Worst invariant defects of one matrix or a stack with its spectrum ``eigs``.

    The hermiticity gap max |a - a^H| is taken once per off-diagonal pair, as
    |a_ij - conj(a_ji)| over i < j (entry (j, i) has the same modulus, bit for
    bit), and as 2 |Im a_ii| on the diagonal.
    """
    dim = matrices.shape[-1]
    stack = matrices.reshape(-1, dim, dim)
    rows, cols = _upper_indices(dim)
    gaps, traces = [], []
    for span in _chunks(len(stack), dim):
        chunk = stack[span]
        pairs = chunk[:, cols, rows]
        np.conjugate(pairs, out=pairs)
        np.subtract(chunk[:, rows, cols], pairs, out=pairs)
        diagonal = np.diagonal(chunk, axis1=-2, axis2=-1).imag
        gaps.append(max(np.max(np.abs(pairs)), 2.0 * np.max(np.abs(diagonal))))
        trace = np.trace(chunk, axis1=-2, axis2=-1)
        traces.append(np.max(np.abs(trace.real - 1.0) + np.abs(trace.imag)))
    # finite entries give no NaN, so the builtin max is the worst chunk's
    return {
        "hermiticity": float(max(gaps)),
        "trace": float(max(traces)),
        "min_eigenvalue": float(eigs.min()),
    }


def _diagonal_sum(diagonal: np.ndarray) -> np.ndarray:
    """Sums of the real diagonals ``(n, k)``, added as complex numbers: the order, and
    so the bits, of the real part of ``np.trace`` on the matrices (a real sum adds
    in another order from k = 4 on)."""
    return diagonal.astype(complex).sum(axis=-1).real


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
    exponent = _rate_integral(rates)
    ee = rho0.matrix[1, 1].real * np.exp(-exponent.real)
    coherence = rho0.matrix[1, 0] * np.exp(-0.5 * exponent)
    return DensitySeries._adopt(_emitter_entries(1.0 - ee, ee, coherence))


def evolve_lindblad_sector(
    sector: PseudomodeSector, rho0: DensityMatrix, grid: TimeGrid
) -> DensitySeries:
    """Evolve the emitter+modes state with one leakage channel per mode, rotating frame.

    The constant Liouvillian is stepped exactly in the real coordinates of rho
    (:func:`_lindblad_coordinates`), so every state is exactly Hermitian. A
    mode with a zero leak rate keeps its channel.

    The d*d real coordinates of a state take half the bytes of its complex
    matrix, so the propagator writes them into the first half of the
    returned stack itself, and the states are expanded in place from them
    over the chunks of :func:`_expanding_chunks`, the last first: the states
    [a, b) of a chunk, b <= 2a, overwrite coordinate rows [2a, 2b), which the
    chunks after it have read and the chunks before it do not read. State 0
    comes last, from a copy of its row. Each chunk has the bits of one
    product of the whole stack.
    """
    n, dim = grid.n_steps, sector.n_modes + 2
    flat = None

    def in_stack(shape, dtype):
        nonlocal flat
        flat = np.empty((n, dim * dim), dtype=complex)
        return flat.reshape(-1).view(float)[: n * dim * dim].reshape(shape)

    coords = _lindblad_coordinates(sector, rho0, grid, in_stack)
    basis = _coordinate_basis(dim)
    first = coords[:1].copy()
    for rows in reversed(_expanding_chunks(n, dim)):
        np.matmul(coords[rows], basis.T, out=flat[rows])
    np.matmul(first, basis.T, out=flat[:1])
    return DensitySeries._adopt(flat.reshape(n, dim, dim))


def _coordinate_basis(dim: int) -> np.ndarray:
    """Row-major vec of the matrix of each real coordinate, one per column: the
    diagonal, then Re and Im of the upper triangle in ``_upper_indices`` order."""
    rows, cols = _upper_indices(dim)
    unit = np.eye(dim * dim)
    upper, lower = unit[rows * dim + cols], unit[cols * dim + rows]
    return np.concatenate([unit[:: dim + 1], upper + lower, 1j * (upper - lower)]).T


def _lindblad_coordinates(
    sector: PseudomodeSector, rho0: DensityMatrix, grid: TimeGrid, empty=np.empty
) -> np.ndarray:
    """Real coordinates ``(n, d*d)`` of the states of :func:`evolve_lindblad_sector`,
    written into ``empty(shape, dtype)`` by ``amplitudes._propagate_constant``.

    The basis of :func:`_coordinate_basis` has orthogonal columns, so its
    scaled adjoint is an exact left inverse, and the generator is real.
    """
    dim = sector.n_modes + 2
    if rho0.dim != dim:
        raise SectorLeak(
            f"a {sector.n_modes}-mode sector acts on dimension {dim}, got dim {rho0.dim}"
        )
    _check_hermitian(rho0)
    generator, x0 = _coordinate_problem(sector, rho0.matrix)
    return _propagate_constant(generator, x0, grid, empty)


def _coordinate_problem(sector: PseudomodeSector, rho0: np.ndarray):
    """The real generator of the Lindblad coordinates and the coordinates of ``rho0``."""
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
    c1 = traj.c1
    # hypot then pow rounds like the scalar abs(c1) ** 2; np.abs(c1) ** 2 can
    # differ in the last bit
    ee = np.float_power(np.hypot(c1.real, c1.imag), 2.0)
    coh = c1 * np.conj(complex(traj.vacuum))
    return DensitySeries._adopt(_emitter_entries(1.0 - ee, ee, coh))


def _extended_vectors(traj: AmplitudeTrajectory) -> np.ndarray:
    """phi(t) on the sector basis (vacuum, modes, excited) of an amplitude solution.

    The amplitude vector is (excited, modes); the vacuum amplitude
    ``traj.vacuum`` is frozen.
    """
    states = traj.states
    phi = np.empty((len(states), states.shape[1] + 1), dtype=complex)
    phi[:, 0] = traj.vacuum
    phi[:, 1:-1] = states[:, 1:]
    phi[:, -1] = states[:, 0]
    return phi


def extended_density_from_amplitudes(traj: AmplitudeTrajectory) -> DensitySeries:
    """Extended-sector state series reconstructed from a pure amplitude solution.

    Each state is |phi(t)><phi(t)| plus the lost norm parked in the joint
    vacuum, with phi ordered on the sector basis (vacuum, modes, excited).
    """
    phi = _extended_vectors(traj)
    rho = phi[:, :, None] * phi[:, None, :].conj()
    # a batched matmul rounds each norm as np.vdot(phi, phi) does
    rho[:, 0, 0] += 1.0 - (phi.conj()[:, None, :] @ phi[:, :, None])[:, 0, 0].real
    return DensitySeries._adopt(rho)
