"""Entropy and correlation diagnostics along density-matrix series.

One kernel computes spectral entropies from the spectrum of a matrix or a
stack, and each matrix takes its own spectrum route, so ``info_series``
and ``von_neumann_entropy`` give the same bits; a series' spectrum is
computed once and shared with its checks. Of a run from |e> only states
of dimension 5 or more call LAPACK (``density._spectrum``), so no preset
does: the emitter marginal is diagonal and is sorted, with the bits of
``eigvalsh``; a joint state or mode marginal splits off its decoupled
vacuum, and the block that remains takes a closed form if it is 2x2 and
a Jacobi iteration if it is 3x3, both of which differ from ``eigvalsh`` at
rounding level. ``info_series`` works chunk by chunk, so its scratch stays
fixed while the series grows. The joint spectrum, computed once and
shared with the series' checks, and both marginals come from the
Hermitian parts of each chunk: the real diagonal and the upper triangle.
The ``info`` experiment hands it the Lindblad route's real coordinates
(``density._CoordinateSeries``), whose parts are read off without a
complex stack; a ``DensitySeries`` gives the same parts and so the same
bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityMatrix, DensitySeries, _chunks, _diagonal_sum, _parts_spectrum
from .density import _spectrum, _upper_indices, partial_trace_atom, partial_trace_pseudomodes
from .models import TimeGrid

__all__ = [
    "EIGENVALUE_FLOOR",
    "InfoSeries",
    "von_neumann_entropy",
    "mutual_information",
    "info_series",
]

#: eigenvalues below this are treated as exact zeros (integration noise guard)
EIGENVALUE_FLOOR = 1e-12


def _entropies(eigs: np.ndarray) -> np.ndarray:
    """-sum(p ln p) over the last axis of the spectra of one matrix or a stack."""
    kept = eigs > EIGENVALUE_FLOOR
    terms = np.where(kept, eigs * np.log(np.where(kept, eigs, 1.0)), 0.0)
    # a state with no eigenvalue above the floor has entropy +0.0
    return np.where(kept.any(axis=-1), -np.sum(terms, axis=-1), 0.0)


def von_neumann_entropy(rho) -> float:
    """Spectral entropy -sum(p ln p) in nats.

    The matrix is Hermitized before diagonalizing and eigenvalues below
    ``EIGENVALUE_FLOOR`` count as zero, which guards against logarithms of
    tiny negatives produced by integration noise. An array is checked as
    ``DensityMatrix`` checks it, with the same ``ValueError``.
    """
    matrix = (rho if isinstance(rho, DensityMatrix) else DensityMatrix(rho)).matrix
    return float(_entropies(_spectrum(matrix)))


def mutual_information(rho_joint) -> float:
    """I = S(emitter) + S(modes) - S(joint) across the emitter|modes split."""
    rho = rho_joint if isinstance(rho_joint, DensityMatrix) else DensityMatrix(rho_joint)
    s_atom = von_neumann_entropy(partial_trace_pseudomodes(rho))
    s_modes = von_neumann_entropy(partial_trace_atom(rho))
    return s_atom + s_modes - von_neumann_entropy(rho)


@dataclass(frozen=True)
class InfoSeries:
    """Entropies of the marginals and the joint state, plus their combination."""

    grid: TimeGrid
    entropy_atom: np.ndarray
    entropy_modes: np.ndarray
    entropy_joint: np.ndarray
    mutual_information: np.ndarray


def info_series(densities: DensitySeries, grid: TimeGrid) -> InfoSeries:
    """Evaluate the entropy diagnostics at every point of a joint-state series.

    The marginals are those of each state's Hermitian part: the emitter
    takes the ground population (the diagonal but the last, summed as
    ``np.trace`` sums it), the excited one and the coupling u_(0, last); the
    modes take the diagonal but the last, the excited population added to
    the joint vacuum, and the couplings u_ij with j before the last.
    """
    if len(densities) != grid.n_steps:
        raise ValueError(f"expected {grid.n_steps} states, got {len(densities)}")
    dim = densities.dim
    if dim == 2:
        raise ValueError("state is already emitter-only")
    joint = densities.eigenvalues
    # the pairs (i, j) of the upper triangle that stay in the mode marginal
    modes = _upper_indices(dim)[1] < dim - 1
    s_atom, s_modes, s_joint = (np.empty(len(densities)) for _ in range(3))
    for rows in _chunks(len(densities), dim):
        diagonal, upper = densities._parts(rows)
        s_atom[rows] = _entropies(_spectra(*_emitter_parts(diagonal, upper)))
        mode_diagonal = diagonal[:, :-1].copy()
        mode_diagonal[:, 0] += diagonal[:, -1]
        s_modes[rows] = _entropies(_spectra(mode_diagonal, upper[:, modes]))
        s_joint[rows] = _entropies(joint[rows])
    mutual = s_atom + s_modes
    mutual -= s_joint
    return InfoSeries(grid, s_atom, s_modes, s_joint, mutual)


def _emitter_parts(diagonal: np.ndarray, upper: np.ndarray):
    """Hermitian parts of the emitter marginal of joint states given by their parts:
    the ground population, the excited one and the coupling u_(0, last)."""
    emitter = np.empty((len(diagonal), 2))
    emitter[:, 0] = _diagonal_sum(diagonal[:, :-1])
    emitter[:, 1] = diagonal[:, -1]
    dim = diagonal.shape[1]
    # row 0 of the upper triangle comes first, (0, last) at its end
    return emitter, upper[:, dim - 2 : dim - 1]


def _spectra(diagonal: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Spectra of the Hermitian matrices given by their parts."""
    eigs = np.empty(diagonal.shape)
    _parts_spectrum(diagonal, upper, eigs)
    return eigs
