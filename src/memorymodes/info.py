"""Entropy and correlation diagnostics along density-matrix series.

One kernel computes spectral entropies from the spectrum of a matrix or a
stack, so ``info_series`` and ``von_neumann_entropy`` give the same bits; a
series' spectrum is computed once and shared with its checks. An exactly
diagonal stack (the emitter marginal of a run from |e>) is sorted instead of
diagonalized, with the bits of ``eigvalsh``; any other takes one batched
``eigvalsh``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import DensityMatrix, DensitySeries, _spectrum
from .density import partial_trace_atom, partial_trace_pseudomodes
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


def _as_matrix(rho) -> np.ndarray:
    return rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)


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
    tiny negatives produced by integration noise.
    """
    return float(_entropies(_spectrum(_as_matrix(rho))))


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
    """Evaluate the entropy diagnostics at every point of a joint-state series."""
    if len(densities) != grid.n_steps:
        raise ValueError(f"expected {grid.n_steps} states, got {len(densities)}")
    s_atom = _entropies(partial_trace_pseudomodes(densities).eigenvalues)
    s_modes = _entropies(_spectrum(partial_trace_atom(densities)))
    s_joint = _entropies(densities.eigenvalues)
    return InfoSeries(grid, s_atom, s_modes, s_joint, s_atom + s_modes - s_joint)
