"""Entropy and correlation diagnostics of density matrices and amplitude solutions.

One kernel computes spectral entropies from the spectrum of a matrix or a
stack (``density._spectrum``: a closed form for 2x2 matrices, ``eigvalsh``
for larger ones). ``von_neumann_entropy`` and ``mutual_information`` take
one state. ``info_series`` takes an amplitude solution: from its pure start
the joint state has rank two, and it and both marginals are trace-one 2x2
blocks (``density._rank_two_spectra``), so their entropies cost O(nK) and
need neither the Lindblad fill nor a spectrum solver. It works chunk by
chunk, so its scratch stays fixed while the series grows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .amplitudes import AmplitudeTrajectory
from .density import DensityMatrix, _chunks, _rank_two_spectra, _spectrum
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


def info_series(traj: AmplitudeTrajectory) -> InfoSeries:
    """Evaluate the entropy diagnostics at every point of an amplitude solution.

    The states are those of ``extended_density_from_amplitudes(traj)``, which
    the Lindblad route from the same pure start reproduces; each entropy is
    read off the closed-form spectrum of its 2x2 block.
    """
    states, vacuum = traj.states, traj.vacuum
    entropies = np.empty((3, len(states)))
    for rows in _chunks(len(states), states.shape[1] + 1):
        for out, eigs in zip(entropies, _rank_two_spectra(states[rows], vacuum)):
            out[rows] = _entropies(eigs)
    s_joint, s_atom, s_modes = entropies
    mutual = s_atom + s_modes
    mutual -= s_joint
    return InfoSeries(traj.grid, s_atom, s_modes, s_joint, mutual)
