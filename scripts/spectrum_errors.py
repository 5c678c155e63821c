#!/usr/bin/env python3
"""Worst errors of the spectrum kernels against mpmath on the presets' matrices.

Usage:
    python scripts/spectrum_errors.py [--n-steps 1000 2000 4000 16000] [--stride K]

``density._spectrum`` gives a 2x2 block the closed form ``_closed_form`` and
a 3x3 block the Jacobi iteration ``_jacobi``. A block is what is left of a
matrix once a joint vacuum that couples to nothing is split off; entry
[0, 0] is then an eigenvalue. For every preset and step count this prints,
for each kernel, the worst error of the kernel and of
``numpy.linalg.eigvalsh`` on the same matrices, against eigenvalues exact
at 40 digits. An error is the largest |eigenvalue - exact| of a matrix as a
fraction of its block's largest |entry|.

The matrices are the states of a run from |e>: the Lindblad joint series and
its mode marginal, unless that is diagonal. On ``fig2`` the joint states of
a superposition start, 0.8 |e0> + 0.6 |g0>, whose vacuum couples, are taken
too. ``--stride K`` takes every K-th state. ``tests/test_density.py`` holds
both kernels to the bounds these runs read, with :func:`exact_spectra` as
its oracle.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath
import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from memorymodes import (  # noqa: E402
    DensityMatrix,
    TimeGrid,
    evolve_lindblad_sector,
    extended_density_from_amplitudes,
    partial_trace_atom,
    propagate_sector,
    validate_config,
)
from memorymodes.density import _split_spectrum  # noqa: E402

PRESETS = ("fig2", "bandgap", "perfect_gap")
#: working digits of the exact spectra
DIGITS = 40


def hermitized(matrices: np.ndarray) -> np.ndarray:
    """0.5 (a + a^H) of each matrix, with the bits ``_spectrum`` reads."""
    return 0.5 * (matrices + np.swapaxes(matrices, -1, -2).conj())


def block_size(matrices: np.ndarray) -> np.ndarray:
    """Size of the block of each Hermitized matrix: its dimension, less one where
    row 0 is zero off the diagonal (from dimension 3)."""
    dim = matrices.shape[-1]
    split = ~np.any(matrices[:, 0, 1:], axis=1) & (dim > 2)
    return dim - split


def exact_spectra(matrices: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of Hermitian matrices that couple only within their
    trailing ``block`` x ``block`` block (2 or 3), exact at ``DIGITS`` digits, as two
    ``(n, d)`` arrays: the nearest floats and the nearest floats to what is left.
    Every diagonal entry before the block is an eigenvalue."""
    dim = matrices.shape[-1]
    lone = dim - block
    diagonal = np.diagonal(matrices, axis1=-2, axis2=-1).real.tolist()
    rows, cols = np.triu_indices(block, 1)
    couplings = matrices[:, lone:, lone:][:, rows, cols]
    parts = np.stack([couplings.real, couplings.imag], axis=-1).reshape(len(matrices), -1).tolist()
    high, low = [], []
    with mpmath.workdps(DIGITS):
        mpf = mpmath.mpf
        root3 = mpmath.sqrt(3)
        for entries, coupling in zip(diagonal, parts):
            if block == 2:
                roots = _exact_2x2(entries[lone:], coupling)
            else:
                roots = _exact_3x3(entries[lone:], coupling, root3)
            values = sorted([mpf(x) for x in entries[:lone]] + roots)
            nearest = [float(v) for v in values]
            high.append(nearest)
            low.append([float(v - x) for v, x in zip(values, nearest)])
    return np.array(high).reshape(-1, dim), np.array(low).reshape(-1, dim)


def _exact_2x2(diagonal: list, coupling: list) -> list:
    a, c, re, im = (mpmath.mpf(x) for x in diagonal + coupling)
    mean, half_diff = (a + c) / 2, (a - c) / 2
    half_gap = mpmath.sqrt(half_diff * half_diff + re * re + im * im)
    return [mean - half_gap, mean + half_gap]


def _exact_3x3(diagonal: list, coupling: list, root3) -> list:
    """The trigonometric roots of the characteristic cubic. Its coefficients are
    formed exactly, in integers: every entry is an integer over 2**s. Near a
    double root the roots lose half the working digits, which leaves 20."""
    (d0, d1, d2, r01, i01, r02, i02, r12, i12), s = _integers(diagonal + coupling)
    total = d0 + d1 + d2
    # 3 (a_ii - shift), |a_ij|^2 and the two cyclic products, all times powers of 2**s
    b0, b1, b2 = 3 * d0 - total, 3 * d1 - total, 3 * d2 - total
    n01, n02, n12 = r01 * r01 + i01 * i01, r02 * r02 + i02 * i02, r12 * r12 + i12 * i12
    cyclic = (r01 * r12 - i01 * i12) * r02 + (r01 * i12 + i01 * r12) * i02
    # p^2 = (sum (a_ii - shift)^2 + 2 sum |a_ij|^2)/6 = spread/(54 4^s), and
    # det(A - shift) = det/(27 8^s), so det(A - shift)/(2p^3) = det sqrt(54/spread^3)
    spread = b0 * b0 + b1 * b1 + b2 * b2 + 18 * (n01 + n02 + n12)
    det = b0 * b1 * b2 + 54 * cyclic - 9 * (b0 * n12 + b1 * n02 + b2 * n01)
    shift = mpmath.ldexp(mpmath.mpf(total) / 3, -s)
    if not spread:
        return [shift] * 3
    ratio = mpmath.mpf(det) * mpmath.sqrt(54 / mpmath.mpf(spread**3))
    cos, sin = mpmath.cos_sin(mpmath.acos(max(-1, min(1, ratio))) / 3)
    p = mpmath.ldexp(mpmath.sqrt(mpmath.mpf(spread) / 54), -s)
    # the roots at phi, phi + 2 pi/3 and phi + 4 pi/3
    high = shift + 2 * p * cos
    low = shift - p * (cos + root3 * sin)
    return [low, 3 * shift - high - low, high]


def _integers(values: list) -> tuple[list[int], int]:
    """Integers m and s with each float of ``values`` equal to m / 2**s."""
    ratios = [float(x).as_integer_ratio() for x in values]
    s = max(den.bit_length() - 1 for _, den in ratios)
    return [num << (s - den.bit_length() + 1) for num, den in ratios], s


def errors(got: np.ndarray, exact: tuple, matrices: np.ndarray, block: int) -> np.ndarray:
    """Largest |got - exact| of each spectrum over the largest |entry| of its block;
    a zero block reads 0 if its spectrum is exact and inf if not."""
    high, low = exact
    # got - high is exact or rounds far below the errors measured here
    worst = np.max(np.abs((got - high) - low), axis=-1)
    scales = np.max(np.abs(matrices[:, -block:, -block:]), axis=(-2, -1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(scales > 0.0, worst / scales, np.where(worst > 0.0, np.inf, 0.0))


def kernel_spectra(matrices: np.ndarray, block: int) -> np.ndarray:
    """Spectra of Hermitized matrices by the kernel of their block, the vacuum merged
    in as ``_spectrum`` merges it."""
    rows, cols = np.triu_indices(matrices.shape[-1], 1)
    diagonal = np.diagonal(matrices, axis1=-2, axis2=-1).real
    values, converged = _split_spectrum(diagonal, matrices[:, rows, cols], block)
    if not converged.all():
        raise RuntimeError(f"Jacobi left {np.count_nonzero(~converged)} matrices unconverged")
    return values


def preset_blocks(preset: str, n_steps: int, stride: int):
    """(series, block size, Hermitized states) of the preset's runs, every ``stride``-th state."""
    parsed = validate_config(ROOT / "configs" / f"{preset}.cfg")
    grid = TimeGrid(parsed.grid.t_start, parsed.grid.t_end, n_steps)
    sector = parsed.model.sector
    joint = evolve_lindblad_sector(sector, DensityMatrix.excited(sector.n_modes + 2), grid)
    series = {"joint": joint.matrices, "modes": partial_trace_atom(joint)}
    if sector.n_modes == 1:
        traj = propagate_sector(sector, [0.8, 0.0], grid)
        series["joint_mixed"] = extended_density_from_amplitudes(traj).matrices
    for name, matrices in series.items():
        matrices = hermitized(matrices[::stride])
        if not np.any(matrices[:, ~np.eye(matrices.shape[-1], dtype=bool)]):
            continue  # a diagonal series is sorted, with the bits of eigvalsh
        sizes = block_size(matrices)
        for block in (2, 3):
            if np.any(sizes == block):
                yield name, block, matrices[sizes == block]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-steps", type=int, nargs="+", default=[1000, 2000, 4000, 16000])
    parser.add_argument("--stride", type=int, default=1)
    args = parser.parse_args(argv)
    names = {2: "closed_form", 3: "jacobi"}
    print("preset       n_steps  series       kernel       matrices  kernel_err  eigvalsh_err")
    for preset in PRESETS:
        for n_steps in args.n_steps:
            for name, block, matrices in preset_blocks(preset, n_steps, args.stride):
                exact = exact_spectra(matrices, block)
                ours = errors(kernel_spectra(matrices, block), exact, matrices, block)
                lapack = errors(np.linalg.eigvalsh(matrices), exact, matrices, block)
                print(
                    f"{preset:12s} {n_steps:7d}  {name:12s} {names[block]:12s} {len(matrices):8d}"
                    f"  {ours.max():10.3e}  {lapack.max():12.3e}"
                )
    return 0


if __name__ == "__main__":
    sys.exit(main())
