"""Deterministic CSV writers for every exported artifact.

Every writer hands one column writer a header and a list of equal-length
columns. Float columns are written with 17 significant digits, so files
round-trip to the exact doubles and identical runs produce byte-identical
output; integer and bool columns are written as plain integers. Complex
arrays are exported as separate real and imaginary columns.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from .density import BASIS_LABELS, DensitySeries
from .info import InfoSeries
from .rates import MemoryIdentityReport, RateTrajectory
from .trajectories import ComparisonReport, Ensemble

__all__ = [
    "write_amplitude_csv",
    "write_rates_csv",
    "write_identity_csv",
    "write_density_csv",
    "write_ensemble_csv",
    "write_comparison_csv",
    "write_info_csv",
    "write_rate_curves_csv",
]

#: rows formatted and written per block
_BLOCK_ROWS = 256


def _write_columns(path, header: str, columns, preamble: str | None = None) -> None:
    """Write equal-length columns under ``header``, one row per entry.

    Each block of rows is one ``%`` on a repeated row template: ``%d`` for
    integer and bool columns (exact Python ints from ``tolist``), ``%.17g``
    for the rest. Raises ``ValueError`` before the file is opened when the
    columns differ in length.
    """
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ValueError(f"cannot write {path}: columns differ in length {sorted(lengths)}")
    n_rows = max(lengths, default=0)
    columns = [np.asarray(column) for column in columns]
    integral = [column.dtype.kind in "biu" for column in columns]
    columns = [c if i else c.astype(float, copy=False) for c, i in zip(columns, integral)]
    row = ",".join("%d" if i else "%.17g" for i in integral) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if preamble:
            handle.write(preamble + "\n")
        handle.write(header + "\n")
        # a block of rows at a time keeps the formatted cells out of peak memory
        for start in range(0, n_rows, _BLOCK_ROWS):
            block = [column[start : start + _BLOCK_ROWS].tolist() for column in columns]
            handle.write(row * len(block[0]) % tuple(chain.from_iterable(zip(*block))))


def _re_im(labels, values) -> tuple[str, list]:
    """Header cells and real/imaginary columns of the complex columns ``values``."""
    header = ",".join(f"re_{lab},im_{lab}" for lab in labels)
    return header, [part for column in values for part in (column.real, column.imag)]


def write_amplitude_csv(path, traj) -> None:
    """One row per grid point: t plus re/im of every amplitude component."""
    header, columns = _re_im(traj.labels, traj.states.T)
    _write_columns(path, "t," + header, [traj.grid.times, *columns])


def write_rates_csv(path, rates: RateTrajectory) -> None:
    _write_columns(path, "t,S,gamma,valid", [rates.grid.times, rates.s, rates.gamma, rates.valid])


def write_identity_csv(path, report: MemoryIdentityReport) -> None:
    columns = [report.grid.times, report.lhs, report.rhs, report.residual]
    _write_columns(path, "t,lhs,rhs,residual", columns)


def write_density_csv(path, densities: DensitySeries, times: np.ndarray) -> None:
    """Upper triangle in row-major order, dimension declared in a comment line."""
    dim = densities.dim
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    header, columns = _re_im(
        [f"{i}{j}" for i, j in pairs], [densities.matrices[:, i, j] for i, j in pairs]
    )
    preamble = f"# dim={dim}, basis={','.join(densities.basis)}"
    _write_columns(path, "t," + header, [times, *columns], preamble)


def write_ensemble_csv(path, ens: Ensemble) -> None:
    """Counts and the shared state, labelled on its basis: cg,ce on the emitter alone."""
    labels = ["c" + label for label in BASIS_LABELS[ens.psi0.shape[1]]]
    header, columns = _re_im(labels, ens.psi0.T)
    _write_columns(path, "t,n0,n1," + header, [ens.grid.times, ens.n0, ens.n1, *columns])


def write_comparison_csv(path, report: ComparisonReport) -> None:
    columns = [
        report.grid.times,
        report.pg_nmqj,
        report.pg_mcwf,
        report.pg_exact,
        report.sigma,
        report.z,
    ]
    _write_columns(path, "t,pg_nmqj,pg_mcwf,pg_exact,sigma,z", columns)


def write_info_csv(path, series: InfoSeries) -> None:
    columns = [
        series.grid.times,
        series.entropy_atom,
        series.entropy_modes,
        series.entropy_joint,
        series.mutual_information,
    ]
    _write_columns(path, "t,s_atom,s_pseudo,s_joint,mutual_info", columns)


def write_rate_curves_csv(path, times, gamma, compensated, gamma_pop, valid) -> None:
    """Decay rate and compensated mode drain side by side (preset export)."""
    columns = [times, gamma, compensated, gamma_pop, valid]
    _write_columns(path, "t,gamma,compensated,gamma_c1sq,valid", columns)
