"""Deterministic CSV writers for every exported artifact.

All numbers are written with 17 significant digits so files round-trip to
the exact doubles and identical runs produce byte-identical output.
"""

from __future__ import annotations

import numpy as np

from .density import DensitySeries
from .info import InfoSeries
from .rates import MemoryIdentityReport, RateTrajectory
from .trajectories import ComparisonReport, McwfEnsemble, NmqjEnsemble

__all__ = [
    "write_amplitude_csv",
    "write_rates_csv",
    "write_identity_csv",
    "write_density_csv",
    "write_nmqj_csv",
    "write_mcwf_csv",
    "write_comparison_csv",
    "write_info_csv",
    "write_rate_curves_csv",
]

_MCWF_LABELS = {3: ("cg0", "cg1", "ce0"), 4: ("cg00", "cg10", "cg01", "ce00")}


def _fmt(value) -> str:
    return f"{float(value):.17g}"


def _write(path, header: str, rows, preamble: str | None = None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if preamble:
            handle.write(preamble + "\n")
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def write_amplitude_csv(path, traj) -> None:
    """One row per grid point: t plus re/im of every amplitude component."""
    header = "t," + ",".join(f"re_{lab},im_{lab}" for lab in traj.labels)
    times = traj.grid.times

    def rows():
        for k in range(traj.grid.n_steps):
            cells = [_fmt(times[k])]
            for value in traj.states[k]:
                cells.append(_fmt(value.real))
                cells.append(_fmt(value.imag))
            yield cells

    _write(path, header, rows())


def write_rates_csv(path, rates: RateTrajectory) -> None:
    times = rates.grid.times

    def rows():
        for k in range(rates.grid.n_steps):
            yield [_fmt(times[k]), _fmt(rates.s[k]), _fmt(rates.gamma[k]), str(int(rates.valid[k]))]

    _write(path, "t,S,gamma,valid", rows())


def write_identity_csv(path, report: MemoryIdentityReport) -> None:
    times = report.grid.times

    def rows():
        for k in range(report.grid.n_steps):
            yield [_fmt(times[k]), _fmt(report.lhs[k]), _fmt(report.rhs[k]), _fmt(report.residual[k])]

    _write(path, "t,lhs,rhs,residual", rows())


def write_density_csv(path, densities: DensitySeries, times: np.ndarray) -> None:
    """Upper triangle in row-major order, dimension declared in a comment line."""
    dim = densities.dim
    basis = ",".join(densities.basis)
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    header = "t," + ",".join(f"re_{i}{j},im_{i}{j}" for i, j in pairs)

    def rows():
        for k, rho in enumerate(densities.matrices):
            cells = [_fmt(times[k])]
            for i, j in pairs:
                cells.append(_fmt(rho[i, j].real))
                cells.append(_fmt(rho[i, j].imag))
            yield cells

    _write(path, header, rows(), preamble=f"# dim={dim}, basis={basis}")


def _write_ensemble(path, ens, labels) -> None:
    header = "t,n0,n1," + ",".join(f"re_{lab},im_{lab}" for lab in labels)
    times = ens.grid.times

    def rows():
        for k in range(ens.grid.n_steps):
            cells = [_fmt(times[k]), str(int(ens.n0[k])), str(int(ens.n1[k]))]
            for value in ens.psi0[k]:
                cells.append(_fmt(value.real))
                cells.append(_fmt(value.imag))
            yield cells

    _write(path, header, rows())


def write_nmqj_csv(path, ens: NmqjEnsemble) -> None:
    _write_ensemble(path, ens, ("cg", "ce"))


def write_mcwf_csv(path, ens: McwfEnsemble) -> None:
    _write_ensemble(path, ens, _MCWF_LABELS[ens.psi0.shape[1]])


def write_comparison_csv(path, report: ComparisonReport) -> None:
    times = report.grid.times

    def rows():
        for k in range(report.grid.n_steps):
            yield [
                _fmt(times[k]),
                _fmt(report.pg_nmqj[k]),
                _fmt(report.pg_mcwf[k]),
                _fmt(report.pg_exact[k]),
                _fmt(report.sigma[k]),
                _fmt(report.z[k]),
            ]

    _write(path, "t,pg_nmqj,pg_mcwf,pg_exact,sigma,z", rows())


def write_info_csv(path, series: InfoSeries) -> None:
    times = series.grid.times

    def rows():
        for k in range(series.grid.n_steps):
            yield [
                _fmt(times[k]),
                _fmt(series.entropy_atom[k]),
                _fmt(series.entropy_modes[k]),
                _fmt(series.entropy_joint[k]),
                _fmt(series.mutual_information[k]),
            ]

    _write(path, "t,s_atom,s_pseudo,s_joint,mutual_info", rows())


def write_rate_curves_csv(path, times, gamma, compensated, gamma_pop, valid) -> None:
    """Decay rate and compensated mode drain side by side (preset export)."""

    def rows():
        for k in range(len(times)):
            yield [
                _fmt(times[k]),
                _fmt(gamma[k]),
                _fmt(compensated[k]),
                _fmt(gamma_pop[k]),
                str(int(valid[k])),
            ]

    _write(path, "t,gamma,compensated,gamma_c1sq,valid", rows())
