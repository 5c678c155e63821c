"""The CSV format, checked independently of numpy's and scipy's versions.

Each writer is fed small hand-built arrays holding -0.0, NaN, -inf and
subnormals. Reading a float cell back with ``float()`` must give the input
bits, integer and bool columns must be plain integers, and only density
files start with the ``# dim=..., basis=...`` line.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from memorymodes import (
    AmplitudeTrajectory,
    ComparisonReport,
    DensitySeries,
    Ensemble,
    InfoSeries,
    MemoryIdentityReport,
    PseudomodeSector,
    RateTrajectory,
    TimeGrid,
)
from memorymodes.csvio import (
    write_amplitude_csv,
    write_comparison_csv,
    write_density_csv,
    write_ensemble_csv,
    write_identity_csv,
    write_info_csv,
    write_rate_curves_csv,
    write_rates_csv,
)

GRID = TimeGrid(0.0, 1.0, 7)
TIMES = GRID.times
#: -0.0, NaN, the smallest subnormal, a 17-digit value, a subnormal, a huge value, -inf
SPECIAL = np.array([-0.0, np.nan, 5e-324, 1.0 / 3.0, -2.5e-310, 1.7e308, -np.inf])
#: the same values with 0.1 in place of NaN and -inf, for inputs that must be finite
FINITE = np.where(np.isfinite(SPECIAL), SPECIAL, 0.1)
VALID = np.array([True, False, True, True, False, True, False])
COUNTS = np.array([0, 10**12, 7, 0, 3, 2**62, 1], dtype=np.int64)


def floats(shift: int, finite: bool = False) -> np.ndarray:
    """The special values rotated by ``shift``, so no two columns are equal."""
    return np.roll(FINITE if finite else SPECIAL, shift)


def complexes(n_columns: int, shift: int = 0) -> np.ndarray:
    # parts are assigned, not added: 1j * -inf has a NaN real part and
    # -0.0 + 0j loses the sign
    out = np.empty((GRID.n_steps, n_columns), dtype=complex)
    for i in range(n_columns):
        out[:, i].real = floats(shift + 2 * i)
        out[:, i].imag = floats(shift + 2 * i + 1)
    return out


def re_im(labels, values) -> dict[str, np.ndarray]:
    out = {}
    for i, label in enumerate(labels):
        out[f"re_{label}"] = values[:, i].real
        out[f"im_{label}"] = values[:, i].imag
    return out


def case_amplitude(path):
    states = complexes(2)
    sector = PseudomodeSector(0.0, (0.0,), (0.0,), ((0.0,),), (0.0,), ("b1",))
    traj = AmplitudeTrajectory(GRID, states, sector)
    write_amplitude_csv(path, traj)
    return {"t": TIMES, **re_im(("c1", "b1"), states)}


def case_rates(path):
    slopes = np.full(GRID.n_steps, np.nan)
    write_rates_csv(path, RateTrajectory(GRID, floats(0), floats(1), VALID, 0.0, slopes, slopes))
    return {"t": TIMES, "S": floats(0), "gamma": floats(1), "valid": VALID}


def case_identity(path):
    report = MemoryIdentityReport(GRID, floats(0), floats(1), floats(2), VALID, 0.0)
    write_identity_csv(path, report)
    return {"t": TIMES, "lhs": floats(0), "rhs": floats(1), "residual": floats(2)}


def case_density(path):
    # density entries must be finite; the time column carries the NaN
    matrices = np.empty((GRID.n_steps, 3, 3), dtype=complex)
    for k in range(9):
        matrices[:, k // 3, k % 3].real = floats(k, finite=True)
        matrices[:, k // 3, k % 3].imag = floats(k + 1, finite=True)
    write_density_csv(path, DensitySeries(matrices), floats(3))
    columns = {"t": floats(3)}
    for i in range(3):
        for j in range(i, 3):
            columns[f"re_{i}{j}"] = matrices[:, i, j].real
            columns[f"im_{i}{j}"] = matrices[:, i, j].imag
    return columns


def case_nmqj(path):
    psi0 = complexes(2, shift=1)
    jumps = np.zeros((GRID.n_steps - 1, 1), dtype=np.int64)
    write_ensemble_csv(path, Ensemble(GRID, 10, COUNTS, psi0, 1, jumps))
    return {"t": TIMES, "n0": COUNTS, "n1": 10 - COUNTS, **re_im(("cg", "ce"), psi0)}


def case_mcwf(path):
    psi0 = complexes(4, shift=2)
    jumps = np.zeros((GRID.n_steps - 1, 2), dtype=np.int64)
    write_ensemble_csv(path, Ensemble(GRID, 10, COUNTS, psi0, 1, jumps))
    labels = ("cg00", "cg10", "cg01", "ce00")
    return {"t": TIMES, "n0": COUNTS, "n1": 10 - COUNTS, **re_im(labels, psi0)}


def case_comparison(path):
    values = [floats(k) for k in range(5)]
    write_comparison_csv(path, ComparisonReport(GRID, *values, 0.0, 0.0))
    return dict(zip(("t", "pg_nmqj", "pg_mcwf", "pg_exact", "sigma", "z"), [TIMES, *values]))


def case_info(path):
    values = [floats(k) for k in range(4)]
    write_info_csv(path, InfoSeries(GRID, *values))
    return dict(zip(("t", "s_atom", "s_pseudo", "s_joint", "mutual_info"), [TIMES, *values]))


def case_rate_curves(path):
    values = [floats(k) for k in range(4)]
    write_rate_curves_csv(path, *values, VALID)
    names = ("t", "gamma", "compensated", "gamma_c1sq", "valid")
    return dict(zip(names, [*values, VALID]))


CASES = {
    "amplitude": case_amplitude,
    "rates": case_rates,
    "identity": case_identity,
    "density": case_density,
    "nmqj": case_nmqj,
    "mcwf": case_mcwf,
    "comparison": case_comparison,
    "info": case_info,
    "rate_curves": case_rate_curves,
}


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.int64).tolist()


@pytest.mark.parametrize("name", CASES)
def test_writer_round_trips_exact_bits(name, tmp_path):
    path = tmp_path / f"{name}.csv"
    expected = CASES[name](path)
    lines = path.read_text(encoding="utf-8").split("\n")
    assert lines[-1] == ""  # the last line ends in a newline too
    lines = lines[:-1]
    if name == "density":
        assert lines.pop(0) == "# dim=3, basis=g0,g1,e0"
    assert not any(line.startswith("#") for line in lines)
    assert lines[0] == ",".join(expected)
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == GRID.n_steps
    assert all(len(row) == len(expected) for row in rows)
    for column, (label, values) in zip(zip(*rows), expected.items()):
        if values.dtype.kind in "biu":
            assert all(re.fullmatch(r"-?\d+", cell) for cell in column), label
            assert [int(cell) for cell in column] == values.astype(np.int64).tolist(), label
        else:
            assert bits([float(cell) for cell in column]) == bits(values), label


def density_series(n: int) -> DensitySeries:
    return DensitySeries(np.tile(np.diag([0.0, 1.0]).astype(complex), (n, 1, 1)))


@pytest.mark.parametrize(
    "write",
    [
        pytest.param(
            lambda path: write_density_csv(path, density_series(3), TIMES[:5]),
            id="density-long-times",
        ),
        pytest.param(
            lambda path: write_density_csv(path, density_series(3), TIMES[:2]),
            id="density-short-times",
        ),
        pytest.param(
            lambda path: write_rate_curves_csv(path, TIMES, TIMES[:-1], TIMES, TIMES, VALID),
            id="rate-curves-short-gamma",
        ),
    ],
)
def test_unequal_columns_rejected_before_writing(write, tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="differ in length"):
        write(path)
    assert not path.exists()
