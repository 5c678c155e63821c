"""The CSV format, checked independently of numpy's and scipy's versions.

Each writer is fed small hand-built arrays holding -0.0, NaN, -inf and
subnormals. Reading a float cell back with ``float()`` must give the input
bits, integer and bool columns must be plain integers, and only density
files start with the ``# dim=..., basis=...`` line. The column writer's cells
are also compared with Python's own ``'%.17g'`` and ``'%d'`` over about a
million values chosen to reach every branch of the numpy formatter, and
files with columns of signed zeros, which skip that formatter, in every
position and on both sides of a block edge.
"""

from __future__ import annotations

import re
import tracemalloc

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
from memorymodes import csvio
from memorymodes.csvio import (
    _BLOCK_BYTES,
    _WIDTH,
    _ZERO,
    _write_columns,
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


def rate_curve_records(times, gamma, compensated, gamma_pop):
    """Rates and their memory identity holding the given curves."""
    slopes = np.full(len(times), np.nan)
    rates = RateTrajectory(GRID, times, gamma, VALID, 0.0, slopes, slopes)
    report = MemoryIdentityReport(GRID, compensated, gamma_pop, times, VALID, 0.0)
    return rates, report


def case_rate_curves(path):
    # the time column comes from the grid, so it carries no special value
    values = [TIMES, *(floats(k) for k in range(1, 4))]
    write_rate_curves_csv(path, *rate_curve_records(*values))
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
            lambda path: write_rate_curves_csv(
                path, *rate_curve_records(TIMES, TIMES[:-1], TIMES, TIMES)
            ),
            id="rate-curves-short-gamma",
        ),
    ],
)
def test_unequal_columns_rejected_before_writing(write, tmp_path):
    path = tmp_path / "out.csv"
    with pytest.raises(ValueError, match="differ in length"):
        write(path)
    assert not path.exists()


def oracle_floats() -> np.ndarray:
    """About 1.03e6 doubles covering every branch of the float formatter."""
    rng = np.random.default_rng(20081013)
    # random bit patterns: every exponent, both signs, NaNs, infinities and subnormals
    patterns = rng.integers(0, 2**64, 400_000, dtype=np.uint64, endpoint=False).view(float)
    uniform = rng.random(600_000)
    # the double nearest each power of ten and its neighbours, where log10 misleads
    powers = np.array([float(f"1e{k}") for k in range(-300, 301)])
    below, above, near_powers = powers, powers, [powers]
    for _ in range(3):
        below, above = np.nextafter(below, 0.0), np.nextafter(above, np.inf)
        near_powers += [below, above]
    near_powers = np.concatenate(near_powers)
    # the %g switches: below 1e-4 and from 1e17 on, scientific notation
    edges = np.array([1e-5, 1e-4, 1e15, 1e16, 1e17, 99999999999999999.0, 9.99999999999999995e-5])
    ulps = np.arange(-200, 201)
    switches = (edges[:, None] * (1.0 + ulps * 2.0**-53)).ravel()
    # exact ties: odd m * 2**-n with 18 significant digits, the last one a 5
    ties = [
        m * 2.0**-n
        for n in range(20, 80)
        for m in range(1, 4001, 2)
        if len(str(m * 5**n)) == 18
    ]
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072009e-308,
                2.2250738585072014e-308, 1.7976931348623157e308, -1.7976931348623157e308, 1e-280,
                1e300, 0.1, 0.5, 1.0, 100.0, 123456789012345678.0]
    subnormals = rng.integers(1, 2**52, 1000).view(float)
    values = np.concatenate([patterns, uniform, -uniform[:10_000], near_powers, -near_powers,
                             switches, ties, np.negative(ties), specials, subnormals])
    assert len(ties) > 1000
    return values


ORACLE_INTS = np.array(
    [0, 1, -1, 9, 10, -10, 10**16 - 1, 10**16, -(10**16), 10**17 - 1, 10**17, 2**53 + 1,
     2**62, -(2**62), 2**63 - 1, -(2**63), -(2**63) + 1, 123456789, -987654321012345678],
    dtype=np.int64,
)


def test_cells_equal_python_formatting(tmp_path):
    values = oracle_floats()
    n_columns = 8
    values = values[: len(values) - len(values) % n_columns]
    assert len(values) >= 1_000_000
    path = tmp_path / "floats.csv"
    _write_columns(path, "h", list(values.reshape(-1, n_columns).T))
    text = path.read_text(encoding="ascii")
    row = ",".join(["%.17g"] * n_columns) + "\n"
    expected = "h\n" + row * (len(values) // n_columns) % tuple(values.tolist())
    if text != expected:
        cells = text[2:].replace("\n", ",").split(",")
        pairs = zip(expected[2:].replace("\n", ",").split(","), cells)
        mismatched = [pair for pair in pairs if pair[0] != pair[1]]
        pytest.fail(f"{len(mismatched)} cells differ (expected, written): {mismatched[:5]}")


@pytest.mark.parametrize("dtype", [np.int64, np.uint64, np.int32, np.bool_])
def test_integer_cells_equal_python_formatting(dtype, tmp_path):
    rng = np.random.default_rng(7)
    if dtype is np.bool_:
        ints = rng.integers(0, 2, 5000).astype(bool)
    else:
        info = np.iinfo(dtype)
        picked = ORACLE_INTS[(ORACLE_INTS >= info.min) & (ORACLE_INTS <= info.max)].astype(dtype)
        magnitudes = 10 ** rng.integers(0, len(str(info.max)), 5000).astype(float)
        spread = (rng.random(5000) * magnitudes).astype(dtype)
        ints = np.concatenate([picked, spread, np.array([info.min, info.max], dtype=dtype)])
    floats = np.linspace(-1.0, 1.0, len(ints))
    path = tmp_path / "ints.csv"
    _write_columns(path, "a,b,c", [ints, floats, ints[::-1]])
    expected = "".join(
        "%d,%.17g,%d\n" % row for row in zip(ints.tolist(), floats.tolist(), ints[::-1].tolist())
    )
    assert path.read_text(encoding="ascii") == "a,b,c\n" + expected


#: columns with no nonzero cell, written from their sign bits alone
ZERO_KINDS = {
    "plus": lambda n: np.zeros(n),
    "minus": lambda n: np.full(n, -0.0),
    "mixed": lambda n: np.where(np.arange(n) % 3 == 1, -0.0, 0.0),
}


def assert_python_text(path, header: str, columns) -> None:
    """The file holds what ``'%d'`` and ``'%.17g'`` write, cell by cell."""
    expected = [header]
    for row in zip(*(column.tolist() for column in columns)):
        expected.append(",".join(("%d" if isinstance(v, int) else "%.17g") % v for v in row))
    lines = path.read_text(encoding="ascii").split("\n")
    if lines != expected + [""]:
        differ = [(i, *pair) for i, pair in enumerate(zip(expected, lines)) if pair[0] != pair[1]]
        pytest.fail(
            f"{len(lines)} lines for {len(expected) + 1} expected; "
            f"first differing (line, expected, written): {differ[:3]}"
        )


def block_rows(n_zero: int, n_formatted: int) -> int:
    """Rows per formatting block: the byte budget over one row's template bytes."""
    return _BLOCK_BYTES // (n_zero * _ZERO.size + n_formatted * _WIDTH)


def mixed_columns(n: int, kind: str, position: int) -> list[np.ndarray]:
    """A zero column at ``position`` among times, integers, NaN and +-inf, and 17-digit floats."""
    others = [
        np.linspace(0.0, 1.0, n),
        np.arange(n, dtype=np.int64) - 2,
        np.resize(SPECIAL, n),
        np.resize([np.inf, -np.inf, np.nan], n),
        np.resize([1.0 / 3.0, -2.0 / 3.0, 1e-7], n),
    ]
    return others[:position] + [ZERO_KINDS[kind](n)] + others[position:]


@pytest.mark.parametrize("position", [0, 3, 5], ids=["first", "middle", "last"])
@pytest.mark.parametrize("kind", ZERO_KINDS)
def test_zero_column_cells_equal_python_formatting(kind, position, tmp_path):
    columns = mixed_columns(50, kind, position)
    path = tmp_path / "zero.csv"
    _write_columns(path, "a,b,c,d,e,f", columns)
    assert_python_text(path, "a,b,c,d,e,f", columns)


def test_neighbouring_zero_columns_equal_python_formatting(tmp_path):
    n = 40
    zeros = [ZERO_KINDS[kind](n) for kind in ("minus", "plus", "mixed")]
    # integer and bool columns of zeros are formatted as integers, with no sign
    ints = [np.zeros(n, dtype=np.int64), np.zeros(n, dtype=bool)]
    columns = [*zeros, np.linspace(-1.0, 1.0, n), *zeros[::-1], *ints, *zeros]
    path = tmp_path / "zero.csv"
    _write_columns(path, "h", columns)
    assert_python_text(path, "h", columns)


@pytest.mark.parametrize("offset", [None, -1, 0, 1], ids=["one-row", "block-1", "block", "block+1"])
@pytest.mark.parametrize("layout", ["all-zero", "mixed"])
def test_zero_columns_across_block_edges(layout, offset, tmp_path):
    if layout == "all-zero":
        rows = 1 if offset is None else block_rows(4, 0) + offset
        columns = [ZERO_KINDS[kind](rows) for kind in ("plus", "mixed", "minus", "mixed")]
    else:
        rows = 1 if offset is None else block_rows(2, 5) + offset
        columns = mixed_columns(rows, "mixed", 2) + [ZERO_KINDS["minus"](rows)]
    path = tmp_path / "zero.csv"
    _write_columns(path, "h", columns)
    assert_python_text(path, "h", columns)


def test_block_join_allocates_its_output_and_no_index(monkeypatch):
    # one full block of 17-digit cells, its byte rows and mask built beforehand
    n_columns = 4
    rng = np.random.default_rng(17)
    block = list(rng.standard_normal((n_columns, _BLOCK_BYTES // (_WIDTH * n_columns))))
    flags = [False] * n_columns
    rows, mask = csvio._row_bytes(block, flags, flags)
    monkeypatch.setattr(csvio, "_row_bytes", lambda *args: (rows, mask))
    tracemalloc.start()
    try:
        joined = csvio._format_block(block, flags, flags)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert joined.nbytes == np.count_nonzero(mask)
    # measured: the output plus 576 bytes of numpy's own; an int64 index of the
    # kept bytes, as np.compress builds, would add 8 bytes per byte written
    assert peak <= joined.nbytes + 4096
