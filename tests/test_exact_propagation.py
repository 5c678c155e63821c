"""Structure and accuracy of the exact propagator behind the constant generators.

The Lindblad routes step the real coordinates of a Hermitian state, so every
state they return is exactly Hermitian with an exactly real diagonal, and the
coherences between the joint vacuum and the one-excitation states, which an
excited start never creates, stay exactly zero. Defective generators, which
the eigen-decomposition oracle cannot handle, are checked against
``expm_oracle`` (``scipy.linalg.expm``). The matrix exponential itself is
checked against ``mpmath.expm`` at 40 digits on the arguments G*m*dt of the
doubling fill.
"""

from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.linalg

from memorymodes import (
    DensityMatrix,
    Reservoir,
    TimeGrid,
    ToleranceNotMet,
    evolve_lindblad_sector,
    mode_generator,
    validate_config,
    validate_config_text,
)
from memorymodes import density
from memorymodes.amplitudes import _ladder, _ladder_chunks, _norm1, _propagate_constant, expm
from memorymodes.cli import EXPERIMENTS, main
from conftest import expm_oracle

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
#: 10 lone peaks, wider the further out they sit; 11 amplitudes
TEN_PEAKS = Reservoir(0.0, 0.8, tuple((1.0, 0.5 + 0.05 * k, k - 4.5) for k in range(10)))
#: an uncoupled mode on resonance: the real-coordinate Lindblad generator is upper triangular
TRIANGULAR_CONFIG = """\
model = lorentzian
omega0 = 0.0
omega_c = 0.0
gamma = 0.6
omega_coupling = 0.0
t_end = 10.0
n_steps = 400
"""


@pytest.mark.parametrize("route", ["single", "double"])
def test_lindblad_states_are_structurally_exact(route, fig2_model, bandgap_model, fig2_grid):
    if route == "single":
        series = evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(3), fig2_grid)
    else:
        series = evolve_lindblad_sector(bandgap_model.sector, DensityMatrix.excited(4), fig2_grid)
    matrices = series.matrices
    assert series.invariant_defects()["hermiticity"] == 0.0
    assert np.all(np.diagonal(matrices, axis1=1, axis2=2).imag == 0.0)
    assert np.all(matrices[:, 0, 1:] == 0.0)
    assert np.all(matrices[:, 1:, 0] == 0.0)


@pytest.mark.parametrize(
    "generator",
    [
        np.array([[-0.5, 1.0, 0.0], [0.0, -0.5, 1.0], [0.0, 0.0, -0.5]], dtype=complex),
        # exceptional point of the single-mode system: width 4x the coupling
        mode_generator(Reservoir(0.0, 1.0, ((1.0, 4.0, 0.0),)).sector),
    ],
    ids=["jordan_block", "critical_damping"],
)
def test_defective_generator_matches_expm_oracle(generator):
    grid = TimeGrid(0.0, 6.0, 301)
    x0 = np.zeros(len(generator), dtype=complex)
    x0[-1] = 1.0
    rows = _propagate_constant(generator, x0, grid)
    assert np.max(np.abs(rows - expm_oracle(generator, x0, grid.times))) < 1e-14


def ladder(generator, grid):
    """The arguments G*m*dt of the doubling fill on ``grid``: m = 1, 2, 4, ... below its length."""
    lengths = 2 ** np.arange((grid.n_steps - 1).bit_length())
    return generator * (lengths * grid.dt)[:, None, None]


def exact_expm(stack):
    """exp of each matrix in ``stack`` by ``mpmath.expm`` at 40 digits, rounded to complex."""
    with mpmath.workdps(40):
        return np.array(
            [np.array(mpmath.expm(mpmath.matrix(m.tolist())).tolist(), dtype=complex) for m in stack]
        )


def relative_errors(approx, exact):
    return _norm1(approx - exact) / _norm1(exact)


@pytest.mark.parametrize("n_steps", [4000, 16000])
@pytest.mark.parametrize("preset", ["fig2", "bandgap", "perfect_gap"])
def test_expm_is_exact_on_the_doubling_ladder(preset, n_steps):
    parsed = validate_config(CONFIG_DIR / f"{preset}.cfg")
    grid = TimeGrid(parsed.grid.t_start, parsed.grid.t_end, n_steps)
    stack = ladder(mode_generator(parsed.model.sector), grid)
    assert relative_errors(expm(stack), exact_expm(stack)).max() < 2e-15


def test_expm_is_exact_on_a_liouvillian_ladder(fig2_model, fig2_grid, monkeypatch):
    # the real coordinate generator that the Lindblad route hands to the propagator
    seen = []

    def spy(generator, grid):
        seen.append(generator)
        return _ladder(generator, grid)

    monkeypatch.setattr(density, "_ladder", spy)
    evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(3), fig2_grid)
    (generator,) = seen
    assert generator.dtype == float and generator.shape == (9, 9)
    stack = ladder(generator, fig2_grid)
    assert relative_errors(expm(stack), exact_expm(stack)).max() < 2e-15


def test_expm_error_on_ten_peaks_is_near_scipys():
    stack = ladder(mode_generator(TEN_PEAKS.sector), TimeGrid(0.0, 10.0, 4000))
    exact = exact_expm(stack)
    ours = relative_errors(expm(stack), exact)
    theirs = relative_errors(np.stack([scipy.linalg.expm(m) for m in stack]), exact)
    assert ours.max() <= 4 * theirs.max()


def test_expm_of_zero_is_the_identity():
    assert np.array_equal(expm(np.zeros((3, 4, 4), dtype=complex)), np.broadcast_to(np.eye(4), (3, 4, 4)))


def test_expm_of_a_diagonal_is_exp_of_its_entries():
    entries = np.array([-50.0, -1.0, 0.0, 0.5 + 3.0j, 2.0 - 1.0j, 1e-9j])
    got = np.diagonal(expm(np.diag(entries)))
    with mpmath.workdps(40):
        exact = np.array([complex(mpmath.exp(mpmath.mpc(z.real, z.imag))) for z in entries])
    ulp = np.spacing(np.maximum(np.abs(exact.real), np.abs(exact.imag)))
    assert np.all(np.abs(got.real - exact.real) <= ulp)
    assert np.all(np.abs(got.imag - exact.imag) <= ulp)


@pytest.mark.parametrize(
    "matrix", [[[-1.0, 1e30], [0.0, -2.0]], [[-1.0, 1e200], [0.0, -2.0]], [[-1.0, 0.0], [1e30, -2.0j]]]
)
def test_expm_keeps_the_diagonal_of_triangular_input(matrix):
    # the squarings alone return exp(-1) 1.4e-13 off at 1e30, and a diagonal of 1.0 at 1e200
    matrix = np.array(matrix, dtype=complex)
    got = np.diagonal(expm(matrix))
    assert np.array_equal(got, np.exp(np.diagonal(matrix)))
    assert np.array_equal(got, np.diagonal(scipy.linalg.expm(matrix)))
    # in a stack, a full matrix beside it keeps the bits it gets alone
    full = np.array([[-1.0, 0.5], [0.25, -2.0]], dtype=complex)
    assert np.array_equal(expm(np.stack([matrix, full])), np.stack([expm(matrix), expm(full)]))


@pytest.mark.parametrize("matrix", [[[-1.0, 1e200], [0.0, -2.0]], [[-1.0, 0.0], [1e30, -2.0j]]])
def test_expm_keeps_the_off_diagonal_of_triangular_input(matrix):
    # the squarings alone return 1e200 for (e^-1 - e^-2) 1e200, and 1e-46 above a lower triangle
    matrix = np.array(matrix, dtype=complex)
    corner = (0, 1) if matrix[0, 1] else (1, 0)
    with mpmath.workdps(40):
        a, b, t = (mpmath.mpc(z.real, z.imag) for z in (matrix[0, 0], matrix[1, 1], matrix[corner]))
        exact = complex(t * (mpmath.exp(a) - mpmath.exp(b)) / (a - b))
    got = expm(matrix)
    assert got[corner[::-1]] == 0.0
    assert abs(got[corner] - exact) <= 1e-15 * abs(exact)
    assert abs(got[corner] - scipy.linalg.expm(matrix)[corner]) <= 1e-15 * abs(exact)


def test_a_real_config_reaches_a_triangular_lindblad_generator(monkeypatch):
    seen = []

    def spy(generator, grid):
        seen.append(generator)
        return _ladder(generator, grid)

    monkeypatch.setattr(density, "_ladder", spy)
    parsed = validate_config_text(TRIANGULAR_CONFIG)
    evolve_lindblad_sector(parsed.model.sector, DensityMatrix.excited(3), parsed.grid)
    (generator,) = seen
    assert np.array_equal(generator, np.triu(generator)) and np.any(np.triu(generator, 1))
    stack = ladder(generator, parsed.grid)
    assert relative_errors(expm(stack), exact_expm(stack)).max() < 2e-15


@pytest.mark.parametrize("experiment", EXPERIMENTS)
def test_every_experiment_agrees_exactly_on_the_triangular_config(experiment, tmp_path, capsys):
    # without a coupling every route gives the same trivial answer, bit for bit
    config = tmp_path / "triangular.cfg"
    config.write_text(TRIANGULAR_CONFIG)
    out = tmp_path / "out"
    assert main([experiment, "--config", str(config), "--out", str(out), "--n", "1000"]) == 0
    capsys.readouterr()
    entries = dict(line.split(" = ", 1) for line in (out / "manifest.txt").read_text().splitlines())
    gated = ("max_diff_", "invariant.", "max_z_score", "max_cross_z")
    checked = {key: float(value) for key, value in entries.items() if key.startswith(gated)}
    assert all(value == 0.0 for value in checked.values()), checked
    assert bool(checked) == (experiment in ("evolve", "info", "compare"))


def test_overflowing_coupled_propagator_raises_tolerance_error():
    # the Padé route, not the diagonal one: the generator has a coupling
    generator = np.array([[800.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(ToleranceNotMet, match="not finite"):
        _propagate_constant(generator, np.array([1.0 + 0j, 0j]), TimeGrid(0.0, 1.0, 2))


def lone_peaks(n_peaks):
    """``n_peaks`` lone Lorentzians over [-2, 2], as ``scripts/peak_memory.py`` builds them."""
    return Reservoir(0.0, 0.8, tuple(
        (1.0 + 0.1 * k, 0.5 + 0.2 * k, -2.0 + 4.0 * k / (n_peaks - 1)) for k in range(n_peaks)
    ))


def ladder_problem(reservoir, kind):
    """The generator and start of the Lindblad coordinates from |e>, or of the amplitudes."""
    if reservoir.startswith("lone_peaks_"):
        sector = lone_peaks(int(reservoir.rsplit("_", 1)[1])).sector
    else:
        sector = validate_config(CONFIG_DIR / f"{reservoir}.cfg").model.sector
    if kind == "amplitudes":
        x0 = np.zeros(sector.n_modes + 1, dtype=complex)
        x0[0] = 1.0
        return mode_generator(sector), x0
    return density._coordinate_problem(sector, DensityMatrix.excited(sector.n_modes + 2).matrix)


#: grid lengths relative to the chunk size c: n = 2, below one chunk, one and a
#: half chunks, a last chunk of one row after a start with two set bits, and
#: one row past a power of two
CHUNK_GRIDS = {"two": lambda c: 2, "below": lambda c: c - 1, "half": lambda c: c + c // 2,
               "one_row": lambda c: 3 * c + 1, "power_plus_one": lambda c: 4 * c + 1}


@pytest.mark.parametrize("size", [16, 256, 1024])
@pytest.mark.parametrize("kind", ["coordinates", "amplitudes"])
@pytest.mark.parametrize(
    "reservoir", ["fig2", "bandgap", "perfect_gap", "lone_peaks_3", "lone_peaks_10"]
)
@pytest.mark.parametrize("n", [1000, 4000, 16_000, *CHUNK_GRIDS])
def test_ladder_chunks_have_the_bits_of_the_whole_fill(n, reservoir, kind, size):
    n = CHUNK_GRIDS[n](size) if n in CHUNK_GRIDS else n
    generator, x0 = ladder_problem(reservoir, kind)
    grid = TimeGrid(0.0, 10.0, n)
    whole = _propagate_constant(generator, x0, grid)
    chunks = list(_ladder_chunks(_ladder(generator, grid), x0, n, size))
    assert [start for start, _ in chunks] == list(range(0, n, size))
    assert all(len(rows) == min(size, n - start) for start, rows in chunks)
    got = np.concatenate([rows for _, rows in chunks])
    assert np.array_equal(got.view(np.uint64), whole.view(np.uint64))


@pytest.mark.parametrize(
    "reservoir, calls",
    [("fig2", 1), ("bandgap", 1), ("perfect_gap", 1), ("lone_peaks_3", 1), ("lone_peaks_10", 14)],
)
def test_ladder_is_exponentiated_in_byte_bounded_batches(reservoir, calls, monkeypatch):
    # the presets' and three peaks' ladders take one expm call, ten peaks' 144x144
    # Liouvillian one call per matrix; the bits are those of one call
    from memorymodes import amplitudes

    generator, _ = ladder_problem(reservoir, "coordinates")
    grid = TimeGrid(0.0, 10.0, 16_000)
    seen = []
    monkeypatch.setattr(amplitudes, "expm", lambda a: seen.append(len(a)) or expm(a))
    propagators = _ladder(generator, grid)
    assert len(seen) == calls and sum(seen) == len(propagators) == 14
    assert np.array_equal(propagators.view(np.uint64), expm(ladder(generator, grid)).view(np.uint64))
