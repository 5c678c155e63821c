import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from memorymodes import (
    DensityMatrix,
    DensitySeries,
    RateGapTooWide,
    RateTrajectory,
    Reservoir,
    SectorLeak,
    TimeGrid,
    atom_density_from_amplitudes,
    evolve_atom_timelocal,
    evolve_lindblad_sector,
    extended_density_from_amplitudes,
    partial_trace_atom,
    partial_trace_pseudomodes,
    propagate_sector,
    rates_from_amplitudes,
    validate_config,
)
from memorymodes.density import _spectrum, sector_hamiltonian
from conftest import max_entry_diff


def constant_rates(grid, gamma_value, s_value=0.0, omega0=0.0):
    n = grid.n_steps
    return RateTrajectory(
        grid,
        np.full(n, float(s_value)),
        np.full(n, float(gamma_value)),
        np.ones(n, dtype=bool),
        omega0,
        np.zeros(n),
        np.zeros(n),
    )


class TestDensityMatrix:
    def test_from_pure_and_populations(self):
        rho = DensityMatrix.from_pure([0.0, 0.6, 0.8])
        assert rho.dim == 3
        assert rho.excited_population() == pytest.approx(0.64)
        assert rho.ground_population() == pytest.approx(0.36)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="dimension 1"):
            DensityMatrix(np.ones((1, 1)))
        with pytest.raises(ValueError):
            DensityMatrix(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            DensityMatrix(np.array([[np.nan, 0], [0, 1.0]]))

    def test_invariant_defects_on_valid_state(self):
        rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
        defects = rho.invariant_defects()
        assert defects["hermiticity"] == 0.0
        assert defects["trace"] == 0.0
        assert defects["min_eigenvalue"] == pytest.approx(0.25)

    def test_states_and_hamiltonians_compare_by_identity(self):
        # a dataclass-generated __eq__ over the ndarray field would raise
        # numpy's ambiguous-truth ValueError, and __hash__ a TypeError
        first, second = DensityMatrix.excited(2), DensityMatrix.excited(2)
        assert first == first
        assert first != second
        assert hash(first) == hash(first)
        assert len({first, second}) == 2

    def test_sector_hamiltonians(self, fig2_model, bandgap_model):
        h3 = sector_hamiltonian(fig2_model.sector)
        assert h3[1, 1] == fig2_model.peaks[0][2] - fig2_model.omega0
        assert h3[1, 2] == fig2_model.omega_coupling
        h4 = sector_hamiltonian(bandgap_model.sector)
        assert h4[1, 1] == h4[2, 2] == bandgap_model.peaks[0][2] - bandgap_model.omega0
        assert h4[2, 3] == bandgap_model.omega_coupling
        assert h4[1, 3] == 0.0
        assert h4[1, 2] == h4[2, 1] == bandgap_model.sector.intermode[0][1]


class TestTimeLocal:
    def test_unitary_limit_keeps_populations(self):
        grid = TimeGrid(0.0, 5.0, 300)
        omega0 = 0.9
        rates = constant_rates(grid, 0.0, s_value=2 * omega0, omega0=omega0)
        rho0 = DensityMatrix(np.array([[0.4, 0.2 - 0.1j], [0.2 + 0.1j, 0.6]]))
        out = evolve_atom_timelocal(rates, rho0)
        for rho in out[:: len(out) // 10]:
            assert rho.matrix[1, 1].real == pytest.approx(0.6, abs=1e-15)
            # rotating frame: the carrier contribution is removed, coherence frozen
            assert rho.matrix[1, 0] == pytest.approx(0.2 + 0.1j, abs=1e-15)

    def test_constant_rate_exponential_decay(self):
        grid = TimeGrid(0.0, 6.0, 400)
        rates = constant_rates(grid, 1.0)
        out = evolve_atom_timelocal(rates, DensityMatrix.excited(2))
        excited = np.array([rho.matrix[1, 1].real for rho in out])
        assert np.max(np.abs(excited - np.exp(-grid.times))) < 1e-9

    def test_matches_amplitude_route(self, fig2_rates, fig2_traj):
        out = evolve_atom_timelocal(fig2_rates, DensityMatrix.excited(2))
        reference = atom_density_from_amplitudes(fig2_traj)
        assert max_entry_diff(out, reference) < 2e-12

    def test_error_falls_at_fourth_order(self, fig2_model):
        # end-corrected trapezoid: halving dt divides the error by about 16
        errors = []
        for n in (2000, 4000):
            grid = TimeGrid(0.0, 10.0, n)
            traj = propagate_sector(fig2_model.sector, None, grid)
            out = evolve_atom_timelocal(rates_from_amplitudes(traj), DensityMatrix.excited(2))
            errors.append(np.max(np.abs(out.matrices - atom_density_from_amplitudes(traj).matrices)))
        assert errors[0] / errors[1] >= 12.0

    def test_superposition_coherence_matches_amplitudes(self, fig2_model, fig2_grid):
        # the coherence carries the phase integral of the shift
        c_g, c_e = 0.6, 0.8
        traj = propagate_sector(fig2_model.sector, [c_e, 0.0], fig2_grid)
        rho0 = DensityMatrix.from_pure([c_g, c_e])
        out = evolve_atom_timelocal(rates_from_amplitudes(traj), rho0)
        reference = atom_density_from_amplitudes(traj, c_g)
        assert np.max(np.abs(out.matrices[:, 1, 0])) > 0.05
        assert np.max(np.abs(out.matrices - reference.matrices)) < 1e-12

    def test_trace_exact_by_construction(self, fig2_rates):
        out = evolve_atom_timelocal(fig2_rates, DensityMatrix.excited(2))
        for rho in out[::500]:
            # one rounding op away from 1, no integration drift
            assert abs(complex(np.trace(rho.matrix)) - 1.0) < 1e-15

    def test_bridges_short_gaps(self, fig2_rates):
        hole = slice(2000, 2002)
        damaged = RateTrajectory(
            fig2_rates.grid,
            fig2_rates.s.copy(),
            fig2_rates.gamma.copy(),
            fig2_rates.valid.copy(),
            fig2_rates.omega0,
            fig2_rates.dgamma.copy(),
            fig2_rates.ds.copy(),
        )
        for series in (damaged.s, damaged.gamma, damaged.dgamma, damaged.ds):
            series[hole] = np.nan
        damaged.valid[hole] = False
        out = evolve_atom_timelocal(damaged, DensityMatrix.excited(2))
        reference = evolve_atom_timelocal(fig2_rates, DensityMatrix.excited(2))
        assert max_entry_diff(out, reference) < 1e-8

    def test_wide_gap_rejected(self, fig2_rates):
        damaged = RateTrajectory(
            fig2_rates.grid,
            fig2_rates.s.copy(),
            fig2_rates.gamma.copy(),
            fig2_rates.valid.copy(),
            fig2_rates.omega0,
            fig2_rates.dgamma,
            fig2_rates.ds,
        )
        damaged.valid[1000:1003] = False
        with pytest.raises(RateGapTooWide):
            evolve_atom_timelocal(damaged, DensityMatrix.excited(2))

    def test_boundary_gap_rejected(self, fig2_rates):
        damaged = RateTrajectory(
            fig2_rates.grid,
            fig2_rates.s.copy(),
            fig2_rates.gamma.copy(),
            fig2_rates.valid.copy(),
            fig2_rates.omega0,
            fig2_rates.dgamma,
            fig2_rates.ds,
        )
        damaged.valid[0] = False
        with pytest.raises(RateGapTooWide):
            evolve_atom_timelocal(damaged, DensityMatrix.excited(2))


class TestDensitySeries:
    def test_rejects_bad_stacks(self):
        with pytest.raises(ValueError):
            DensitySeries(np.eye(2))
        with pytest.raises(ValueError):
            DensitySeries(np.zeros((3, 2, 3)))
        with pytest.raises(ValueError, match="dimension 1"):
            DensitySeries(np.ones((3, 1, 1)))
        with pytest.raises(ValueError):
            DensitySeries(np.zeros((0, 2, 2)))
        stack = np.zeros((3, 2, 2))
        stack[1, 0, 0] = np.nan
        with pytest.raises(ValueError):
            DensitySeries(stack)

    def test_stack_is_read_only_copy(self):
        source = np.tile(np.diag([0.25, 0.75]), (4, 1, 1))
        series = DensitySeries(source)
        with pytest.raises(ValueError):
            series.matrices[0, 0, 0] = 1.0
        source[0, 0, 0] = 1.0
        assert series.matrices[0, 0, 0] == 0.25

    def test_spectrum_computed_once_and_read_only(self, monkeypatch):
        series = DensitySeries(np.array([np.diag([0.25, 0.75]), np.diag([1.1, -0.1])]))
        spectrum = series.eigenvalues
        with pytest.raises(ValueError):
            spectrum[0, 0] = 1.0
        # the invariant checks reuse the kept spectrum instead of diagonalizing again
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        assert series.eigenvalues is spectrum
        assert series.invariant_defects()["min_eigenvalue"] == spectrum.min() == -0.1

    def test_invariant_defects_report_worst_point(self):
        skewed = np.array([[0.5, 0.0], [0.1, 0.7]])
        negative = np.diag([1.1, -0.1])
        series = DensitySeries(np.array([np.diag([0.25, 0.75]), skewed, negative]))
        defects = series.invariant_defects()
        assert defects["hermiticity"] == pytest.approx(0.1, abs=1e-15)
        assert defects["trace"] == pytest.approx(0.2, abs=1e-15)
        assert defects["min_eigenvalue"] == pytest.approx(-0.1, abs=1e-15)

    def test_slicing_indexing_and_iteration(self, fig2_model, fig2_grid):
        series = evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(3), fig2_grid)
        assert isinstance(series, DensitySeries)
        assert len(series) == fig2_grid.n_steps
        part = series[10:400:7]
        assert isinstance(part, DensitySeries)
        assert np.array_equal(part.matrices, series.matrices[10:400:7])
        for k in (0, 17, -1):
            assert isinstance(series[k], DensityMatrix)
            assert np.array_equal(series[k].matrix, DensityMatrix(series.matrices[k]).matrix)
        states = list(part)
        assert all(isinstance(rho, DensityMatrix) for rho in states)
        assert np.array_equal(np.array([rho.matrix for rho in states]), part.matrices)

    def test_batched_kernels_match_pointwise(self, bandgap_model, fig2_grid):
        excited = DensityMatrix.excited(4)
        series = evolve_lindblad_sector(bandgap_model.sector, excited, fig2_grid)[::37]
        traced = partial_trace_pseudomodes(series)
        modes = partial_trace_atom(series)
        assert isinstance(traced, DensitySeries)
        assert modes.shape == (len(series), 3, 3)
        for k, rho in enumerate(series):
            assert np.array_equal(traced.matrices[k], partial_trace_pseudomodes(rho).matrix)
            assert np.array_equal(modes[k], partial_trace_atom(rho))
        pointwise = [rho.invariant_defects() for rho in series]
        worst = series.invariant_defects()
        assert worst["hermiticity"] == max(d["hermiticity"] for d in pointwise)
        assert worst["trace"] == max(d["trace"] for d in pointwise)
        assert worst["min_eigenvalue"] == min(d["min_eigenvalue"] for d in pointwise)
        ground = series.ground_population()
        assert np.array_equal(ground, [rho.ground_population() for rho in series])


class TestLindbladSingle:
    def test_ground_state_stationary(self, fig2_model):
        grid = TimeGrid(0.0, 5.0, 200)
        rho0 = DensityMatrix.from_pure([1.0, 0.0, 0.0])
        out = evolve_lindblad_sector(fig2_model.sector, rho0, grid)
        assert max_entry_diff(out, [rho0] * len(out)) < 1e-12

    def test_matches_pure_state_reconstruction(self, fig2_model, fig2_traj, fig2_grid):
        out = evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(3), fig2_grid)
        reference = extended_density_from_amplitudes(fig2_traj)
        assert max_entry_diff(out, reference) < 1e-14

    def test_lossless_doublet_conserves_excitation(self):
        model = Reservoir(0.0, 0.9, ((1.0, 0.0, 0.3),))
        grid = TimeGrid(0.0, 6.0, 300)
        out = evolve_lindblad_sector(model.sector, DensityMatrix.excited(3), grid)
        doublet = np.array([rho.matrix[1, 1].real + rho.matrix[2, 2].real for rho in out])
        assert np.max(np.abs(doublet - 1.0)) < 1e-10

    def test_invariants_along_evolution(self, fig2_model, fig2_grid):
        out = evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(3), fig2_grid)
        for rho in out[::200]:
            defects = rho.invariant_defects()
            assert defects["hermiticity"] < 1e-12
            assert defects["trace"] < 1e-9
            assert defects["min_eigenvalue"] > -1e-9

    def test_monotone_excited_sector_loss(self, fig2_model, fig2_grid):
        out = evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(3), fig2_grid)
        sector = np.array([1.0 - rho.matrix[0, 0].real for rho in out])
        assert np.all(np.diff(sector) <= 1e-12)

    def test_sector_leak(self, fig2_model, fig2_grid):
        with pytest.raises(SectorLeak):
            evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(4), fig2_grid)

    def test_non_hermitian_initial_state_rejected(self, fig2_model):
        # the real coordinates the route steps hold only the Hermitian part
        rho0 = DensityMatrix(np.array([[0, 0.1, 0], [0, 0, 0], [0, 0, 1]], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_lindblad_sector(fig2_model.sector, rho0, TimeGrid(0.0, 1.0, 10))


class TestLindbladDouble:
    def test_ground_state_stationary(self, bandgap_model):
        grid = TimeGrid(0.0, 4.0, 150)
        rho0 = DensityMatrix.from_pure([1.0, 0.0, 0.0, 0.0])
        out = evolve_lindblad_sector(bandgap_model.sector, rho0, grid)
        assert max_entry_diff(out, [rho0] * len(out)) < 1e-12

    def test_matches_amplitude_population(self, bandgap_model, bandgap_traj, fig2_grid):
        out = evolve_lindblad_sector(bandgap_model.sector, DensityMatrix.excited(4), fig2_grid)
        excited = np.array([rho.matrix[3, 3].real for rho in out])
        assert np.max(np.abs(excited - np.abs(bandgap_traj.c1) ** 2)) < 1e-6
        sector = np.array([1.0 - rho.matrix[0, 0].real for rho in out])
        assert np.all(np.diff(sector) <= 1e-12)

    def test_perfect_gap_plateau(self, perfect_gap_model):
        grid = TimeGrid(0.0, 50.0, 1500)
        out = evolve_lindblad_sector(perfect_gap_model.sector, DensityMatrix.excited(4), grid)
        traj = propagate_sector(perfect_gap_model.sector, None, grid)
        assert out[-1].matrix[3, 3].real == pytest.approx(
            np.abs(traj.c1[-1]) ** 2, abs=1e-7
        )
        assert out[-1].matrix[3, 3].real > 0.01

    def test_sector_leak(self, bandgap_model, fig2_grid):
        with pytest.raises(SectorLeak):
            evolve_lindblad_sector(bandgap_model.sector, DensityMatrix.excited(3), fig2_grid)


class TestPartialTrace:
    def test_excited_vacuum(self):
        reduced = partial_trace_pseudomodes(DensityMatrix.excited(3))
        assert np.array_equal(reduced.matrix, np.diag([0.0, 1.0]).astype(complex))

    def test_entangled_state_traces_to_mixed(self):
        bell = DensityMatrix.from_pure(np.array([0.0, 1.0, 1.0]) / math.sqrt(2))
        reduced = partial_trace_pseudomodes(bell)
        assert np.allclose(reduced.matrix, np.diag([0.5, 0.5]), atol=1e-15)

    def test_ensemble_state_ground_population(self):
        # mixed state of the shared pure vector and the jumped fraction
        psi = np.array([0.3 + 0.1j, 0.5 - 0.2j, 0.6 + 0.3j])
        psi = psi / np.linalg.norm(psi)
        n0, n1, n = 700, 300, 1000
        rho = (n0 / n) * np.outer(psi, psi.conj())
        rho[0, 0] += n1 / n
        reduced = partial_trace_pseudomodes(DensityMatrix(rho))
        expected = n1 / n + (n0 / n) * (abs(psi[0]) ** 2 + abs(psi[1]) ** 2)
        assert reduced.ground_population() == pytest.approx(expected, abs=1e-14)
        assert reduced.matrix[1, 0] == pytest.approx((n0 / n) * psi[2] * np.conj(psi[0]))

    def test_four_dim_reduction(self):
        psi = np.array([0.1, 0.2 + 0.4j, 0.3 - 0.2j, 0.7])
        psi = psi / np.linalg.norm(psi)
        rho = DensityMatrix.from_pure(psi)
        reduced = partial_trace_pseudomodes(rho)
        assert reduced.excited_population() == pytest.approx(abs(psi[3]) ** 2)
        assert reduced.matrix[1, 0] == pytest.approx(psi[3] * np.conj(psi[0]))
        modes = partial_trace_atom(rho)
        assert modes.shape == (3, 3)
        assert np.trace(modes).real == pytest.approx(1.0)

    def test_trace_consistency(self, fig2_model, fig2_grid):
        out = evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(3), fig2_grid)
        for rho in out[::800]:
            reduced = partial_trace_pseudomodes(rho)
            assert np.trace(reduced.matrix).real == pytest.approx(1.0, abs=1e-9)
            modes = partial_trace_atom(rho)
            assert np.trace(modes).real == pytest.approx(1.0, abs=1e-9)

    def test_dim2_rejected(self):
        with pytest.raises(ValueError):
            partial_trace_pseudomodes(DensityMatrix.excited(2))
        with pytest.raises(ValueError):
            partial_trace_atom(DensityMatrix.excited(2))


class TestLabFrame:
    def test_matches_lab_frame_amplitude_reconstruction(self):
        from memorymodes import density_series_lab_frame

        model = Reservoir(1.7, 0.5, ((1.0, 0.7, 1.7 + 0.9),))
        grid = TimeGrid(0.0, 4.0, 160)
        traj = propagate_sector(model.sector, [0.8, 0.0], grid)
        # the reconstructions read only the states, here the lab-frame ones
        lab = dataclasses.replace(traj, states=traj.lab_states())

        rotating = atom_density_from_amplitudes(traj, vacuum_amplitude=0.6)
        dressed = density_series_lab_frame(rotating, model.omega0, grid.times)
        direct = atom_density_from_amplitudes(lab, vacuum_amplitude=0.6)
        assert max_entry_diff(dressed, direct) < 1e-12

        rotating_ext = extended_density_from_amplitudes(traj, vacuum_amplitude=0.6)
        dressed_ext = density_series_lab_frame(rotating_ext, model.omega0, grid.times)
        direct_ext = extended_density_from_amplitudes(lab, vacuum_amplitude=0.6)
        assert max_entry_diff(dressed_ext, direct_ext) < 1e-12

    def test_series_match_pointwise_reference(self):
        from memorymodes import density_series_lab_frame

        model = Reservoir(1.7, 0.5, ((1.0, 0.7, 1.7 + 0.9),))
        grid = TimeGrid(0.0, 4.0, 160)
        traj = propagate_sector(model.sector, [0.8, 0.0], grid)
        c0 = 0.6 + 0.0j
        atom, ext = [], []
        for row in traj.states:
            ee = abs(row[0]) ** 2
            coh = row[0] * np.conj(c0)
            atom.append([[1.0 - ee, np.conj(coh)], [coh, ee]])
            phi = np.array([c0, row[1], row[0]])
            rho = np.outer(phi, phi.conj())
            rho[0, 0] += 1.0 - np.vdot(phi, phi).real
            ext.append(rho)
        # bitwise, including the signs of zeros
        series = atom_density_from_amplitudes(traj, vacuum_amplitude=c0)
        assert np.array_equal(series.matrices.view(float), np.array(atom, complex).view(float))
        extended = extended_density_from_amplitudes(traj, vacuum_amplitude=c0)
        assert np.array_equal(extended.matrices.view(float), np.array(ext).view(float))
        excitation = np.array([0.0, 1.0, 1.0])
        gaps = excitation[:, None] - excitation[None, :]
        dressed = [rho * np.exp(-1j * model.omega0 * t * gaps) for rho, t in zip(ext, grid.times)]
        lab = density_series_lab_frame(extended, model.omega0, grid.times)
        assert np.array_equal(lab.matrices.view(float), np.array(dressed).view(float))

    def test_populations_unchanged(self, fig2_model, fig2_grid):
        from memorymodes import density_series_lab_frame

        out = evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(3), fig2_grid)
        dressed = density_series_lab_frame(out[:100], 2.3, fig2_grid.times[:100])
        for a, b in zip(out[:100:7], dressed[::7]):
            assert np.array_equal(np.diag(a.matrix), np.diag(b.matrix))
            assert np.max(np.abs(np.abs(a.matrix) - np.abs(b.matrix))) < 1e-15


REPO_CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def assert_spectrum_is_eigvalsh(matrices, monkeypatch, shortcut: bool):
    """``_spectrum`` equals ``eigvalsh`` of the Hermitized stack bit for bit, signed zeros too.

    ``shortcut`` says whether it must get there without calling ``eigvalsh``.
    """
    hermitized = 0.5 * (matrices + np.swapaxes(matrices, -1, -2).conj())
    expected = np.linalg.eigvalsh(hermitized)
    calls = []
    eigvalsh = np.linalg.eigvalsh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
        got = _spectrum(matrices)
    assert len(calls) == (0 if shortcut else 1)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


class TestSpectrumOracle:
    """The diagonal shortcut of ``_spectrum`` returns what LAPACK returns."""

    @pytest.mark.parametrize("n_steps", [2000, 16000])
    @pytest.mark.parametrize("preset", ["fig2", "bandgap", "perfect_gap"])
    def test_preset_series(self, preset, n_steps, monkeypatch):
        parsed = validate_config(REPO_CONFIGS / f"{preset}.cfg")
        grid = TimeGrid(parsed.grid.t_start, parsed.grid.t_end, n_steps)
        sector = parsed.model.sector
        traj = propagate_sector(sector, None, grid)
        extended = evolve_lindblad_sector(sector, DensityMatrix.excited(sector.n_modes + 2), grid)
        timelocal = evolve_atom_timelocal(rates_from_amplitudes(traj), DensityMatrix.excited(2))
        # every emitter series of a run from |e> is diagonal, and one mode's marginal
        diagonal = [
            atom_density_from_amplitudes(traj).matrices,
            timelocal.matrices,
            partial_trace_pseudomodes(extended).matrices,
        ]
        mode_marginal = partial_trace_atom(extended)
        for matrices in diagonal:
            assert_spectrum_is_eigvalsh(matrices, monkeypatch, shortcut=True)
        assert_spectrum_is_eigvalsh(mode_marginal, monkeypatch, shortcut=sector.n_modes == 1)
        assert_spectrum_is_eigvalsh(extended.matrices, monkeypatch, shortcut=False)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_random_diagonal_stacks(self, dim, monkeypatch):
        rng = np.random.default_rng(1700 + dim)
        n = 4000
        values = rng.choice([-1.0, 1.0], (n, dim)) * 10.0 ** rng.uniform(-300, 0, (n, dim))
        kind = rng.integers(0, 4, (n, dim))
        # ties with the first entry, and zeros of both signs
        values = np.where(kind == 1, values[:, :1], values)
        values = np.where(kind == 2, rng.choice([-0.0, 0.0], (n, dim)), values)
        # a largest entry that LAPACK does not rescale, or none at all
        values[:, -1] = rng.uniform(1e-3, 1.0, n)
        values[:3] = [-0.0] * dim, [0.0] * dim, [0.5] * dim
        matrices = np.zeros((n, dim, dim), complex)
        index = np.arange(dim)
        matrices[:, index, index] = values + 1j * rng.uniform(-1, 1, (n, dim))
        assert_spectrum_is_eigvalsh(matrices, monkeypatch, shortcut=True)
        # anti-Hermitian off-diagonal entries vanish from the Hermitized stack
        upper = np.triu_indices(dim, 1)
        skew = rng.uniform(-1, 1, (n, len(upper[0]))) + 1j * rng.uniform(-1, 1, (n, len(upper[0])))
        matrices[:, upper[0], upper[1]] = skew
        matrices[:, upper[1], upper[0]] = -skew.conj()
        assert_spectrum_is_eigvalsh(matrices, monkeypatch, shortcut=True)
        assert_spectrum_is_eigvalsh(matrices[3], monkeypatch, shortcut=True)
        # one nonzero off-diagonal pair sends the whole stack to eigvalsh
        matrices[-1, 0, -1] = matrices[-1, -1, 0] = 1e-300
        assert_spectrum_is_eigvalsh(matrices, monkeypatch, shortcut=False)

    @pytest.mark.parametrize("scale", [1e-150, 1e-300, 1e150, 1e300])
    def test_stacks_that_lapack_rescales(self, scale, monkeypatch):
        # here eigvalsh returns other bits than the sorted diagonal
        rng = np.random.default_rng(1717)
        values = scale * rng.uniform(0.1, 1.0, (500, 3))
        matrices = np.zeros((500, 3, 3), complex)
        matrices[:, range(3), range(3)] = values
        assert not np.array_equal(np.linalg.eigvalsh(matrices), np.sort(values, axis=-1))
        assert_spectrum_is_eigvalsh(matrices, monkeypatch, shortcut=False)

    @pytest.mark.parametrize("dim", [20, 21, 25])
    def test_signed_zero_ties_beside_the_sort_limit(self, dim, monkeypatch):
        # above 20 values dlasrt sorts by quicksort, which can swap -0.0 and 0.0
        rng = np.random.default_rng(dim)
        matrices = np.zeros((20, dim, dim), complex)
        matrices[:, range(dim), range(dim)] = rng.choice([-0.0, 0.0, 0.5], (20, dim))
        assert_spectrum_is_eigvalsh(matrices, monkeypatch, shortcut=dim <= 20)

    def test_superposition_start_reaches_eigvalsh(self, fig2_model, monkeypatch):
        grid = TimeGrid(0.0, 4.0, 400)
        traj = propagate_sector(fig2_model.sector, [0.8, 0.0], grid)
        series = atom_density_from_amplitudes(traj, vacuum_amplitude=0.6)
        assert_spectrum_is_eigvalsh(series.matrices, monkeypatch, shortcut=False)
