import dataclasses
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from memorymodes import (
    DensityMatrix,
    DensitySeries,
    InvalidRates,
    RateTrajectory,
    Reservoir,
    SectorLeak,
    TimeGrid,
    atom_density_from_amplitudes,
    evolve_atom_timelocal,
    evolve_lindblad_sector,
    extended_density_from_amplitudes,
    info_series,
    partial_trace_atom,
    partial_trace_pseudomodes,
    propagate_sector,
    rates_from_amplitudes,
    run_nmqj,
    validate_config,
)
from memorymodes import density
from memorymodes.amplitudes import _propagate_constant
from memorymodes.density import _chunk_rows, _chunks, _spectrum, _stream_rows
from memorymodes import mutual_information, von_neumann_entropy
from memorymodes.density import sector_hamiltonian
from conftest import max_entry_diff, traced_peak


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

    def test_non_hermitian_initial_state_rejected(self, fig2_rates):
        # the route reads rho_eg alone, so it would start from 0.1 where rho_ge is 0.3
        rho0 = DensityMatrix(np.array([[0.5, 0.3], [0.1, 0.5]], dtype=complex))
        with pytest.raises(ValueError, match="Hermitian"):
            evolve_atom_timelocal(fig2_rates, rho0)

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
        reference = atom_density_from_amplitudes(traj)
        assert np.max(np.abs(out.matrices[:, 1, 0])) > 0.05
        assert np.max(np.abs(out.matrices - reference.matrices)) < 1e-12

    def test_trace_exact_by_construction(self, fig2_rates):
        out = evolve_atom_timelocal(fig2_rates, DensityMatrix.excited(2))
        for rho in out[::500]:
            # one rounding op away from 1, no integration drift
            assert abs(complex(np.trace(rho.matrix)) - 1.0) < 1e-15

    @pytest.mark.parametrize(
        "invalid",
        [slice(100, 101), slice(2000, 2002), slice(1000, 1003), slice(0, 1)],
        ids=["one_interior", "two_interior", "three_interior", "boundary"],
    )
    def test_invalid_points_refused_by_both_routes(self, fig2_rates, invalid):
        damaged = dataclasses.replace(
            fig2_rates,
            **{
                name: getattr(fig2_rates, name).copy()
                for name in ("s", "gamma", "valid", "dgamma", "ds")
            },
        )
        for series in (damaged.s, damaged.gamma, damaged.dgamma, damaged.ds):
            series[invalid] = np.nan
        damaged.valid[invalid] = False
        first = f"t={damaged.grid.times[invalid.start]:.6g}"
        with pytest.raises(InvalidRates, match=first):
            evolve_atom_timelocal(damaged, DensityMatrix.excited(2))
        with pytest.raises(InvalidRates, match=first):
            run_nmqj(damaged, np.array([0.0, 1.0 + 0.0j]), 10, 1)

    def test_unresolved_step_refused(self, fig2_rates):
        # a NaN slope at a valid point leaves the step's end correction unknown
        dgamma = fig2_rates.dgamma.copy()
        dgamma[1500] = np.nan
        damaged = dataclasses.replace(fig2_rates, dgamma=dgamma)
        before = f"t={damaged.grid.times[1499]:.6g}"
        with pytest.raises(InvalidRates, match=f"step from {before} to"):
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

        rotating = atom_density_from_amplitudes(traj)
        dressed = density_series_lab_frame(rotating, model.omega0, grid.times)
        direct = atom_density_from_amplitudes(lab)
        assert max_entry_diff(dressed, direct) < 1e-12

        rotating_ext = extended_density_from_amplitudes(traj)
        dressed_ext = density_series_lab_frame(rotating_ext, model.omega0, grid.times)
        direct_ext = extended_density_from_amplitudes(lab)
        assert max_entry_diff(dressed_ext, direct_ext) < 1e-12

    def test_series_match_pointwise_reference(self):
        from memorymodes import density_series_lab_frame

        model = Reservoir(1.7, 0.5, ((1.0, 0.7, 1.7 + 0.9),))
        grid = TimeGrid(0.0, 4.0, 160)
        traj = propagate_sector(model.sector, [0.8, 0.0], grid)
        # the vacuum amplitude as traj.vacuum derives it: 0.5999999999999999, not 0.6
        c0 = complex(math.sqrt(1.0 - 0.8**2))
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
        series = atom_density_from_amplitudes(traj)
        assert np.array_equal(series.matrices.view(float), np.array(atom, complex).view(float))
        extended = extended_density_from_amplitudes(traj)
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


def chunk_count(matrices) -> int:
    """Number of chunks ``_spectrum`` splits one matrix or a stack into."""
    return len(_chunks(math.prod(matrices.shape[:-2]), matrices.shape[-1]))


def assert_spectrum_is_eigvalsh(matrices, monkeypatch, calls: int):
    """``_spectrum`` equals ``eigvalsh`` of the Hermitized stack bit for bit, signed zeros too.

    ``calls`` is the number of chunks that must get there through ``eigvalsh``,
    one call each; the others must take a shortcut.
    """
    hermitized = 0.5 * (matrices + np.swapaxes(matrices, -1, -2).conj())
    expected = np.linalg.eigvalsh(hermitized)
    got = spectrum_counting_eigvalsh(matrices, monkeypatch, calls)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def spectrum_counting_eigvalsh(matrices, monkeypatch, calls: int) -> np.ndarray:
    """``_spectrum(matrices)``, which must call ``eigvalsh`` ``calls`` times."""
    made = []
    eigvalsh = np.linalg.eigvalsh
    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigvalsh", lambda a: made.append(a) or eigvalsh(a))
        got = _spectrum(matrices)
    assert len(made) == calls
    return got


def mp_pair(a: float, c: float, b: complex):
    """Eigenvalues of the Hermitian [[a, b], [b*, c]] at 40 digits, ascending."""
    with mpmath.workdps(40):
        a, c, b = mpmath.mpf(a), mpmath.mpf(c), mpmath.mpc(b)
        root = mpmath.sqrt((a - c) ** 2 + 4 * abs(b) ** 2)
        return (a + c - root) / 2, (a + c + root) / 2


#: bound on |closed form - exact| / max|part| of a 2x2 matrix's Hermitized parts; the
#: worst block of ``test_two_by_two_matrices_take_a_closed_form`` reads 2.98e-16
PAIR_ERROR = 3.5e-16


class TestSpectrum:
    def test_two_by_two_matrices_take_a_closed_form(self, monkeypatch):
        rng = np.random.default_rng(1725)
        n = 600
        a, c = rng.uniform(-1.0, 1.0, (2, n))
        b = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
        b[::3] = 1j * b[::3].imag  # purely imaginary couplings
        b[1::7] = 0.0  # diagonal matrices
        scale = 10.0 ** rng.choice([-300.0, -150.0, 0.0, 150.0, 300.0], n)
        a, c, b = a * scale, c * scale, b * scale
        special = [
            (0.0, 0.0, 0.0),  # the zero matrix
            (0.3, 0.3, 0.0),  # multiples of the identity
            (-2.5, -2.5, 0.0),
            (-0.7, -0.2, 0.1 + 0.3j),  # negative trace
            (0.4, -0.4, 0.2 - 0.1j),  # zero trace
            (0.0, 0.0, 0.5j),
            (-0.6, -0.6, 1e-9j),
            (1.0, 0.0, 0.0),  # a pure emitter state
            (0.5, 0.5, 0.5),  # rank one
            (1e308, -0.5e308, 0.5e308 * (1.0 + 1.0j)),
            (1e-300, 3e-300, 2e-300j),
        ]
        a[: len(special)], c[: len(special)], b[: len(special)] = zip(*special)
        # the Hermitized coupling of [[a, b + k], [conj(b - k), c]] is b for any k
        skew = rng.uniform(-1.0, 1.0, n) * np.abs(b)
        matrices = np.zeros((n, 2, 2), complex)
        matrices[:, 0, 0] = a + 1j * rng.uniform(-1.0, 1.0, n)
        matrices[:, 1, 1] = c
        matrices[:, 0, 1], matrices[:, 1, 0] = b + skew, np.conj(b - skew)
        got = spectrum_counting_eigvalsh(matrices, monkeypatch, calls=0)
        exact = [mp_pair(*block) for block in zip(a, c, b)]
        largest = np.maximum(np.maximum(np.abs(a), np.abs(c)), np.abs(b))
        errors = [
            max(abs(mpmath.mpf(value) - target) for value, target in zip(values, targets)) / top
            for values, targets, top in zip(got, exact, largest)
            if top > 0.0
        ]
        assert max(errors) <= PAIR_ERROR, max(errors)
        # a diagonal matrix gives its sorted diagonal, a zero matrix +0.0 twice
        diagonal = b == 0.0
        assert np.array_equal(got[diagonal], np.sort(np.stack([a, c], axis=1)[diagonal], axis=1))
        assert np.array_equal(got[0].view(np.int64), np.zeros(2).view(np.int64))
        assert np.all(got[:, 0] <= got[:, 1])
        # each matrix gets the bits it gets alone
        for k in (0, 4, 9, 10, n - 1):
            assert np.array_equal(got[k].view(np.int64), _spectrum(matrices[k]).view(np.int64))

    @pytest.mark.parametrize("dim", [3, 4, 12])
    def test_larger_stacks_go_to_eigvalsh_once_per_chunk(self, dim, monkeypatch):
        rng = np.random.default_rng(1800 + dim)
        n = _chunk_rows(dim) + 5
        matrices = rng.normal(size=(n, dim, dim)) + 1j * rng.normal(size=(n, dim, dim))
        assert_spectrum_is_eigvalsh(matrices, monkeypatch, calls=2)

    def test_one_state_calls_eigvalsh_once(self, bandgap_model, monkeypatch):
        grid = TimeGrid(0.0, 10.0, 200)
        rho = extended_density_from_amplitudes(propagate_sector(bandgap_model.sector, None, grid))[150]
        assert rho.dim == 4
        seen = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.shape) or eigvalsh(a))
        rho.invariant_defects()
        von_neumann_entropy(rho)
        assert seen == [(1, 4, 4), (1, 4, 4)]
        # the emitter marginal is 2x2 and takes the closed form
        seen.clear()
        mutual_information(rho)
        assert seen == [(1, 3, 3), (1, 4, 4)]

#: allowance beside the Weyl distance delta_k for the rounding of ``eigvalsh`` and of the
#: closed form on a preset's Lindblad states; the worst read 1.07e-15 (``fig2``, 4000
#: points) for the joint states and 2.0e-16 for the mode marginals
LINDBLAD_ROUNDING = 1.3e-15


def padded(pair: np.ndarray, dim: int) -> np.ndarray:
    """The rank-two spectra ``pair`` (n, 2) with the dim - 2 zeros beside them, ascending."""
    return np.sort(np.concatenate([pair, np.zeros((len(pair), dim - 2))], axis=1), axis=1)


class TestSpectrumOracle:
    """``_spectrum`` against references: ``eigvalsh``'s bits above dimension 2, with
    every matrix of a chunk getting the bits it gets alone; the 2x2 form against
    mpmath and exact under powers of two; and each preset's Lindblad states against
    the rank-two closed form of their reconstruction, within Weyl's bound."""

    @pytest.mark.parametrize("n_steps", [1000, 2000, 4000, 16000])
    @pytest.mark.parametrize("preset", ["fig2", "bandgap", "perfect_gap"])
    def test_preset_series(self, preset, n_steps, monkeypatch):
        parsed = validate_config(REPO_CONFIGS / f"{preset}.cfg")
        grid = TimeGrid(parsed.grid.t_start, parsed.grid.t_end, n_steps)
        sector = parsed.model.sector
        traj = propagate_sector(sector, None, grid)
        extended = evolve_lindblad_sector(sector, DensityMatrix.excited(sector.n_modes + 2), grid)
        timelocal = evolve_atom_timelocal(rates_from_amplitudes(traj), DensityMatrix.excited(2))
        # every emitter series of a run from |e> is diagonal: its sorted diagonal, no eigvalsh
        diagonal = [
            atom_density_from_amplitudes(traj).matrices,
            timelocal.matrices,
            partial_trace_pseudomodes(extended).matrices,
        ]
        for matrices in diagonal:
            got = spectrum_counting_eigvalsh(matrices, monkeypatch, calls=0)
            entries = np.stack([matrices[:, 0, 0].real, matrices[:, 1, 1].real], axis=1)
            assert np.array_equal(got, np.sort(entries, axis=1))
        # by Weyl's inequality each eigenvalue of Lindblad state k lies within its distance
        # delta_k of the reconstruction's, the closed form and zeros; tracing out the
        # emitter adds at most two entries into one, so the marginal's lie within sqrt(2)
        joint, _, modes = density._rank_two_spectra(traj.states, traj.vacuum)
        delta = density._distances(
            extended.matrices, density._extended_vectors(traj.states, traj.vacuum)
        )
        assert delta.max() < 1e-14
        gap = np.abs(extended.eigenvalues - padded(joint, extended.dim)).max(axis=1)
        assert np.all(gap <= delta + LINDBLAD_ROUNDING), (gap - delta).max()
        marginal = partial_trace_atom(extended)
        calls = 0 if sector.n_modes == 1 else chunk_count(marginal)
        got = spectrum_counting_eigvalsh(marginal, monkeypatch, calls=calls)
        gap = np.abs(got - padded(modes, marginal.shape[-1])).max(axis=1)
        allowed = np.sqrt(2.0) * delta + LINDBLAD_ROUNDING
        assert np.all(gap <= allowed), (gap - allowed).max()

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_random_diagonal_stacks(self, dim, monkeypatch):
        rng = np.random.default_rng(1700 + dim)
        n = 4000
        values = rng.choice([-1.0, 1.0], (n, dim)) * 10.0 ** rng.uniform(-300, 0, (n, dim))
        kind = rng.integers(0, 4, (n, dim))
        # ties with the first entry, and zeros of both signs
        values = np.where(kind == 1, values[:, :1], values)
        values = np.where(kind == 2, rng.choice([-0.0, 0.0], (n, dim)), values)
        values[:, -1] = rng.uniform(1e-3, 1.0, n)
        values[:3] = [-0.0] * dim, [0.0] * dim, [0.5] * dim
        matrices = np.zeros((n, dim, dim), complex)
        index = np.arange(dim)
        matrices[:, index, index] = values + 1j * rng.uniform(-1, 1, (n, dim))
        calls = 0 if dim == 2 else chunk_count(matrices)
        sorted_diagonal = np.sort(values, axis=1)

        def check(matrices, expected, calls):
            # eigvalsh's bits; the 2x2 form, with no call, the sorted diagonal, where
            # eigvalsh may order or sign a pair of zeros otherwise
            if dim > 2:
                assert_spectrum_is_eigvalsh(matrices, monkeypatch, calls=calls)
            got = spectrum_counting_eigvalsh(matrices, monkeypatch, calls=calls)
            assert np.array_equal(got, expected)

        check(matrices, sorted_diagonal, calls)
        # anti-Hermitian off-diagonal entries vanish from the Hermitized stack
        upper = np.triu_indices(dim, 1)
        skew = rng.uniform(-1, 1, (n, len(upper[0]))) + 1j * rng.uniform(-1, 1, (n, len(upper[0])))
        matrices[:, upper[0], upper[1]] = skew
        matrices[:, upper[1], upper[0]] = -skew.conj()
        check(matrices, sorted_diagonal, calls)
        check(matrices[0], sorted_diagonal[0], min(calls, 1))
        # one nonzero off-diagonal pair changes the spectrum of its matrix alone
        before = _spectrum(matrices)
        matrices[-1, 0, -1] = matrices[-1, -1, 0] = 1e-300
        got = spectrum_counting_eigvalsh(matrices, monkeypatch, calls=calls)
        assert np.array_equal(got[:-1].view(np.int64), before[:-1].view(np.int64))
        assert np.array_equal(got[-1].view(np.int64), _spectrum(matrices[-1]).view(np.int64))

    @pytest.mark.parametrize("scale", [1e-150, 1e-300, 1e150, 1e300])
    def test_stacks_that_lapack_rescales(self, scale, monkeypatch):
        # here eigvalsh returns other bits than the sorted diagonal, and _spectrum its bits
        rng = np.random.default_rng(1717)
        values = scale * rng.uniform(0.1, 1.0, (500, 3))
        matrices = np.zeros((500, 3, 3), complex)
        matrices[:, range(3), range(3)] = values
        assert not np.array_equal(np.linalg.eigvalsh(matrices), np.sort(values, axis=-1))
        assert_spectrum_is_eigvalsh(matrices, monkeypatch, calls=chunk_count(matrices))
        # the 2x2 form scales each matrix by a power of two itself, so scaling a stack
        # by one scales its spectrum exactly
        blocks = matrices[:, 1:, 1:].copy()
        blocks[:, 0, 1] = rng.uniform(-1.0, 1.0, 500) + 1j * rng.uniform(-1.0, 1.0, 500)
        blocks[:, 1, 0] = blocks[:, 0, 1].conj()
        power = 2.0 ** np.round(np.log2(scale))
        unit = blocks / power
        got = spectrum_counting_eigvalsh(blocks, monkeypatch, calls=0)
        assert np.array_equal(got.view(np.int64), (_spectrum(unit) * power).view(np.int64))

    @pytest.mark.parametrize("dim", [4, 5, 8, 12])
    def test_split_blocks_keep_the_bits_of_eigvalsh(self, dim, monkeypatch):
        # an uncoupled [0, 0] beside a block of 3x3 or more, ties and signed zeros too
        rng = np.random.default_rng(1800 + dim)
        n = 5000
        half = rng.normal(size=(n, dim - 1, dim - 1)) + 1j * rng.normal(size=(n, dim - 1, dim - 1))
        trailing = (half + np.swapaxes(half, -1, -2).conj()) / (4.0 * dim)
        trailing[:50] = 0.0
        vacuum = rng.uniform(-1.0, 1.0, n)
        vacuum[:100:2] = rng.choice([0.0, -0.0], 50)
        ties = slice(100, 200)
        vacuum[ties] = np.linalg.eigvalsh(trailing[ties])[np.arange(100), rng.integers(0, dim - 1, 100)]
        matrices = np.zeros((n, dim, dim), complex)
        matrices[:, 0, 0], matrices[:, 1:, 1:] = vacuum, trailing
        # an anti-Hermitian row 0 vanishes from the Hermitized matrices
        skew = rng.normal(size=(n, dim - 1)) + 1j * rng.normal(size=(n, dim - 1))
        matrices[:, 0, 1:], matrices[:, 1:, 0] = skew, -skew.conj()
        assert_spectrum_is_eigvalsh(matrices, monkeypatch, calls=chunk_count(matrices))

    @pytest.mark.parametrize("dim", [2, 3, 4])
    @pytest.mark.parametrize(
        "entry", [np.nextafter(1e-140, 0.0), np.nextafter(1e140, np.inf), 1e-300]
    )
    def test_coupled_matrix_beside_the_edges_keeps_eigvalsh(self, dim, entry, monkeypatch):
        # one matrix with a coupling past edge_stack's edges, which LAPACK may rescale,
        # beside ordinary ones: each keeps the bits it gets alone, and above dimension 2
        # those of eigvalsh, in one call for the stack
        rng = np.random.default_rng(1900 + dim)
        matrices = np.zeros((300, dim, dim), complex)
        matrices[:, -2:, -2:] = rng.uniform(0.1, 1.0, (300, 2, 2))
        matrices[:, -1, -2] = matrices[:, -2, -1] = rng.uniform(0.1, 1.0, 300)
        matrices[:, dim - 2 :, dim - 2 :] += np.eye(2)
        matrices[-1, -1, -2], matrices[-1, -2, -1] = 1j * entry, -1j * entry
        calls = 0 if dim == 2 else 1
        got = spectrum_counting_eigvalsh(matrices, monkeypatch, calls=calls)
        if dim > 2:
            assert_spectrum_is_eigvalsh(matrices, monkeypatch, calls=calls)
        for rows in (slice(-1, None), slice(None, -1)):
            alone = spectrum_counting_eigvalsh(matrices[rows], monkeypatch, calls=calls)
            assert np.array_equal(got[rows].view(np.int64), alone.view(np.int64))


def edge_stack(n: int, dim: int = 3) -> np.ndarray:
    """``n`` matrices, diagonal once Hermitized, with tiny, huge and signed-zero entries,
    except the last: off-diagonal entries, a larger entry, and the stack's worst
    hermiticity gap and trace defect."""
    rng = np.random.default_rng(n)
    low, high = 1e-140, 1e140
    inner = [0.0, -0.0, low, -low, np.nextafter(low, 0.0), -np.nextafter(low, 0.0), 0.5, high]
    values = rng.choice(inner, (n, dim))
    values[:, -1] = rng.choice([low, -low, high, -high, 0.5], n)
    values[: n // 3 : 7] = rng.choice([0.0, -0.0], (len(values[: n // 3 : 7]), dim))
    matrices = np.zeros((n, dim, dim), complex)
    index = np.arange(dim)
    matrices[:, index, index] = values + 1j * rng.uniform(-1, 1, (n, dim))
    # anti-Hermitian off-diagonal pairs vanish from the Hermitized matrices
    skew = rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)
    matrices[:, 0, 1], matrices[:, 1, 0] = skew, -skew.conj()
    matrices[-1, 0, -1] = matrices[-1, -1, 0] = 0.25
    matrices[-1, 1, 0] += 8.0
    matrices[-1, 1, 1] = np.nextafter(high, np.inf)
    matrices[-1, 0, 0] = 4.0 * high
    return matrices


class TestChunkEdges:
    """Chunked whole-series operations give the bits of one pass over the whole stack."""

    ROWS = _chunk_rows(3)

    @pytest.mark.parametrize("n", [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1])
    def test_spectrum_and_invariants(self, n, monkeypatch):
        matrices = edge_stack(n)
        assert chunk_count(matrices) == (1 if n <= self.ROWS else 2 if n == self.ROWS + 1 else 3)
        assert_spectrum_is_eigvalsh(matrices, monkeypatch, calls=chunk_count(matrices))
        series = DensitySeries(matrices)
        trace = np.trace(matrices, axis1=-2, axis2=-1)
        assert series.invariant_defects() == {
            "hermiticity": float(np.max(np.abs(matrices - np.swapaxes(matrices, -1, -2).conj()))),
            "trace": float(np.max(np.abs(trace.real - 1.0) + np.abs(trace.imag))),
            "min_eigenvalue": float(series.eigenvalues.min()),
        }

    @pytest.mark.parametrize("preset", ["fig2", "bandgap", "perfect_gap", "four_lone_peaks"])
    def test_lindblad_fill_is_one_product(self, preset):
        # the stack, filled a stream chunk at a time, has the bits of the whole
        # coordinate fill expanded by one product
        sector = lindblad_sector(preset)
        dim = sector.n_modes + 2
        chunk = _stream_rows(dim)
        # the coordinates' basis: the diagonal, then Re and Im of the upper triangle
        rows, cols = np.triu_indices(dim, 1)
        unit = np.eye(dim * dim)
        upper, lower = unit[rows * dim + cols], unit[cols * dim + rows]
        basis = np.concatenate([unit[:: dim + 1], upper + lower, 1j * (upper - lower)]).T
        generator, x0 = density._coordinate_problem(sector, DensityMatrix.excited(dim).matrix)
        for n in (2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1, 3 * chunk + 1, 2**14 + 1):
            grid = TimeGrid(0.0, 10.0, n)
            got = evolve_lindblad_sector(sector, DensityMatrix.excited(dim), grid).matrices
            expected = (_propagate_constant(generator, x0, grid) @ basis.T).reshape(-1, dim, dim)
            assert np.array_equal(got.view(np.int64), expected.view(np.int64)), n

    @pytest.mark.parametrize("preset", ["fig2", "bandgap", "four_lone_peaks"])
    def test_stream_chunks_are_the_series(self, preset):
        # each pass over the stream yields consecutive chunks of _stream_rows
        # states, checked series with the bits of the filled stack
        sector = lindblad_sector(preset)
        dim = sector.n_modes + 2
        chunk = _stream_rows(dim)
        grid = TimeGrid(0.0, 10.0, 3 * chunk + 5)
        stream = density._LindbladStream(sector, DensityMatrix.excited(dim), grid)
        whole = evolve_lindblad_sector(sector, DensityMatrix.excited(dim), grid).matrices
        for _ in range(2):
            spans, parts = zip(*stream)
            assert [(rows.start, rows.stop) for rows in spans] == [
                (0, chunk), (chunk, 2 * chunk), (2 * chunk, 3 * chunk), (3 * chunk, 3 * chunk + 5)
            ]
            assert all(isinstance(part, DensitySeries) and part.dim == dim for part in parts)
            got = np.concatenate([part.matrices for part in parts])
            assert np.array_equal(got.view(np.int64), whole.view(np.int64))

    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 12, 200, 400])
    def test_stream_rows_are_a_power_of_two_within_half_a_chunk(self, dim):
        rows = _stream_rows(dim)
        assert rows & (rows - 1) == 0
        assert rows <= max(1, _chunk_rows(dim) // 2) < 2 * rows


def lindblad_sector(preset):
    """The sector of a preset, or of four lone peaks (dimension 6)."""
    if preset == "four_lone_peaks":
        peaks = tuple((1.0 + 0.1 * k, 0.5 + 0.2 * k, -2.0 + 4.0 * k / 3) for k in range(4))
        return Reservoir(0.0, 0.8, peaks).sector
    return validate_config(REPO_CONFIGS / f"{preset}.cfg").model.sector


def test_lindblad_scratch_is_bounded():
    """The Lindblad fill holds at most 1.5 MiB beside the stack it returns.

    The real coordinates are made and expanded a stream chunk at a time, so
    the scratch does not grow with the grid (``bandgap``, 16 000 and 64 000
    points).
    """
    sector = lindblad_sector("bandgap")
    for n_steps in (16_000, 64_000):
        grid = TimeGrid(0.0, 10.0, n_steps)
        series, peak, current = traced_peak(
            lambda: evolve_lindblad_sector(sector, DensityMatrix.excited(4), grid)
        )
        assert current >= series.matrices.nbytes / 2**20
        assert peak - current <= 1.5, (n_steps, peak - current)


def test_series_scratch_is_bounded():
    """Invariant checks and entropies hold a fixed scratch beyond what they keep.

    Under tracemalloc, the peak of each call minus what is still allocated when it
    returns (its results, the cached spectrum) must stay under 4 MiB and grow by at
    most 0.5 MiB from 16 000 to 64 000 points of ``bandgap``. ``info_series`` reads
    the amplitude solution, the other two the Lindblad series.
    """
    parsed = validate_config(REPO_CONFIGS / "bandgap.cfg")
    calls = {
        "invariant_defects": lambda series, traj: series.invariant_defects(),
        "certified_defects": density._certified_defects,
        "info_series": lambda series, traj: info_series(traj),
    }
    scratch = {}
    for n_steps in (16_000, 64_000):
        grid = TimeGrid(parsed.grid.t_start, parsed.grid.t_end, n_steps)
        traj = propagate_sector(parsed.model.sector, None, grid)
        for name, call in calls.items():
            # a new series each time, so that each call computes the spectrum
            series = evolve_lindblad_sector(parsed.model.sector, DensityMatrix.excited(4), grid)
            kept, peak, current = traced_peak(lambda: call(series, traj))
            assert kept
            scratch[name, n_steps] = peak - current
    for name in calls:
        small, large = scratch[name, 16_000], scratch[name, 64_000]
        assert small < 4.0 and large < 4.0, (name, small, large)
        assert abs(large - small) <= 0.5, (name, small, large)
