import math

import numpy as np
import pytest

from memorymodes import (
    BandGapModel,
    IllConditioned,
    LorentzianModel,
    PseudomodeSector,
    TimeGrid,
    ToleranceNotMet,
    closed_form_oracle,
    expm_oracle,
    mode_generator,
    norm_balance_residuals,
    propagate_double,
    propagate_single,
)
from memorymodes.amplitudes import AmplitudeTrajectory, _propagate_constant
from conftest import gamma_markov, random_bandgap, random_lorentzian


class TestPropagateSingle:
    def test_decoupled_atom_is_stationary(self):
        model = LorentzianModel(0.0, 1.0, 1.0, 0.0)
        grid = TimeGrid(0.0, 5.0, 100)
        traj = propagate_single(model, None, grid)
        assert np.allclose(traj.c1, 1.0, atol=1e-12)
        assert np.allclose(traj.component("b1"), 0.0, atol=1e-12)

    def test_lossless_resonant_rabi(self):
        omega = 0.8
        model = LorentzianModel(0.0, 0.0, 0.0, omega)
        grid = TimeGrid(0.0, 12.0, 600)
        traj = propagate_single(model, None, grid)
        expected = np.cos(omega * grid.times) ** 2
        assert np.max(np.abs(np.abs(traj.c1) ** 2 - expected)) < 1e-9

    def test_reference_preset_rate_goes_negative(self, fig2_rates):
        assert np.nanmin(fig2_rates.gamma) < 0.0

    def test_norm_only_leaks(self, fig2_traj):
        total = fig2_traj.populations().sum(axis=1)
        assert total.max() <= 1.0 + 1e-9
        assert np.all(np.diff(total) <= 1e-12)

    def test_initial_norm_checked(self):
        model = LorentzianModel(0.0, 1.0, 1.0, 0.5)
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="norm"):
            propagate_single(model, [1.2, 0.0], grid)

    @pytest.mark.parametrize("initial", [[np.nan, 0.0], [0.0, complex(0.0, np.inf)]])
    def test_initial_non_finite_rejected(self, initial):
        # a NaN norm passes the norm bound, and the trajectory came out NaN
        model = LorentzianModel(0.0, 2.4, 0.6, 0.4)
        with pytest.raises(ValueError, match="finite"):
            propagate_single(model, initial, TimeGrid(0.0, 1.0, 50))

    @pytest.mark.parametrize(
        "rate, grid",
        [(800.0, TimeGrid(0.0, 1.0, 2)), (500.0, TimeGrid(0.0, 4.0, 5))],
        ids=["step_overflows", "power_overflows"],
    )
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # expm warns as it overflows
    def test_overflowing_propagator_raises_tolerance_error(self, rate, grid):
        # a finite generator whose exp(G*dt), or a later exp(G*m*dt), overflows
        generator = np.diag([rate, 0.0]).astype(complex)
        with pytest.raises(ToleranceNotMet, match="not finite"):
            _propagate_constant(generator, np.array([1.0 + 0j, 0j]), grid)

    def test_nonfinite_generator_rejected(self):
        bad = np.array([[np.inf, 0.0], [0.0, 0.0]], dtype=complex)
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(ValueError, match="finite"):
            _propagate_constant(bad, np.array([1.0 + 0j, 0j]), grid)


class TestPropagateDouble:
    def test_decoupled_atom(self):
        with pytest.warns():  # coupling 0 is deliberately inconsistent with the weights
            model = BandGapModel(0.0, 0.0, 1.0, 0.5, 2.0, 1.0, omega_coupling=0.0)
        grid = TimeGrid(0.0, 4.0, 200)
        traj = propagate_double(model, [0.5, 0.5, 0.5], grid)
        assert np.allclose(traj.c1, 0.5, atol=1e-12)
        total_modes = np.abs(traj.component("a1")) ** 2 + np.abs(traj.component("a2")) ** 2
        assert np.all(np.diff(total_modes) <= 1e-12)

    def test_v_zero_reduces_to_single(self):
        # w2 = 0 switches the intermode coupling off; (c1, a2) then matches
        # the single-mode system with the leaky-mode width.
        model = BandGapModel(0.3, 0.8, 0.9, 0.0, 2.0, 0.5, math.sqrt(0.9))
        assert model.sector.intermode[0][1] == 0.0
        grid = TimeGrid(0.0, 6.0, 400)
        double = propagate_double(model, [1.0, 0.0, 0.0], grid)
        single_model = LorentzianModel(0.3, 0.8, model.sector.leak_rates[1], 0.9**0.5)
        single = propagate_single(single_model, None, grid)
        assert np.max(np.abs(double.c1 - single.c1)) < 1e-9
        assert np.max(np.abs(double.component("a2") - single.component("b1"))) < 1e-9

    def test_v_zero_storage_mode_decays_independently(self):
        model = BandGapModel(0.0, 0.5, 0.9, 0.0, 2.0, 0.5, math.sqrt(0.9))
        grid = TimeGrid(0.0, 6.0, 300)
        traj = propagate_double(model, [0.8, 0.6, 0.0], grid)
        expected = 0.6 * np.exp(-0.5 * model.sector.leak_rates[0] * grid.times)
        assert np.max(np.abs(np.abs(traj.component("a1")) - expected)) < 1e-9

    def test_perfect_gap_population_trapping(self, perfect_gap_model):
        grid = TimeGrid(0.0, 50.0, 2000)
        traj = propagate_double(perfect_gap_model, None, grid)
        # independent oracle: amplitude of the undamped eigenvector of the
        # generator, projected onto the initial state via left eigenvectors
        generator = mode_generator(perfect_gap_model.sector)
        evals, evecs = np.linalg.eig(generator)
        slowest = int(np.argmax(evals.real))
        coeffs = np.linalg.solve(evecs, np.array([1.0, 0.0, 0.0], dtype=complex))
        plateau = abs(evecs[0, slowest] * coeffs[slowest]) ** 2
        assert plateau > 0.01
        assert abs(np.abs(traj.c1[-1]) ** 2 - plateau) < 1e-6


class TestOracle:
    def test_pure_phase_generator(self):
        generator = np.diag([-2.0j, -0.5j])
        out = closed_form_oracle(generator, [0.6, 0.8], 3.0)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12
        assert out[0] == pytest.approx(0.6 * np.exp(-6.0j), rel=1e-12)

    def test_rabi_matches_propagator(self):
        model = LorentzianModel(0.0, 0.0, 0.0, 0.7)
        grid = TimeGrid(0.0, 8.0, 200)
        traj = propagate_single(model, None, grid)
        oracle = closed_form_oracle(mode_generator(model.sector), [1.0, 0.0], grid.times)
        assert np.max(np.abs(oracle - traj.states)) < 1e-14

    def test_reference_preset_cross_check(self, fig2_model, fig2_traj, fig2_grid):
        oracle = closed_form_oracle(
            mode_generator(fig2_model.sector), [1.0, 0.0], fig2_grid.times
        )
        assert np.max(np.abs(oracle - fig2_traj.states)) < 1e-14

    def test_agreement_on_random_draws(self):
        rng = np.random.default_rng(21)
        grid = TimeGrid(0.0, 5.0, 120)
        for k in range(100):
            if k % 2 == 0:
                model = random_lorentzian(rng)
                traj = propagate_single(model, None, grid)
                generator = mode_generator(model.sector)
                initial = [1.0, 0.0]
            else:
                model = random_bandgap(rng)
                traj = propagate_double(model, None, grid)
                generator = mode_generator(model.sector)
                initial = [1.0, 0.0, 0.0]
            oracle = closed_form_oracle(generator, initial, grid.times)
            assert np.max(np.abs(oracle - traj.states)) < 2e-14

    def test_defective_generator_raises(self):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(IllConditioned):
            closed_form_oracle(jordan, [1.0, 0.0], 1.0)

    def test_expm_fallback_on_defective_generator(self):
        jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        out = expm_oracle(jordan, [0.0, 1.0], 2.0)
        # exp of a nilpotent block is I + t*N
        assert out == pytest.approx([2.0, 1.0])

    def test_critical_damping_fallback_agrees_with_integrator(self):
        # exceptional point: width = 4*coupling at resonance
        model = LorentzianModel(0.0, 0.0, 4.0, 1.0)
        grid = TimeGrid(0.0, 3.0, 150)
        traj = propagate_single(model, None, grid)
        generator = mode_generator(model.sector)
        with pytest.raises(IllConditioned):
            closed_form_oracle(generator, [1.0, 0.0], grid.times)
        states = expm_oracle(generator, [1.0, 0.0], grid.times)
        assert np.max(np.abs(states - traj.states)) < 3e-15


class TestNormBalance:
    def test_single(self, fig2_traj, fig2_model):
        residuals = norm_balance_residuals(fig2_traj)
        assert residuals.max() < 1e-6 * gamma_markov(fig2_model)

    def test_double(self, bandgap_traj):
        residuals = norm_balance_residuals(bandgap_traj)
        assert residuals.max() < 1e-6

    def test_monotone_norm_on_random_draws(self):
        rng = np.random.default_rng(22)
        grid = TimeGrid(0.0, 4.0, 200)
        for _ in range(20):
            traj = propagate_single(random_lorentzian(rng), None, grid)
            total = traj.populations().sum(axis=1)
            assert np.all(np.diff(total) <= 1e-10)


class TestFrames:
    def test_lab_frame_round_trip(self):
        # restoring the carrier only rephases: every modulus is kept
        model = LorentzianModel(1.3, 1.3 + 0.9, 0.7, 0.5)
        traj = propagate_single(model, None, TimeGrid(0.0, 4.0, 160))
        lab = traj.lab_states()
        assert lab.shape == traj.states.shape
        assert np.max(np.abs(np.abs(lab) - np.abs(traj.states))) < 1e-15

    def test_frame_invariance_of_observables(self):
        # lab-frame propagation done independently through the lab generator
        model = LorentzianModel(1.3, 1.3 + 0.9, 0.7, 0.5)
        grid = TimeGrid(0.0, 4.0, 160)
        rotating = propagate_single(model, None, grid)
        lab_generator = mode_generator(model.sector) - 1j * model.omega0 * np.eye(2)
        lab_states = closed_form_oracle(lab_generator, [1.0, 0.0], grid.times)
        assert np.max(np.abs(lab_states - rotating.lab_states())) < 1e-14
        assert np.max(np.abs(np.abs(lab_states) - np.abs(rotating.states))) < 1e-14
        cross_lab = lab_states[:, 0] * np.conj(lab_states[:, 1])
        cross_rot = rotating.c1 * np.conj(rotating.component("b1"))
        assert np.max(np.abs(cross_lab - cross_rot)) < 1e-14

    def test_trajectory_shape_validation(self, fig2_grid):
        with pytest.raises(ValueError):
            AmplitudeTrajectory(
                fig2_grid,
                np.zeros((3, 2), dtype=complex),
                PseudomodeSector(0.0, (0.0,), (0.0,), ((0.0,),), (0.0,), ("b1",)),
            )

    def test_state_containers(self, fig2_model, bandgap_model, fig2_grid):
        # plain sequences ordered (c1, modes in sector order); None is the excited emitter
        one = propagate_single(fig2_model, [0.6, 0.8j], fig2_grid)
        assert np.array_equal(one.states[0], np.array([0.6, 0.8j]))
        assert one.labels == ("c1", "b1")
        two = propagate_double(bandgap_model, None, fig2_grid)
        assert np.array_equal(two.states[0], np.array([1.0, 0.0, 0.0]))
        assert two.labels == ("c1", "a1", "a2")
