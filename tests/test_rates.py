import math

import numpy as np
import pytest

from memorymodes import (
    AllPointsInvalid,
    BandGapModel,
    LorentzianModel,
    TimeGrid,
    intermode_memory_identity,
    memory_identity_double,
    memory_identity_single,
    propagate_double,
    propagate_single,
    rates_from_amplitudes,
    rates_pseudomode_form,
)
from memorymodes.rates import VALIDITY_CUTOFF
from conftest import gamma_markov, random_bandgap, random_lorentzian


class TestRateExtraction:
    def test_initial_values_with_empty_mode(self):
        model = LorentzianModel(0.7, 0.7 + 1.1, 0.9, 0.4)
        grid = TimeGrid(0.0, 5.0, 200)
        for initial in (None, [0.6 + 0.3j, 0.0]):
            traj = propagate_single(model, initial, grid)
            rates = rates_from_amplitudes(traj)
            assert rates.gamma[0] == 0.0
            assert rates.s[0] == pytest.approx(2 * model.omega0, abs=1e-14)
            mode_form = rates_pseudomode_form(traj)
            assert mode_form.gamma[0] == 0.0
            assert mode_form.s[0] == 2 * model.omega0

    def test_decoupled_atom_free_evolution(self):
        model = LorentzianModel(0.6, 1.4, 1.0, 0.0)
        grid = TimeGrid(0.0, 4.0, 100)
        rates = rates_from_amplitudes(propagate_single(model, None, grid))
        assert np.allclose(rates.gamma, 0.0, atol=1e-13)
        assert np.allclose(rates.s, 2 * 0.6, atol=1e-13)

    def test_two_forms_agree_single(self, fig2_traj, fig2_model, fig2_rates):
        mode_form = rates_pseudomode_form(fig2_traj)
        assert np.nanmax(np.abs(mode_form.s - fig2_rates.s)) < 1e-6
        assert np.nanmax(np.abs(mode_form.gamma - fig2_rates.gamma)) < 1e-6

    def test_two_forms_agree_double(self, bandgap_traj, bandgap_model):
        direct = rates_from_amplitudes(bandgap_traj)
        mode_form = rates_pseudomode_form(bandgap_traj)
        assert np.nanmax(np.abs(mode_form.s - direct.s)) < 1e-6
        assert np.nanmax(np.abs(mode_form.gamma - direct.gamma)) < 1e-6

    def test_two_forms_agree_on_random_draws(self):
        rng = np.random.default_rng(31)
        grid = TimeGrid(0.0, 5.0, 150)
        for _ in range(30):
            model = random_lorentzian(rng)
            traj = propagate_single(model, None, grid)
            direct = rates_from_amplitudes(traj)
            mode_form = rates_pseudomode_form(traj)
            tol = 1e-6 * max(gamma_markov(model), 1.0)
            valid = direct.valid
            assert np.max(np.abs(mode_form.s[valid] - direct.s[valid])) < tol
            assert np.max(np.abs(mode_form.gamma[valid] - direct.gamma[valid])) < tol

    def test_markovian_limit(self):
        model = LorentzianModel(0.0, 0.0, 100.0, 1.0)
        grid = TimeGrid(0.0, 0.5, 2000)
        traj = propagate_single(model, None, grid)
        rates = rates_from_amplitudes(traj)
        mode_form = rates_pseudomode_form(traj)
        late = grid.times > 10.0 / model.peaks[0][1]
        for series in (rates.gamma, mode_form.gamma):
            deviation = np.abs(series[late] / gamma_markov(model) - 1.0)
            assert deviation.max() < 0.02

    def test_invalid_points_flagged_not_clipped(self):
        # lossless resonant oscillation passes through zeros of c1
        model = LorentzianModel(0.0, 0.0, 0.0, 1.0)
        grid = TimeGrid(0.0, math.pi, 201)  # c1 = cos(t), zero at pi/2
        traj = propagate_single(model, None, grid)
        rates = rates_from_amplitudes(traj)
        invalid = ~rates.valid
        assert invalid.any()
        assert np.all(np.abs(traj.c1[invalid]) ** 2 < VALIDITY_CUTOFF)
        assert np.all(np.isnan(rates.gamma[invalid]))
        assert np.all(np.isfinite(rates.gamma[rates.valid]))

    def test_all_points_invalid(self):
        model = LorentzianModel(0.0, 1.0, 1.0, 0.0)
        grid = TimeGrid(0.0, 1.0, 50)
        traj = propagate_single(model, [0.0, 1.0], grid)
        with pytest.raises(AllPointsInvalid):
            rates_from_amplitudes(traj)


class TestMemoryIdentitySingle:
    def test_reference_preset_residual(self, fig2_traj, fig2_model, fig2_rates):
        report = memory_identity_single(fig2_traj, fig2_rates)
        assert report.max_relative_residual < 1e-6

    def test_sign_linkage(self, fig2_traj, fig2_model, fig2_rates):
        report = memory_identity_single(fig2_traj, fig2_rates)
        guard = np.abs(report.rhs) > 1e-9 * gamma_markov(fig2_model)
        keep = guard & report.valid
        assert keep.any()
        assert np.all(np.sign(report.lhs[keep]) == np.sign(fig2_rates.gamma[keep]))

    def test_pure_mode_decay_cancels_exactly(self):
        # decoupled mode: drain and compensation cancel, both sides vanish
        model = LorentzianModel(0.0, 1.2, 0.8, 0.0)
        grid = TimeGrid(0.0, 5.0, 100)
        traj = propagate_single(model, [0.6, 0.8], grid)
        rates = rates_from_amplitudes(traj)
        report = memory_identity_single(traj, rates)
        assert np.max(np.abs(report.lhs)) < 1e-14
        assert np.max(np.abs(report.rhs)) < 1e-14
        assert report.max_relative_residual < 1e-14


class TestMemoryIdentityDouble:
    def test_reference_bandgap_residual(self, bandgap_traj, bandgap_model):
        rates = rates_from_amplitudes(bandgap_traj)
        report = memory_identity_double(bandgap_traj, rates)
        assert report.max_relative_residual < 1e-6

    def test_w2_zero_matches_single_system(self):
        # intermode coupling off and storage mode empty: the two-mode balance
        # collapses onto the single-mode one for the equivalent model
        model = BandGapModel(0.0, 0.8, 0.9, 0.0, 2.0, 0.5, math.sqrt(0.9))
        grid = TimeGrid(0.0, 6.0, 300)
        double = propagate_double(model, None, grid)
        rates_d = rates_from_amplitudes(double)
        report_d = memory_identity_double(double, rates_d)

        single_model = LorentzianModel(0.0, 0.8, model.sector.leak_rates[1], math.sqrt(0.9))
        single = propagate_single(single_model, None, grid)
        rates_s = rates_from_amplitudes(single)
        report_s = memory_identity_single(single, rates_s)

        assert np.max(np.abs(report_d.lhs - report_s.lhs)) < 1e-9
        assert np.max(np.abs(report_d.rhs - report_s.rhs)) < 1e-9

    def test_random_draws(self):
        rng = np.random.default_rng(32)
        grid = TimeGrid(0.0, 5.0, 200)
        for _ in range(25):
            model = random_bandgap(rng)
            traj = propagate_double(model, None, grid)
            rates = rates_from_amplitudes(traj)
            report = memory_identity_double(traj, rates)
            assert report.max_relative_residual < 1e-6


class TestIntermodeIdentity:
    def test_reference_bandgap(self, bandgap_traj, bandgap_model):
        report = intermode_memory_identity(bandgap_traj)
        assert report.max_relative_residual < 1e-6
        assert report.valid.all()

    def test_v_zero_storage_is_pure_decay(self):
        model = BandGapModel(0.0, 0.5, 0.9, 0.0, 2.0, 0.5, math.sqrt(0.9))
        grid = TimeGrid(0.0, 5.0, 150)
        traj = propagate_double(model, [0.8, 0.6, 0.0], grid)
        report = intermode_memory_identity(traj)
        assert np.max(np.abs(report.lhs)) < 1e-13
        assert np.max(np.abs(report.rhs)) == 0.0

    def test_perfect_gap_is_lossless_storage(self, perfect_gap_model):
        sector = perfect_gap_model.sector
        assert sector.leak_rates[0] == 0.0
        grid = TimeGrid(0.0, 10.0, 500)
        traj = propagate_double(perfect_gap_model, None, grid)
        report = intermode_memory_identity(traj)
        # with a vanishing storage rate the balance reduces to the bare drain
        index = traj.labels.index("a1")
        bare_drain = 2.0 * (traj.derivatives()[:, index] * np.conj(traj.states[:, index])).real
        assert np.array_equal(report.lhs, bare_drain)
        assert report.max_relative_residual < 1e-6
