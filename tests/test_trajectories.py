import math
from pathlib import Path

import numpy as np
import pytest

from memorymodes import (
    AmplitudeTrajectory,
    BandGapModel,
    DensityMatrix,
    Ensemble,
    GridMismatch,
    InvalidRates,
    LorentzianModel,
    NonPhysical,
    RateTrajectory,
    StepTooLarge,
    TimeGrid,
    atom_density_from_amplitudes,
    compare_unravelings,
    evolve_lindblad_single,
    propagate_double,
    propagate_sector,
    propagate_single,
    rates_from_amplitudes,
    run_mcwf_pseudomode,
    run_nmqj,
    traced_ensemble_atom_state,
    validate_config,
)
from memorymodes.trajectories import (
    MAX_JUMP_PROBABILITY,
    MCWF_STREAM,
    NMQJ_STREAM,
    _death_counts,
    _engine_generator,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

EXCITED_ATOM = np.array([0.0, 1.0 + 0.0j])


def constant_rates(grid, gamma_value, s_value=0.0):
    n = grid.n_steps
    return RateTrajectory(
        grid,
        np.full(n, float(s_value)),
        np.full(n, float(gamma_value)),
        np.ones(n, dtype=bool),
        0.0,
        np.zeros(n),
        np.zeros(n),
    )


class TestNmqj:
    def test_zero_rate_keeps_ensemble_pure(self):
        grid = TimeGrid(0.0, 5.0, 200)
        ens = run_nmqj(constant_rates(grid, 0.0), EXCITED_ATOM, 500, 3)
        assert np.all(ens.n1 == 0)
        assert np.all(ens.n0 == 500)

    def test_member_conservation(self, fig2_rates):
        ens = run_nmqj(fig2_rates, EXCITED_ATOM, 2000, 5)
        assert np.all(ens.n0 + ens.n1 == 2000)
        assert np.all(ens.n0 >= 0)
        assert np.all(ens.n1 >= 0)

    def test_shared_state_normalized(self, fig2_rates):
        ens = run_nmqj(fig2_rates, np.array([0.6, 0.8 + 0j]), 50, 7)
        norms = np.linalg.norm(ens.psi0, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12

    def test_no_jump_state_matches_amplitudes(self, fig2_model, fig2_grid):
        # the no-jump state is the normalized (C_g, c1(t)) of the amplitude route
        for c_g, c_e in ((0.0, 1.0), (0.6, 0.8)):
            traj = propagate_single(fig2_model, [c_e, 0.0], fig2_grid)
            ens = run_nmqj(rates_from_amplitudes(traj), np.array([c_g, c_e + 0j]), 10, 3)
            exact = np.column_stack([np.full(fig2_grid.n_steps, c_g + 0j), traj.c1])
            exact /= np.linalg.norm(exact, axis=1)[:, None]
            assert np.max(np.abs(ens.psi0 - exact)) < 5e-13

    def test_markovian_exponential_decay(self):
        grid = TimeGrid(0.0, 5.0, 1000)
        n = 100_000
        ens = run_nmqj(constant_rates(grid, 1.0), EXCITED_ATOM, n, 11)
        expected = np.exp(-grid.times)
        sigma = np.sqrt(np.clip(expected * (1 - expected), 1e-12, None) / n)
        excited = ens.n0 / n  # psi0 stays |e> for an excited start
        assert np.max(np.abs(excited - expected) / sigma) < 5.0

    def test_reference_preset_matches_master_equation(self, fig2_rates, fig2_traj):
        n = 20_000
        ens = run_nmqj(fig2_rates, EXCITED_ATOM, n, 13)
        exact = np.abs(fig2_traj.c1) ** 2
        sigma = np.sqrt(np.clip(exact * (1 - exact), 0.0, None) / n)
        excited = ens.n0 / n
        good = sigma > 0
        assert np.max(np.abs(excited[good] - exact[good]) / sigma[good]) < 5.0

    def test_reverse_jumps_repopulate_deterministic_state(self, fig2_rates):
        ens = run_nmqj(fig2_rates, EXCITED_ATOM, 50_000, 17)
        negative = fig2_rates.gamma[:-1] < 0
        gained = np.diff(ens.n0) > 0
        assert (negative & gained).any()
        # members only return during negative-rate steps
        assert not (gained & ~negative).any()

    def test_jump_counts_balance_the_shared_count(self, fig2_rates):
        ens = run_nmqj(fig2_rates, EXCITED_ATOM, 50_000, 17)
        assert ens.jump_counts.shape == (fig2_rates.grid.n_steps - 1, 1)
        assert np.array_equal(ens.n0[1:], ens.n0[:-1] - ens.jump_counts.sum(axis=1))
        # one signed channel: negative exactly on the steps with reverse jumps
        counts = ens.jump_counts[:, 0]
        reverse_steps = (fig2_rates.gamma[:-1] < 0) & (counts != 0)
        assert reverse_steps.any()
        assert np.array_equal(counts < 0, reverse_steps)

    def test_shared_state_independent_of_jump_history(self, fig2_rates):
        a = run_nmqj(fig2_rates, np.array([0.6, 0.8 + 0j]), 200, 1)
        b = run_nmqj(fig2_rates, np.array([0.6, 0.8 + 0j]), 200, 999)
        assert np.array_equal(a.psi0, b.psi0)

    def test_negative_rate_with_empty_ground_class(self):
        # rate < 0 from the start: nothing to jump back, ensemble stays pure
        grid = TimeGrid(0.0, 1.0, 100)
        ens = run_nmqj(constant_rates(grid, -0.05), EXCITED_ATOM, 300, 19)
        assert np.all(ens.n1 == 0)

    def test_seed_determinism(self, fig2_rates):
        base = run_nmqj(fig2_rates, EXCITED_ATOM, 30_000, 23)
        again = run_nmqj(fig2_rates, EXCITED_ATOM, 30_000, 23)
        assert np.array_equal(base.n0, again.n0)
        assert np.array_equal(base.n1, again.n1)
        assert np.array_equal(base.psi0, again.psi0)
        other = run_nmqj(fig2_rates, EXCITED_ATOM, 30_000, 24)
        assert not np.array_equal(base.n0, other.n0)

    def test_step_too_large(self):
        grid = TimeGrid(0.0, 1.0, 20)
        with pytest.raises(StepTooLarge):
            run_nmqj(constant_rates(grid, 10.0), EXCITED_ATOM, 10, 1)

    def test_invalid_rates_rejected(self, fig2_rates):
        damaged = RateTrajectory(
            fig2_rates.grid,
            fig2_rates.s.copy(),
            fig2_rates.gamma.copy(),
            fig2_rates.valid.copy(),
            fig2_rates.omega0,
            fig2_rates.dgamma,
            fig2_rates.ds,
        )
        damaged.valid[100] = False
        with pytest.raises(InvalidRates):
            run_nmqj(damaged, EXCITED_ATOM, 10, 1)

    def test_superposition_start_reproduces_coherence(self, fig2_model):
        # the shift acts as a pure phase on C_e, so the reconstructed
        # ensemble matrix must track the master-equation coherence too
        from memorymodes import evolve_atom_timelocal

        grid = TimeGrid(0.0, 6.0, 1200)
        traj = propagate_single(fig2_model, None, grid)
        rates = rates_from_amplitudes(traj)
        c_g, c_e = 0.6, 0.8
        n = 40_000
        ens = run_nmqj(rates, np.array([c_g, c_e + 0.0j]), n, 71)
        rho0 = DensityMatrix(
            np.array([[c_g**2, c_g * c_e], [c_g * c_e, c_e**2]], dtype=complex)
        )
        exact = evolve_atom_timelocal(rates, rho0)
        ground = np.zeros((2, 2), dtype=complex)
        ground[0, 0] = 1.0
        worst = 0.0
        for k in range(0, grid.n_steps, 13):
            share = np.outer(ens.psi0[k], ens.psi0[k].conj())
            ensemble = (ens.n0[k] / n) * share + (ens.n1[k] / n) * ground
            survival = ens.n0[k] / n  # plug-in binomial scale
            scale = np.abs(share - ground) * math.sqrt(
                max(survival * (1 - survival), 1e-12) / n
            )
            gap = np.abs(ensemble - exact[k].matrix)
            with np.errstate(invalid="ignore", divide="ignore"):
                scores = np.where(scale > 1e-12, gap / scale, np.where(gap > 1e-6, np.inf, 0.0))
            worst = max(worst, float(np.max(scores)))
        assert worst < 5.0

    def test_statistical_soundness_over_seeds(self, fig2_model):
        grid = TimeGrid(0.0, 6.0, 1200)
        traj = propagate_single(fig2_model, None, grid)
        rates = rates_from_amplitudes(traj)
        exact = 1.0 - np.abs(traj.c1) ** 2
        sigma_unit = np.sqrt(np.clip(exact * (1 - exact), 0.0, None))
        n = 2000
        pooled = []
        for seed in range(20):
            ens = run_nmqj(rates, EXCITED_ATOM, n, seed)
            ground = ens.n1 / n
            keep = sigma_unit > 1e-6
            scores = (ground[keep] - exact[keep]) / (sigma_unit[keep] / math.sqrt(n))
            pooled.append(scores[::60])  # thin the autocorrelated series
        pooled = np.concatenate(pooled)
        assert abs(pooled.mean()) < 0.2
        assert 0.5 < pooled.var() < 2.0


class TestMcwf:
    def test_ground_state_is_stationary(self, fig2_model):
        grid = TimeGrid(0.0, 4.0, 100)
        traj = propagate_single(fig2_model, [0.0, 0.0], grid)
        ens = run_mcwf_pseudomode(traj, 400, 29, vacuum_amplitude=1.0)
        assert np.all(ens.n1 == 0)
        assert np.array_equal(ens.jump_counts, np.zeros_like(ens.jump_counts))
        assert np.max(np.abs(ens.psi0 - ens.psi0[0])) < 1e-12

    def test_lossless_mode_never_jumps(self):
        model = LorentzianModel(0.0, 0.0, 0.0, 0.9)
        grid = TimeGrid(0.0, 6.0, 400)
        ens = run_mcwf_pseudomode(propagate_single(model, None, grid), 500, 31)
        assert np.all(ens.n1 == 0)
        expected = np.cos(0.9 * grid.times) ** 2
        assert np.max(np.abs(np.abs(ens.psi0[:, 2]) ** 2 - expected)) < 1e-8

    def test_matches_dissipative_solution_entrywise(self, fig2_model, fig2_traj, fig2_grid):
        n = 20_000
        ens = run_mcwf_pseudomode(fig2_traj, n, 37)
        exact = evolve_lindblad_single(fig2_model, DensityMatrix.excited(3), fig2_grid)
        vacuum = np.zeros((3, 3))
        vacuum[0, 0] = 1.0
        worst = 0.0
        for k in range(0, fig2_grid.n_steps, 41):
            share = np.outer(ens.psi0[k], ens.psi0[k].conj())
            ensemble = (ens.n0[k] / n) * share + (ens.n1[k] / n) * vacuum
            p0 = 1.0 - exact[k].matrix[0, 0].real  # survival weight
            scale = np.abs(share - vacuum) * math.sqrt(max(p0 * (1 - p0), 0.0) / n)
            gap = np.abs(ensemble - exact[k].matrix)
            with np.errstate(invalid="ignore", divide="ignore"):
                scores = np.where(scale > 0, gap / scale, np.where(gap > 1e-9, np.inf, 0.0))
            worst = max(worst, float(np.max(scores)))
        assert worst < 5.0

    def test_jump_rate_bookkeeping(self, fig2_model):
        grid = TimeGrid(0.0, 10.0, 2000)
        n = 20_000
        ens = run_mcwf_pseudomode(propagate_single(fig2_model, None, grid), n, 41)
        mode_pop = np.abs(ens.psi0[:-1, 1]) ** 2
        per_member = fig2_model.peaks[0][1] * grid.dt * mode_pop
        expected = np.sum(ens.n0[:-1] * per_member)
        variance = np.sum(ens.n0[:-1] * per_member * (1 - per_member))
        total = ens.jump_counts.sum()
        assert abs(total - expected) / math.sqrt(variance) < 5.0

    def test_jump_counts_balance_the_shared_count(self, fig2_traj):
        ens = run_mcwf_pseudomode(fig2_traj, 20_000, 41)
        assert np.array_equal(ens.n0[1:], ens.n0[:-1] - ens.jump_counts.sum(axis=1))
        assert ens.jump_counts.sum() > 0
        assert ens.jump_counts.min() >= 0  # constant leak rates never reverse

    def test_seed_determinism(self, fig2_traj):
        base = run_mcwf_pseudomode(fig2_traj, 30_000, 43)
        again = run_mcwf_pseudomode(fig2_traj, 30_000, 43)
        assert np.array_equal(base.n0, again.n0)
        assert np.array_equal(base.jump_counts, again.jump_counts)
        other = run_mcwf_pseudomode(fig2_traj, 30_000, 44)
        assert not np.array_equal(base.n0, other.n0)

    def test_superposition_with_vacuum_component(self, fig2_model):
        # nonzero joint-vacuum amplitude: the no-jump state keeps it frozen
        # and the traced ensemble must match the exact emitter evolution
        grid = TimeGrid(0.0, 6.0, 1200)
        c_vac = 0.6
        initial = np.array([c_vac, 0.0, 0.8 + 0.0j])
        n = 40_000
        traj = propagate_single(fig2_model, np.array([0.8 + 0.0j, 0.0]), grid)
        ens = run_mcwf_pseudomode(traj, n, 73, vacuum_amplitude=c_vac)
        assert np.allclose(ens.psi0[0], initial / np.linalg.norm(initial), atol=1e-12)
        exact = atom_density_from_amplitudes(traj, vacuum_amplitude=c_vac)
        traced = traced_ensemble_atom_state(ens)
        sigma_floor = 1.0 / math.sqrt(n)
        worst = max(
            float(np.max(np.abs(a.matrix - b.matrix))) / sigma_floor
            for a, b in zip(traced[::17], exact[::17])
        )
        assert worst < 5.0
        # ground-population formula with every emitter-ground weight active
        pg = traced.ground_population()
        manual = ens.n1 / n + (ens.n0 / n) * (
            np.abs(ens.psi0[:, 0]) ** 2 + np.abs(ens.psi0[:, 1]) ** 2
        )
        assert np.array_equal(pg, manual)

    def test_two_mode_channels(self, bandgap_model, bandgap_traj, fig2_grid):
        n = 5000
        ens = run_mcwf_pseudomode(bandgap_traj, n, 47)
        assert ens.psi0.shape == (fig2_grid.n_steps, 4)
        assert ens.jump_counts.shape == (fig2_grid.n_steps - 1, 2)
        assert np.all(ens.n0 + ens.n1 == n)
        # each channel's total matches its expected share of the jumps
        rates = np.array(bandgap_model.sector.leak_rates)
        per_member = np.abs(ens.psi0[:-1, 1:3]) ** 2 * rates * fig2_grid.dt
        expected = ens.n0[:-1] @ per_member
        variance = ens.n0[:-1] @ (per_member * (1 - per_member))
        totals = ens.jump_counts.sum(axis=0)
        assert np.all(totals > 0)
        assert np.all(np.abs(totals - expected) / np.sqrt(variance) < 5.0)

    def test_negative_leakage_rate_rejected(self):
        # a storage mode with negative rate has no jump unraveling
        model = BandGapModel(
            omega0=0.0, omega_c=0.5, w1=0.4, w2=0.39, gamma1=2.0, gamma2=0.2,
            omega_coupling=0.1, allow_nonphysical=True,
        )
        grid = TimeGrid(0.0, 1.0, 100)
        with pytest.raises(NonPhysical):
            run_mcwf_pseudomode(propagate_double(model, None, grid), 10, 1)

    def test_step_too_large(self):
        model = LorentzianModel(0.0, 0.0, 5.0, 2.0)
        grid = TimeGrid(0.0, 1.0, 12)
        with pytest.raises(StepTooLarge):
            run_mcwf_pseudomode(propagate_single(model, None, grid), 10, 1)

    def test_rejects_unnormalized_state(self, fig2_model, fig2_grid):
        with pytest.raises(ValueError, match="normalized"):
            run_mcwf_pseudomode(propagate_single(fig2_model, [0.5, 0.0], fig2_grid), 10, 1)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_seed_outside_u64_rejected(seed, fig2_traj, fig2_rates):
    with pytest.raises(ValueError, match="seed"):
        run_nmqj(fig2_rates, EXCITED_ATOM, 10, seed)
    with pytest.raises(ValueError, match="seed"):
        run_mcwf_pseudomode(fig2_traj, 10, seed)


def test_ensemble_size_outside_int64_rejected(fig2_traj, fig2_rates):
    with pytest.raises(ValueError, match="n_members"):
        run_nmqj(fig2_rates, EXCITED_ATOM, 2**63, 1)
    with pytest.raises(ValueError, match="n_members"):
        run_mcwf_pseudomode(fig2_traj, 2**63, 1)


def test_non_finite_initial_state_rejected(fig2_traj, fig2_rates):
    # a NaN norm passes the normalization bound; the samplers then failed in numpy
    with pytest.raises(ValueError, match="finite"):
        run_nmqj(fig2_rates, np.array([np.nan, 1.0]), 10, 1)
    with pytest.raises(ValueError, match="finite"):
        run_mcwf_pseudomode(fig2_traj, 10, 1, vacuum_amplitude=np.nan)
    # a trajectory built by hand is checked too, at every point
    states = fig2_traj.states.copy()
    states[-1, 1] = np.inf
    damaged = AmplitudeTrajectory(fig2_traj.grid, states, fig2_traj.sector)
    with pytest.raises(ValueError, match="finite"):
        run_mcwf_pseudomode(damaged, 10, 1)


class TestTracedEnsemble:
    def test_unjumped_excited(self):
        grid = TimeGrid(0.0, 1.0, 2)
        psi0 = np.tile(np.array([0.0, 0.0, 1.0 + 0j]), (2, 1))
        ens = Ensemble(grid, 10, np.array([10, 10]), psi0, 0, np.zeros((1, 1), dtype=np.int64))
        out = traced_ensemble_atom_state(ens)
        assert np.array_equal(out[0].matrix, np.diag([0.0, 1.0]).astype(complex))

    def test_fully_jumped(self):
        grid = TimeGrid(0.0, 1.0, 2)
        psi0 = np.tile(np.array([0.0, 0.0, 1.0 + 0j]), (2, 1))
        ens = Ensemble(grid, 10, np.array([0, 0]), psi0, 0, np.zeros((1, 1), dtype=np.int64))
        out = traced_ensemble_atom_state(ens)
        assert np.array_equal(out[0].matrix, np.diag([1.0, 0.0]).astype(complex))

    def test_generic_ground_population(self):
        grid = TimeGrid(0.0, 1.0, 2)
        psi = np.array([0.3 + 0.1j, 0.5 - 0.2j, 0.6 + 0.3j])
        psi = psi / np.linalg.norm(psi)
        ens = Ensemble(grid, 1000, np.array([700, 700]), np.tile(psi, (2, 1)), 0,
                       np.zeros((1, 1), dtype=np.int64))
        out = traced_ensemble_atom_state(ens)
        expected = 0.3 + 0.7 * (abs(psi[0]) ** 2 + abs(psi[1]) ** 2)
        assert out[0].ground_population() == pytest.approx(expected, abs=1e-14)

    def test_matches_partial_trace_of_ensemble_density(self, fig2_traj):
        from memorymodes import partial_trace_pseudomodes

        ens = run_mcwf_pseudomode(fig2_traj, 500, 53)
        traced = traced_ensemble_atom_state(ens)
        for k in (0, 1000, 3999):
            share = np.outer(ens.psi0[k], ens.psi0[k].conj())
            full = (ens.n0[k] / 500) * share
            full[0, 0] += ens.n1[k] / 500
            direct = partial_trace_pseudomodes(DensityMatrix(full))
            assert np.max(np.abs(direct.matrix - traced[k].matrix)) < 1e-12

    def test_matches_pointwise_reference(self, bandgap_model, fig2_grid):
        traj = propagate_double(bandgap_model, [math.sqrt(0.91), 0.0, 0.0], fig2_grid)
        ens = run_mcwf_pseudomode(traj, 500, 5, vacuum_amplitude=0.3)
        reference = []
        for psi, n0, n1 in zip(ens.psi0, ens.n0, ens.n1):
            w0, w1 = n0 / 500, n1 / 500
            ee = w0 * abs(psi[-1]) ** 2
            eg = w0 * psi[-1] * np.conj(psi[0])
            gg = w0 * float(np.sum(np.abs(psi[:-1]) ** 2)) + w1
            reference.append([[gg, np.conj(eg)], [eg, ee]])
        traced = traced_ensemble_atom_state(ens).matrices
        assert np.array_equal(traced.view(float), np.array(reference, complex).view(float))


class TestCompare:
    def test_degenerate_decoupled_case_scores_zero(self):
        # atom decoupled from the mode: no jumps anywhere, all series agree
        model = LorentzianModel(0.0, 1.0, 0.8, 0.0)
        grid = TimeGrid(0.0, 3.0, 120)
        traj = propagate_single(model, None, grid)
        rates = rates_from_amplitudes(traj)
        nmqj = run_nmqj(rates, EXCITED_ATOM, 50, 3)
        mcwf = run_mcwf_pseudomode(traj, 50, 3)
        report = compare_unravelings(nmqj, mcwf, atom_density_from_amplitudes(traj))
        assert report.max_z_score == 0.0
        assert report.max_cross_z == 0.0

    def test_reference_preset(self, fig2_rates, fig2_traj):
        nmqj = run_nmqj(fig2_rates, EXCITED_ATOM, 10_000, 59)
        mcwf = run_mcwf_pseudomode(fig2_traj, 10_000, 61)
        report = compare_unravelings(nmqj, mcwf, atom_density_from_amplitudes(fig2_traj))
        assert report.max_z_score < 5.0
        assert report.max_cross_z < 5.0
        assert np.all(report.sigma[report.pg_exact * (1 - report.pg_exact) > 0] > 0)

    def test_extended_reference_reads_emitter_ground_population(
        self, fig2_model, fig2_rates, fig2_traj, fig2_grid
    ):
        # [0, 0] of an extended state is the joint-vacuum population only; the
        # reference must sum the whole emitter-ground diagonal
        nmqj = run_nmqj(fig2_rates, EXCITED_ATOM, 1000, 1)
        mcwf = run_mcwf_pseudomode(fig2_traj, 1000, 1)
        extended = evolve_lindblad_single(fig2_model, DensityMatrix.excited(3), fig2_grid)
        atom = compare_unravelings(nmqj, mcwf, atom_density_from_amplitudes(fig2_traj))
        joint = compare_unravelings(nmqj, mcwf, extended)
        assert abs(joint.max_z_score - atom.max_z_score) < 1e-6
        assert abs(joint.max_cross_z - atom.max_cross_z) < 1e-6
        assert np.max(np.abs(joint.pg_exact - atom.pg_exact)) < 1e-6

    def test_single_member_edge_case(self, fig2_rates, fig2_traj):
        nmqj = run_nmqj(fig2_rates, EXCITED_ATOM, 1, 67)
        mcwf = run_mcwf_pseudomode(fig2_traj, 1, 67)
        report = compare_unravelings(nmqj, mcwf, atom_density_from_amplitudes(fig2_traj))
        assert np.all(np.isfinite(report.sigma))
        assert report.max_z_score >= 0.0

    def test_grid_mismatch(self, fig2_model, fig2_rates, fig2_traj):
        nmqj = run_nmqj(fig2_rates, EXCITED_ATOM, 10, 1)
        other = TimeGrid(0.0, 5.0, 100)
        mcwf = run_mcwf_pseudomode(propagate_single(fig2_model, None, other), 10, 1)
        with pytest.raises(GridMismatch):
            compare_unravelings(nmqj, mcwf, atom_density_from_amplitudes(fig2_traj))


# The per-step loops the samplers ran before each pure-death stretch became one
# multinomial draw: one binomial per emitter step, one multinomial per MCWF
# step. The stretch sampler must reproduce their draws exactly.


def reference_nmqj(rates, n_members, seed):
    """Per-step emitter sampling from an excited start; returns (n0, jump_counts)."""
    rng = _engine_generator(seed, NMQJ_STREAM)
    times = rates.grid.times
    dt = rates.grid.dt
    gamma = np.asarray(rates.gamma, dtype=float)
    excited_pop = np.ones(len(times))  # the shared state stays excited
    direct = gamma >= 0.0
    p_direct = np.where(direct, gamma, 0.0) * dt * excited_pop
    worst = p_direct[:-1].max(initial=0.0)
    if worst > MAX_JUMP_PROBABILITY:
        k = int(np.argmax(p_direct[:-1]))
        raise StepTooLarge(
            f"jump probability {worst:.3g} at t={times[k]:.6g} exceeds "
            f"{MAX_JUMP_PROBABILITY}; refine the grid"
        )
    n0 = np.empty(len(times), dtype=np.int64)
    cur0 = n_members
    for k in range(len(times) - 1):
        n0[k] = cur0
        cur1 = n_members - cur0
        if direct[k]:
            cur0 -= int(rng.binomial(cur0, p_direct[k]))
        elif cur1 > 0:
            p_reverse = (cur0 / cur1) * (-gamma[k]) * dt * excited_pop[k]
            if p_reverse > MAX_JUMP_PROBABILITY:
                raise StepTooLarge(
                    f"reverse-jump probability {p_reverse:.3g} at t={times[k]:.6g} "
                    f"exceeds {MAX_JUMP_PROBABILITY}; refine the grid or enlarge "
                    "the ensemble"
                )
            cur0 += int(rng.binomial(cur1, p_reverse))
    n0[-1] = cur0
    return n0, -np.diff(n0)[:, None]


def mcwf_channel_probabilities(ens, model):
    """Per-step, per-channel jump probabilities of the MCWF shared states ``ens.psi0``."""
    mode_pops = np.abs(ens.psi0[:, 1:-1]) ** 2
    return mode_pops * np.array(model.sector.leak_rates) * ens.grid.dt


def reference_mcwf(ens, model):
    """Per-step MCWF sampling of the shared states ``ens.psi0``; returns (n0, jump_counts)."""
    rng = _engine_generator(ens.seed, MCWF_STREAM)
    p_channel = mcwf_channel_probabilities(ens, model)
    p_total = p_channel.sum(axis=1)
    p_outcome = np.column_stack([p_channel, 1.0 - p_total])
    n_points = ens.grid.n_steps
    n0 = np.empty(n_points, dtype=np.int64)
    jump_counts = np.zeros((n_points - 1, p_channel.shape[1]), dtype=np.int64)
    cur0 = ens.n_members
    for k in range(n_points - 1):
        n0[k] = cur0
        jump_counts[k] = rng.multinomial(cur0, p_outcome[k])[:-1]
        cur0 -= int(jump_counts[k].sum())
    n0[-1] = cur0
    return n0, jump_counts


def assert_same_draws(ens, reference):
    n0, jump_counts = reference
    assert np.array_equal(ens.n0, n0)
    assert np.array_equal(ens.jump_counts, jump_counts)


def assert_same_nmqj(rates, n_members, seed):
    """The sampler and the reference draw the same counts or refuse at the same step."""
    try:
        reference = reference_nmqj(rates, n_members, seed)
    except StepTooLarge as refused:
        with pytest.raises(StepTooLarge) as sampled:
            run_nmqj(rates, EXCITED_ATOM, n_members, seed)
        assert str(sampled.value) == str(refused)
        return None
    ens = run_nmqj(rates, EXCITED_ATOM, n_members, seed)
    assert_same_draws(ens, reference)
    return ens


@pytest.fixture(scope="module")
def preset_inputs():
    """Reservoir, amplitudes and extracted rates of each shipped preset, per grid size."""
    inputs = {}
    for preset in ("fig2", "bandgap", "perfect_gap"):
        parsed = validate_config(CONFIG_DIR / f"{preset}.cfg")
        for n_points in (1000, 4000, 16000):
            grid = TimeGrid(parsed.grid.t_start, parsed.grid.t_end, n_points)
            traj = propagate_sector(parsed.model.sector, None, grid)
            inputs[preset, n_points] = (parsed.model, traj, rates_from_amplitudes(traj))
    return inputs


# fewer seeds on the finer grids keep the per-step references quick
ORACLE_SEEDS = {1000: range(10), 4000: (10, 11), 16000: (12,)}


class TestStretchSamplerOracle:
    @pytest.mark.parametrize("preset", ["fig2", "bandgap", "perfect_gap"])
    @pytest.mark.parametrize("n_points", [1000, 4000, 16000])
    def test_presets_draw_what_the_per_step_loops_draw(self, preset_inputs, preset, n_points):
        model, traj, rates = preset_inputs[preset, n_points]
        for n_members in (1, 10**3, 10**5, 10**9):
            for seed in ORACLE_SEEDS[n_points]:
                assert_same_nmqj(rates, n_members, seed)
                ens = run_mcwf_pseudomode(traj, n_members, seed)
                assert_same_draws(ens, reference_mcwf(ens, model))

    def test_lossless_mode(self):
        model = LorentzianModel(0.0, 0.0, 0.0, 0.9)
        grid = TimeGrid(0.0, 6.0, 400)
        ens = run_mcwf_pseudomode(propagate_single(model, None, grid), 10**5, 3)
        assert_same_draws(ens, reference_mcwf(ens, model))
        assert not ens.jump_counts.any()
        assert not assert_same_nmqj(constant_rates(grid, 0.0), 10**5, 3).jump_counts.any()

    def test_single_member_leaves_inside_a_stretch(self, fig2_model):
        traj = propagate_single(fig2_model, None, TimeGrid(0.0, 10.0, 1000))
        emptied = 0
        for seed in range(10):
            ens = run_mcwf_pseudomode(traj, 1, seed)
            assert_same_draws(ens, reference_mcwf(ens, fig2_model))
            emptied += ens.n0[-1] == 0
        assert emptied > 0

    def test_nmqj_starting_with_reverse_steps(self):
        # the rate is negative on the first steps, with no ground members to return yet
        grid = TimeGrid(0.0, 10.0, 2000)
        rates = constant_rates(grid, 0.0)
        rates.gamma[:] = 0.8 * np.sin(3.0 * grid.times - 0.5) + 0.3
        assert rates.gamma[0] < 0.0
        reverse_draws = 0
        for seed in range(5):
            ens = assert_same_nmqj(rates, 10**4, seed)
            reverse_draws += (ens.jump_counts < 0).sum()
        assert reverse_draws > 0

    def test_two_point_grid(self, fig2_model):
        traj = propagate_single(fig2_model, None, TimeGrid(0.0, 0.05, 2))
        assert assert_same_nmqj(rates_from_amplitudes(traj), 10**9, 7).jump_counts.shape == (1, 1)
        ens = run_mcwf_pseudomode(traj, 10**9, 7)
        assert_same_draws(ens, reference_mcwf(ens, fig2_model))

    def test_mcwf_through_many_halvings(self):
        # the no-jump probability falls to about 1e-13, so the 1e9 members
        # run through some thirty half-survival stretches before the last leaves
        model = validate_config(CONFIG_DIR / "bandgap.cfg").model
        traj = propagate_sector(model.sector, None, TimeGrid(0.0, 200.0, 40_000))
        ens = run_mcwf_pseudomode(traj, 10**9, 11)
        assert_same_draws(ens, reference_mcwf(ens, model))
        assert ens.n0[-1] == 0

        class RecordingGenerator:
            def __init__(self, rng):
                self.rng = rng
                self.survived = []

            def multinomial(self, n, pvals):
                self.survived.append(pvals[-1])
                return self.rng.multinomial(n, pvals)

        # each stretch ends once its survival is below 1/2, so every draw keeps
        # a survived cell of at least 1/2 times one step's no-jump probability
        rng = RecordingGenerator(_engine_generator(11, MCWF_STREAM))
        p_channel = mcwf_channel_probabilities(ens, model)[:-1]
        assert np.array_equal(_death_counts(rng, 10**9, p_channel), ens.jump_counts)
        assert len(rng.survived) >= 30
        assert min(rng.survived) > 0.5 * (1.0 - MAX_JUMP_PROBABILITY) * (1.0 - 1e-12)

    def test_reverse_step_too_large_at_the_same_step(self):
        # a few early deaths leave n0/n1 large when the rate turns negative
        grid = TimeGrid(0.0, 1.0, 101)
        rates = constant_rates(grid, 1.0)
        rates.gamma[20:] = -1.0
        for seed in range(3):
            with pytest.raises(StepTooLarge, match="reverse-jump"):
                run_nmqj(rates, EXCITED_ATOM, 1000, seed)
            assert assert_same_nmqj(rates, 1000, seed) is None
