import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from memorymodes import (
    DensityMatrix,
    DensitySeries,
    Reservoir,
    TimeGrid,
    atom_density_from_amplitudes,
    evolve_lindblad_sector,
    extended_density_from_amplitudes,
    info_series,
    mutual_information,
    partial_trace_atom,
    partial_trace_pseudomodes,
    propagate_sector,
    von_neumann_entropy,
)
from memorymodes import density
from memorymodes.info import EIGENVALUE_FLOOR
from memorymodes.config import validate_config

LN2 = math.log(2.0)


def random_sector_state(rng, dim):
    """Random mixture of a few pure states on the sector basis."""
    weights = rng.dirichlet(np.ones(3))
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        vec = vec / np.linalg.norm(vec)
        rho += w * np.outer(vec, vec.conj())
    return DensityMatrix(rho)


class TestEntropy:
    def test_pure_state_is_zero(self):
        assert von_neumann_entropy(DensityMatrix.excited(2)) == 0.0
        psi = np.array([0.3, 0.5 - 0.2j, 0.4 + 0.4j])
        psi = psi / np.linalg.norm(psi)
        assert von_neumann_entropy(DensityMatrix.from_pure(psi)) < 1e-12

    def test_maximally_mixed_qubit(self):
        rho = DensityMatrix(np.diag([0.5, 0.5]).astype(complex))
        assert von_neumann_entropy(rho) == pytest.approx(LN2, rel=1e-12)

    def test_bounds_for_qubit(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            rho = random_sector_state(rng, 2)
            entropy = von_neumann_entropy(rho)
            assert -1e-9 <= entropy <= LN2 + 1e-9

    def test_tiny_negative_eigenvalues_ignored(self):
        rho = np.diag([1.0, -1e-13, 0.0]).astype(complex)
        assert von_neumann_entropy(rho) == 0.0

    def test_phase_invariance(self):
        rng = np.random.default_rng(42)
        rho = random_sector_state(rng, 3)
        phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=3))
        rotated = np.diag(phases) @ rho.matrix @ np.diag(phases.conj())
        assert von_neumann_entropy(rotated) == pytest.approx(
            von_neumann_entropy(rho), abs=1e-12
        )
        assert mutual_information(rotated) == pytest.approx(
            mutual_information(rho), abs=1e-12
        )

    @pytest.mark.parametrize(
        "entries, message",
        [
            ([[np.nan, 0.0], [0.0, 1.0]], "finite"),
            ([[0.5, np.inf], [np.inf, 0.5]], "finite"),
            ([[1.0]], "dimension 1"),
            (np.zeros((0, 0)), "square matrix"),
        ],
        ids=["nan", "inf", "one_by_one", "empty"],
    )
    def test_raw_arrays_are_checked_like_states(self, entries, message):
        # unchecked, these read 0.0, 0.0 with a warning, -0.0 and a reshape error
        with pytest.raises(ValueError, match=message):
            DensityMatrix(entries)
        with pytest.raises(ValueError, match=message):
            von_neumann_entropy(entries)

    def test_raw_array_gives_the_bits_of_its_state(self):
        rng = np.random.default_rng(43)
        for dim in (2, 3, 4):
            rho = random_sector_state(rng, dim)
            raw = von_neumann_entropy(rho.matrix.tolist())
            assert raw == von_neumann_entropy(rho)


class TestMutualInformation:
    def test_product_state_is_zero(self):
        assert mutual_information(DensityMatrix.excited(3)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_entangled_pure_state(self):
        bell = DensityMatrix.from_pure(np.array([0.0, 1.0, 1.0]) / math.sqrt(2))
        assert mutual_information(bell) == pytest.approx(2 * LN2, rel=1e-12)

    def test_non_negative_and_schmidt_symmetric(self):
        rng = np.random.default_rng(43)
        for dim in (3, 4):
            for _ in range(20):
                rho = random_sector_state(rng, dim)
                assert mutual_information(rho) >= -1e-9
            # globally pure: marginal entropies coincide
            vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            vec = vec / np.linalg.norm(vec)
            pure = DensityMatrix.from_pure(vec)
            from memorymodes import partial_trace_atom, partial_trace_pseudomodes

            s_atom = von_neumann_entropy(partial_trace_pseudomodes(pure))
            s_modes = von_neumann_entropy(partial_trace_atom(pure))
            assert s_atom == pytest.approx(s_modes, abs=1e-9)


class TestInfoSeries:
    def test_combination_identity(self, fig2_traj):
        series = info_series(fig2_traj)
        assert series.grid is fig2_traj.grid
        recombined = series.entropy_atom + series.entropy_modes - series.entropy_joint
        assert np.array_equal(series.mutual_information, recombined)
        assert series.mutual_information.min() > -1e-9
        assert series.entropy_atom.max() <= LN2 + 1e-9

    def test_entropies_match_the_states_one_at_a_time(self, bandgap_model):
        # each state of the Lindblad route and of the reconstruction, through the
        # public functions on its matrices (eigvalsh for the 4x4 and 3x3 ones)
        grid = TimeGrid(0.0, 10.0, 800)
        traj = propagate_sector(bandgap_model.sector, None, grid)
        series = info_series(traj)
        for joint in (
            extended_density_from_amplitudes(traj),
            evolve_lindblad_sector(bandgap_model.sector, DensityMatrix.excited(4), grid),
        ):
            modes = partial_trace_atom(joint)
            atom = partial_trace_pseudomodes(joint)
            for k in range(grid.n_steps):
                assert von_neumann_entropy(joint[k]) == pytest.approx(series.entropy_joint[k], abs=2e-14)
                assert von_neumann_entropy(atom[k]) == pytest.approx(series.entropy_atom[k], abs=2e-14)
                assert von_neumann_entropy(modes[k]) == pytest.approx(series.entropy_modes[k], abs=2e-14)
        # the pure initial state keeps the sign of its -sum(p ln p) bit for bit
        assert np.signbit(series.entropy_joint[0]) == np.signbit(
            von_neumann_entropy(DensityMatrix.excited(4))
        )

    def test_no_eigenvalue_above_floor_gives_positive_zero(self):
        series = DensitySeries(np.zeros((2, 2, 2)))
        entropy = von_neumann_entropy(series[0])
        assert entropy == 0.0 and not np.signbit(entropy)

    def test_entropy_non_increasing_during_negative_rate(
        self, fig2_traj, fig2_rates
    ):
        atoms = atom_density_from_amplitudes(fig2_traj)
        entropy = np.array([von_neumann_entropy(rho) for rho in atoms])
        negative = fig2_rates.gamma < 0
        inside = negative[:-1] & negative[1:]
        assert inside.any()
        increases = (np.diff(entropy) > 1e-9) & inside
        assert not increases.any()

    def test_mutual_information_tracks_mode_population(self, fig2_model):
        # plot-scale sampling: ~100 points per beat period; at much denser
        # grids the flat minima reveal a small systematic offset
        grid = TimeGrid(0.0, 10.0, 400)
        traj = propagate_sector(fig2_model.sector, None, grid)
        series = info_series(traj)
        mode_pop = np.abs(traj.component("b1")) ** 2

        def extrema(values):
            diffs = np.diff(values)
            out = []
            for k in range(1, len(values) - 1):
                if diffs[k - 1] * diffs[k] < 0 and max(abs(diffs[k - 1]), abs(diffs[k])) > 1e-12:
                    out.append(k)
            return np.array(out)

        info_extrema = extrema(series.mutual_information)
        mode_extrema = extrema(mode_pop)
        assert len(info_extrema) == len(mode_extrema) > 4
        for index in info_extrema:
            assert np.min(np.abs(mode_extrema - index)) <= 2


REPO_CONFIGS = Path(__file__).resolve().parents[1] / "configs"

#: bounds on the closed form's absolute errors against 40-digit mpmath over every
#: case of ``TestClosedForm``: the worst eigenvalue error reads 1.79e-16 and the
#: worst entropy or mutual-information error 1.48e-15; near p = 1e-12, -p ln p turns
#: an eigenvalue's rounding of about 1e-16 into some 1e-15
EIGENVALUE_ERROR = 2.2e-16
ENTROPY_ERROR = 1.8e-15


def random_reservoir(n_modes: int, dips: bool, seed: int) -> Reservoir:
    """``n_modes`` modes of lone peaks and, with ``dips``, at least one peak-dip pair (two
    modes each), at random centers in [-2, 2], weights, widths and coupling."""
    rng = np.random.default_rng(seed)
    pairs = int(rng.integers(1, n_modes // 2 + 1)) if dips else 0
    peaks = []
    for k in range(n_modes - pairs):
        w1, gamma1, center = rng.uniform(0.5, 1.5), rng.uniform(0.3, 1.5), rng.uniform(-2.0, 2.0)
        peaks.append((w1, gamma1, center))
        if k < pairs:
            # w2 = r w1 and r gamma1 < gamma2 < gamma1 keep both pair rates positive
            r = rng.uniform(0.2, 0.8)
            peaks.append((-r * w1, gamma1 * (r + (1.0 - r) * rng.uniform(0.1, 0.9)), center))
    reservoir = Reservoir(0.0, rng.uniform(0.3, 1.2), tuple(peaks))
    assert reservoir.sector.n_modes == n_modes
    return reservoir


def exact_blocks(state, vacuum):
    """The (smaller, larger) eigenvalues of the joint, emitter and mode blocks of one
    amplitude vector, in 40-digit arithmetic on its float entries."""
    populations = [mpmath.mpf(z.real) ** 2 + mpmath.mpf(z.imag) ** 2 for z in state]
    e, m = populations[0], sum(populations[1:])
    v2 = mpmath.mpf(vacuum) ** 2
    mu = 1 - v2 - (e + m)
    roots = (mpmath.sqrt((1 - 2 * x) ** 2 + 4 * v2 * x) for x in (e + m, e, m))
    return [((1 - root) / 2, (1 + root) / 2) for root in roots]


def exact_matrices(state, vacuum):
    """The joint state, its emitter and its mode marginal as 40-digit matrices, built from
    Phi and mu by the partial traces, with no use of their rank."""
    phi = [mpmath.mpc(vacuum)] + [mpmath.mpc(z) for z in state[1:]] + [mpmath.mpc(state[0])]
    d = len(phi)
    joint = mpmath.matrix(d, d)
    for i in range(d):
        for j in range(d):
            joint[i, j] = phi[i] * mpmath.conj(phi[j])
    joint[0, 0] += 1 - sum(abs(z) ** 2 for z in phi)
    emitter = mpmath.matrix(2, 2)
    emitter[0, 0] = sum(joint[i, i] for i in range(d - 1))
    emitter[0, 1], emitter[1, 0], emitter[1, 1] = joint[0, d - 1], joint[d - 1, 0], joint[d - 1, d - 1]
    modes = joint[: d - 1, : d - 1]
    modes[0, 0] += joint[d - 1, d - 1]
    return joint, emitter, modes


def exact_entropy(pair):
    kept = [p for p in pair if p > EIGENVALUE_FLOOR]
    return -sum(p * mpmath.log(p) for p in kept) if kept else mpmath.mpf(0)


class TestClosedForm:
    """``info_series`` and the rank-two spectra against 40-digit mpmath."""

    @pytest.mark.parametrize("start", ["excited", "superposition"])
    @pytest.mark.parametrize(
        "case",
        ["fig2", "bandgap", "perfect_gap"]
        + [f"modes_{k}" for k in (1, 2, 4, 7, 10)]
        + [f"modes_{k}_dips" for k in (2, 4, 7, 10)],
    )
    def test_closed_form_holds_against_mpmath(self, case, start):
        if case.startswith("modes_"):
            n_modes = int(case.split("_")[1])
            sector = random_reservoir(n_modes, case.endswith("dips"), 3100 + len(case) + n_modes).sector
            grid = TimeGrid(0.0, 10.0, 400)
        else:
            parsed = validate_config(REPO_CONFIGS / f"{case}.cfg")
            sector, grid = parsed.model.sector, TimeGrid(parsed.grid.t_start, parsed.grid.t_end, 400)
        initial = np.zeros(sector.n_modes + 1, dtype=complex)
        # |e>, or 0.6|g> + 0.8i|e>: traj.vacuum is the 0.6
        initial[0] = 1.0 if start == "excited" else 0.8j
        traj = propagate_sector(sector, initial, grid)
        spectra = tuple(density._rank_two_spectra(traj.states, traj.vacuum))
        series = info_series(traj)
        entropies = (series.entropy_joint, series.entropy_atom, series.entropy_modes)
        eigenvalue_error = entropy_error = 0.0
        with mpmath.workdps(40):
            for k, state in enumerate(traj.states):
                exact = exact_blocks(state, traj.vacuum)
                for got, pair, entropy in zip(spectra, exact, entropies):
                    eigenvalue_error = max(eigenvalue_error, *(abs(got[k, i] - pair[i]) for i in range(2)))
                    entropy_error = max(entropy_error, abs(entropy[k] - exact_entropy(pair)))
                mutual = exact_entropy(exact[1]) + exact_entropy(exact[2]) - exact_entropy(exact[0])
                entropy_error = max(entropy_error, abs(series.mutual_information[k] - mutual))
            # the blocks are the whole spectrum: the matrices have their two eigenvalues
            # and zeros beside them
            for k in (0, grid.n_steps // 3, grid.n_steps - 1):
                exact = exact_blocks(traj.states[k], traj.vacuum)
                for matrix, pair in zip(exact_matrices(traj.states[k], traj.vacuum), exact):
                    values = sorted(mpmath.eighe(matrix, eigvals_only=True))
                    assert all(abs(value) < 1e-30 for value in values[:-2]), (k, values)
                    assert abs(values[-2] - pair[0]) < 1e-30 and abs(values[-1] - pair[1]) < 1e-30
        assert eigenvalue_error <= EIGENVALUE_ERROR, float(eigenvalue_error)
        assert entropy_error <= ENTROPY_ERROR, float(entropy_error)
