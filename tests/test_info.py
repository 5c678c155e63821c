import math
from pathlib import Path

import numpy as np
import pytest

from memorymodes import (
    DensityMatrix,
    DensitySeries,
    Reservoir,
    TimeGrid,
    atom_density_from_amplitudes,
    evolve_lindblad_sector,
    info_series,
    mutual_information,
    partial_trace_atom,
    partial_trace_pseudomodes,
    propagate_sector,
    von_neumann_entropy,
)
from memorymodes import density
from memorymodes.config import validate_config
from memorymodes.density import _chunk_rows, _CoordinateSeries, _lindblad_coordinates

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
    def test_combination_identity(self, fig2_model, fig2_grid):
        joint = evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(3), fig2_grid)
        series = info_series(joint, fig2_grid)
        recombined = series.entropy_atom + series.entropy_modes - series.entropy_joint
        assert np.array_equal(series.mutual_information, recombined)
        assert series.mutual_information.min() > -1e-9
        assert series.entropy_atom.max() <= LN2 + 1e-9

    def test_rejects_series_of_wrong_length(self, fig2_model, fig2_grid):
        joint = evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(3), fig2_grid)
        with pytest.raises(ValueError, match="states"):
            info_series(joint[1:], fig2_grid)

    def test_rejects_emitter_only_series(self, fig2_traj, fig2_grid):
        # it would read mode entropy -0 and mutual information 0 at every point
        with pytest.raises(ValueError, match="emitter-only"):
            info_series(atom_density_from_amplitudes(fig2_traj), fig2_grid)

    def test_batched_entropies_match_single_state(self, bandgap_model):
        grid = TimeGrid(0.0, 10.0, 800)
        joint = evolve_lindblad_sector(bandgap_model.sector, DensityMatrix.excited(4), grid)
        series = info_series(joint, grid)
        modes = partial_trace_atom(joint)
        atom = partial_trace_pseudomodes(joint)
        for k in range(grid.n_steps):
            assert von_neumann_entropy(joint[k]) == series.entropy_joint[k]
            assert von_neumann_entropy(atom[k]) == series.entropy_atom[k]
            assert von_neumann_entropy(modes[k]) == series.entropy_modes[k]
        # the pure initial state keeps the sign of its -sum(p ln p) bit for bit
        assert np.signbit(series.entropy_joint[0]) == np.signbit(
            von_neumann_entropy(DensityMatrix.excited(4))
        )

    def test_one_coupled_state_leaves_its_neighbours_bits(self, fig2_model, bandgap_model, fig2_grid):
        # state 100 couples the vacuum: on fig2 it takes Jacobi, on bandgap eigvalsh;
        # every other state keeps the closed form, or Jacobi, it takes on its own
        for model, grid in ((fig2_model, fig2_grid), (bandgap_model, TimeGrid(0.0, 10.0, 200))):
            dim = model.sector.n_modes + 2
            joint = evolve_lindblad_sector(model.sector, DensityMatrix.excited(dim), grid)
            matrices = joint.matrices.copy()
            matrices[100, 0, 2] = matrices[100, 2, 0] = 1e-3
            coupled = DensitySeries(matrices)
            series = info_series(coupled, grid)
            for k in range(grid.n_steps):
                assert von_neumann_entropy(coupled[k]) == series.entropy_joint[k]
                assert coupled[k].invariant_defects()["min_eigenvalue"] == coupled.eigenvalues[k, 0]
            assert np.array_equal(coupled.eigenvalues[101:], joint.eigenvalues[101:])

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
        joint = evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(3), grid)
        series = info_series(joint, grid)
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


def lone_peaks(n_peaks):
    """The reservoir of ``n_peaks`` lone peaks of ``scripts/peak_memory.py``."""
    centers = [-2.0 + 4.0 * k / (n_peaks - 1) for k in range(n_peaks)]
    return Reservoir(0.0, 0.8, tuple((1.0 + 0.1 * k, 0.5 + 0.2 * k, c) for k, c in enumerate(centers)))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


class TestCoordinates:
    """``info_series`` and the invariants read from the real coordinates of the
    Lindblad route have the bits they have on its expanded stack."""

    @pytest.mark.parametrize("start", ["excited", "superposition"])
    @pytest.mark.parametrize("case", ["fig2", "bandgap", "perfect_gap", "lone_peaks_3", "lone_peaks_10"])
    def test_coordinates_give_the_bits_of_the_stack(self, case, start, monkeypatch):
        if case.startswith("lone_peaks"):
            sector = lone_peaks(int(case.rsplit("_", 1)[1])).sector
        else:
            sector = validate_config(REPO_CONFIGS / f"{case}.cfg").model.sector
        dim = sector.n_modes + 2
        vector = np.zeros(dim, dtype=complex)
        vector[0], vector[-1] = (0.6, 0.8j) if start == "superposition" else (0.0, 1.0)
        rho0 = DensityMatrix.from_pure(vector)
        fill, filled = density._lindblad_coordinates, []

        def keep(*args):
            coords = fill(*args)
            # the stack is expanded over its coordinates in place
            filled.append(coords.copy())
            return coords

        monkeypatch.setattr(density, "_lindblad_coordinates", keep)
        calls = []
        eigvalsh = np.linalg.eigvalsh
        chunk = _chunk_rows(dim)
        for n in (2, 3, chunk - 1, chunk, chunk + 1, 2 * chunk + 1):
            grid = TimeGrid(0.0, 10.0, n)
            stack = evolve_lindblad_sector(sector, rho0, grid)
            expected = info_series(stack, grid)
            with monkeypatch.context() as patch:
                patch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or eigvalsh(a))
                states = _CoordinateSeries(filled.pop())
                got = info_series(states, grid)
                defects = states.invariant_defects()
            for name in ("entropy_atom", "entropy_modes", "entropy_joint", "mutual_information"):
                got_bits, expected_bits = bits(getattr(got, name)), bits(getattr(expected, name))
                assert np.array_equal(got_bits, expected_bits), (n, name)
            assert {key: bits(value) for key, value in defects.items()} == {
                key: bits(value) for key, value in stack.invariant_defects().items()
            }, n
            if n <= 3:
                # the marginals of each state, one at a time through the public functions
                for k, rho in enumerate(stack):
                    assert von_neumann_entropy(partial_trace_pseudomodes(rho)) == got.entropy_atom[k]
                    assert von_neumann_entropy(partial_trace_atom(rho)) == got.entropy_modes[k]
                    assert von_neumann_entropy(rho) == got.entropy_joint[k]
        # joint states of three or more modes, and the 4x4 joint states of a
        # two-mode superposition start, reach LAPACK through the parts
        assert bool(calls) == (dim > 4 or (dim == 4 and start == "superposition"))

    def test_coordinates_are_checked_finite(self, fig2_model):
        grid = TimeGrid(0.0, 1.0, 10)
        coords = _lindblad_coordinates(fig2_model.sector, DensityMatrix.excited(3), grid)
        coords[7, 4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            _CoordinateSeries(coords)
