"""Seeded sweep: every run meets its documented level or refuses with a typed error.

Small random reservoirs from the ``conftest`` builders, plus strong resonant
peaks whose excited amplitude is real and crosses zero, run the ``evolve``,
``identity``, ``nmqj`` and ``mcwf`` experiments through ``cli.run``. A run
that completes must report every route difference and identity residual
below ``LEVEL``; otherwise it must raise a ``MemoryModesError``. At a zero of
c1 no time-local generator exists, so the time-local route and the jump
unraveling refuse there while the amplitude, Lindblad and MCWF routes agree.
"""

import numpy as np
import pytest

from memorymodes import (
    DensityMatrix,
    InvalidRates,
    MemoryModesError,
    Reservoir,
    TimeGrid,
    atom_density_from_amplitudes,
    evolve_atom_timelocal,
    evolve_lindblad_sector,
    partial_trace_pseudomodes,
    propagate_sector,
    rates_from_amplitudes,
    run_mcwf_pseudomode,
    run_nmqj,
    traced_ensemble_atom_state,
    validate_config_text,
)
from memorymodes.cli import RunConfig, main, run
from conftest import random_bandgap, random_lorentzian, random_perfect_gap

#: the route and identity level a completed run must meet
LEVEL = 1e-6
EXPERIMENTS = ("evolve", "identity", "nmqj", "mcwf")
SWEEP_GRID = TimeGrid(0.0, 10.0, 1000)
EXCITED_ATOM = np.array([0.0, 1.0 + 0.0j])
#: one resonant, strongly coupled peak: c1 is real and crosses zero three times by t=10
ZERO_CROSSING_CONFIG = """\
model = lorentzian
omega0 = 0.0
omega_c = 0.0
gamma = 0.2
omega_coupling = 1.0
t_end = 10.0
n_steps = {n_steps}
"""


def strong_resonant_peak(rng):
    omega0 = float(rng.uniform(0.0, 1.0))
    width = float(rng.uniform(0.1, 0.5))
    return Reservoir(omega0, float(rng.uniform(0.5, 1.5)), ((1.0, width, omega0),))


BUILDERS = {
    "lorentzian": random_lorentzian,
    "bandgap": random_bandgap,
    "perfect_gap": random_perfect_gap,
    "resonant": strong_resonant_peak,
}


@pytest.mark.parametrize("builder", BUILDERS)
def test_every_run_meets_its_level_or_refuses(builder, tmp_path):
    rng = np.random.default_rng(list(BUILDERS).index(builder))
    completed = refused = 0
    for index in range(5):
        model = BUILDERS[builder](rng)
        for experiment in EXPERIMENTS:
            out = tmp_path / f"{index}_{experiment}"
            config = RunConfig(experiment, model, SWEEP_GRID, out, n_members=1000, seed=index)
            try:
                entries = run(config).entries
            except MemoryModesError:
                refused += 1
                assert not (out / "manifest.txt").exists()
                continue
            completed += 1
            levels = {
                key: float(value)
                for key, value in entries.items()
                if key.startswith("max_diff_") or key.endswith("max_relative_residual")
            }
            assert all(value < LEVEL for value in levels.values()), (model, levels)
    assert completed > 0
    if builder == "resonant":
        assert refused > 0


class TestZeroCrossing:
    @pytest.fixture(scope="class")
    def traj(self):
        parsed = validate_config_text(ZERO_CROSSING_CONFIG.format(n_steps=1000))
        return propagate_sector(parsed.model.sector, None, parsed.grid)

    def test_amplitude_lindblad_and_mcwf_agree(self, traj):
        c1 = traj.c1
        assert np.count_nonzero(np.diff(np.sign(c1.real)) != 0) == 3
        assert np.max(np.abs(c1.imag)) < 1e-12
        amplitude = atom_density_from_amplitudes(traj)
        extended = evolve_lindblad_sector(traj.sector, DensityMatrix.excited(3), traj.grid)
        traced = partial_trace_pseudomodes(extended)
        assert np.max(np.abs(amplitude.matrices - traced.matrices)) < 1e-12
        n = 20_000
        ensemble = traced_ensemble_atom_state(run_mcwf_pseudomode(traj, n, 3))
        sigma = np.sqrt(0.25 / n)
        pg = amplitude.ground_population()
        assert np.max(np.abs(ensemble.ground_population() - pg)) < 5 * sigma

    def test_timelocal_and_nmqj_refuse(self, traj):
        rates = rates_from_amplitudes(traj)
        assert rates.valid.all()  # every point valid, the poles lie between grid points
        with pytest.raises(InvalidRates, match="not resolved"):
            evolve_atom_timelocal(rates, DensityMatrix.excited(2))
        with pytest.raises(InvalidRates, match="not resolved"):
            run_nmqj(rates, EXCITED_ATOM, 1000, 1)

    @pytest.mark.parametrize("n_steps", [1000, 4000, 16000])
    def test_cli_evolve_refuses(self, n_steps, tmp_path, capsys):
        config = tmp_path / "resonant.cfg"
        config.write_text(ZERO_CROSSING_CONFIG.format(n_steps=n_steps), encoding="utf-8")
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(config), "--out", str(out)]) == 4
        assert "is not resolved" in capsys.readouterr().err
        assert not (out / "manifest.txt").exists()
