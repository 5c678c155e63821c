"""The n-mode sector path, on sectors the shipped presets do not reach.

The ``fig2`` sector with an extra mode (detuned by 1.3, leaking at 0.7) that
couples neither to the emitter nor to the ``fig2`` mode must leave the
emitter, the coupled mode and the emitter marginal exactly as they are.
Reservoirs of 3 and 10 lone peaks run through every density layer.
"""

import numpy as np
import pytest

from memorymodes import (
    DensityMatrix,
    PseudomodeSector,
    Reservoir,
    TimeGrid,
    evolve_lindblad_sector,
    extended_density_from_amplitudes,
    info_series,
    intermode_memory_identity,
    memory_identity_sector,
    partial_trace_pseudomodes,
    propagate_sector,
    rates_from_amplitudes,
    rates_pseudomode_form,
)
from memorymodes.csvio import write_density_csv


def with_spectator_mode(sector: PseudomodeSector) -> PseudomodeSector:
    """``sector`` (one mode) with an uncoupled mode put before it."""
    return PseudomodeSector(
        sector.omega0,
        (sector.frequencies[0] + 1.3, sector.frequencies[0]),
        (0.0, sector.couplings[0]),
        ((0.0, 0.0), (0.0, 0.0)),
        (0.7, sector.leak_rates[0]),
        ("a1", "a2"),
    )


@pytest.mark.parametrize("n_steps", [2000, 4000, 16000])
def test_uncoupled_mode_leaves_fig2_unchanged(fig2_model, n_steps):
    grid = TimeGrid(0.0, 10.0, n_steps)
    sector = with_spectator_mode(fig2_model.sector)
    two = propagate_sector(sector, None, grid)
    one = propagate_sector(fig2_model.sector, None, grid)
    assert two.labels == ("c1", "a1", "a2")
    assert np.max(np.abs(two.c1 - one.c1)) < 1e-14
    assert np.max(np.abs(two.component("a2") - one.component("b1"))) < 1e-14

    marginal_two = partial_trace_pseudomodes(
        evolve_lindblad_sector(sector, DensityMatrix.excited(4), grid)
    )
    marginal_one = partial_trace_pseudomodes(
        evolve_lindblad_sector(fig2_model.sector, DensityMatrix.excited(3), grid)
    )
    assert np.max(np.abs(marginal_two.matrices - marginal_one.matrices)) < 1e-14

    # the empty spectator mode adds nothing to the summed identity
    lhs_two = memory_identity_sector(two, rates_from_amplitudes(two)).lhs
    lhs_one = memory_identity_sector(one, rates_from_amplitudes(one)).lhs
    assert np.max(np.abs(lhs_two - lhs_one)) < 1e-14


def test_rate_forms_agree_with_two_coupled_modes():
    # both modes couple to the emitter, so the pseudomode form must sum over them
    sector = PseudomodeSector(
        0.4, (1.9, -0.7), (0.35, 0.5), ((0.0, 0.0), (0.0, 0.0)), (0.6, 1.1), ("b1", "b2")
    )
    traj = propagate_sector(sector, None, TimeGrid(0.0, 8.0, 2000))
    direct = rates_from_amplitudes(traj)
    mode_form = rates_pseudomode_form(traj)
    assert np.array_equal(mode_form.valid, direct.valid)
    valid = direct.valid
    assert np.max(np.abs(mode_form.gamma[valid] - direct.gamma[valid])) < 1e-12
    assert np.max(np.abs(mode_form.s[valid] - direct.s[valid])) < 1e-12


def test_identities_reject_another_sector(fig2_traj):
    with pytest.raises(ValueError, match="two modes"):
        intermode_memory_identity(fig2_traj)


@pytest.mark.parametrize("n_peaks", [3, 10])
def test_many_lone_peaks_run_through_every_density_layer(n_peaks, tmp_path):
    # peaks spread over [-2, 2] around the emitter, each of its own width and weight
    peaks = tuple(
        (1.0 + 0.1 * k, 0.5 + 0.2 * k, -2.0 + 4.0 * k / (n_peaks - 1)) for k in range(n_peaks)
    )
    reservoir = Reservoir(0.0, 0.8, peaks)
    dim = n_peaks + 2
    grid = TimeGrid(0.0, 10.0, 4000)
    traj = propagate_sector(reservoir.sector, None, grid)
    lindblad = evolve_lindblad_sector(reservoir.sector, DensityMatrix.excited(dim), grid)
    assert lindblad.dim == dim
    reconstructed = extended_density_from_amplitudes(traj)
    assert np.max(np.abs(lindblad.matrices - reconstructed.matrices)) <= 1e-14

    series = info_series(traj)
    assert np.all(np.isfinite(series.mutual_information))
    assert series.mutual_information.min() > -1e-12

    write_density_csv(tmp_path / "rho.csv", lindblad, grid.times)
    first = (tmp_path / "rho.csv").read_text().split("\n", 1)[0]
    empty = "0" * n_peaks
    assert first.startswith(f"# dim={dim}, basis=g{empty},g1{empty[1:]},")
    assert first.endswith(f",g{empty[1:]}1,e{empty}")
    assert len(first.split("basis=")[1].split(",")) == dim
    if n_peaks == 3:
        assert first == "# dim=5, basis=g000,g100,g010,g001,e000"
