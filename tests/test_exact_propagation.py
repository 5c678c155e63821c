"""Structure and accuracy of the exact propagator behind the constant generators.

The Lindblad routes step the real coordinates of a Hermitian state, so every
state they return is exactly Hermitian with an exactly real diagonal, and the
coherences between the joint vacuum and the one-excitation states, which an
excited start never creates, stay exactly zero. Defective generators, which
the eigen-decomposition oracle cannot handle, are checked against
``expm_oracle``.
"""

import numpy as np
import pytest

from memorymodes import (
    DensityMatrix,
    LorentzianModel,
    TimeGrid,
    evolve_lindblad_double,
    evolve_lindblad_single,
    expm_oracle,
    single_mode_generator,
)
from memorymodes.amplitudes import _propagate_constant


@pytest.mark.parametrize("route", ["single", "double"])
def test_lindblad_states_are_structurally_exact(route, fig2_model, bandgap_model, fig2_grid):
    if route == "single":
        series = evolve_lindblad_single(fig2_model, DensityMatrix.excited(3), fig2_grid)
    else:
        series = evolve_lindblad_double(bandgap_model, DensityMatrix.excited(4), fig2_grid)
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
        single_mode_generator(LorentzianModel(0.0, 0.0, 4.0, 1.0)),
    ],
    ids=["jordan_block", "critical_damping"],
)
def test_defective_generator_matches_expm_oracle(generator):
    grid = TimeGrid(0.0, 6.0, 301)
    x0 = np.zeros(len(generator), dtype=complex)
    x0[-1] = 1.0
    rows = _propagate_constant(generator, x0, grid)
    assert np.max(np.abs(rows - expm_oracle(generator, x0, grid.times))) < 1e-14
