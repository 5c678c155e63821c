import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from memorymodes import Reservoir, TimeGrid, propagate_sector, rates_from_amplitudes

# Reservoir arguments; a peak is (weight, width, center), a dip has a negative weight.

# Reference preset: width 0.6, coupling sqrt(0.15), detuning 4*width, in units
# of the weak-coupling decay rate (so gamma_markov == 1).
FIG2_PARAMS = dict(omega0=0.0, omega_coupling=math.sqrt(0.15), peaks=((1.0, 0.6, 2.4),))

# Tame band-gap set (w1 = 0.4, w2 = 0.1, gamma1 = 2.0, gamma2 = 0.8 at 0.5):
# excited population stays above 0.07 so the extracted rates are smooth on the
# default grid.
BANDGAP_PARAMS = dict(
    omega0=0.0, omega_coupling=math.sqrt(0.3), peaks=((0.4, 2.0, 0.5), (-0.1, 0.8, 0.5))
)

PERFECT_GAP_PARAMS = dict(
    omega0=0.0, omega_coupling=math.sqrt(0.5), peaks=((1.0, 2.0, 0.0), (-0.5, 1.0, 0.0))
)


@pytest.fixture(scope="session")
def fig2_model():
    return Reservoir(**FIG2_PARAMS)


@pytest.fixture(scope="session")
def fig2_grid():
    return TimeGrid(0.0, 10.0, 4000)


@pytest.fixture(scope="session")
def fig2_traj(fig2_model, fig2_grid):
    return propagate_sector(fig2_model.sector, None, fig2_grid)


@pytest.fixture(scope="session")
def fig2_rates(fig2_traj):
    return rates_from_amplitudes(fig2_traj)


@pytest.fixture(scope="session")
def bandgap_model():
    return Reservoir(**BANDGAP_PARAMS)


@pytest.fixture(scope="session")
def bandgap_traj(bandgap_model, fig2_grid):
    return propagate_sector(bandgap_model.sector, None, fig2_grid)


@pytest.fixture(scope="session")
def perfect_gap_model():
    return Reservoir(**PERFECT_GAP_PARAMS)


def gamma_markov(model) -> float:
    """Weak-coupling (golden-rule) decay rate 4*coupling**2/width of a one-peak reservoir."""
    return 4.0 * model.omega_coupling**2 / model.peaks[0][1]


def random_lorentzian(rng):
    omega0 = float(rng.uniform(0.0, 2.0))
    omega_c = omega0 + float(rng.uniform(-3.0, 3.0))
    gamma = float(rng.uniform(0.2, 3.0))
    return Reservoir(omega0, float(rng.uniform(0.1, 1.0)), ((1.0, gamma, omega_c),))


def random_bandgap(rng):
    gamma2 = float(rng.uniform(0.3, 1.2))
    mult = float(rng.uniform(1.5, 4.0))
    gamma1 = gamma2 * mult
    w2 = float(rng.uniform(0.05, 0.5))
    w1 = w2 * mult * float(rng.uniform(1.01, 2.0))
    omega0 = float(rng.uniform(0.0, 1.0))
    omega_c = omega0 + float(rng.uniform(-2.0, 2.0))
    return Reservoir(omega0, math.sqrt(w1 - w2), ((w1, gamma1, omega_c), (-w2, gamma2, omega_c)))


# Dyadic building blocks with few significand bits: every cross product
# w1*gamma2 and w2*gamma1 then rounds the same real number, so the derived
# storage-mode rate is exactly zero.
_DYADIC_RATIOS = (0.25, 0.375, 0.5, 0.625, 0.75, 1.0)
_DYADIC_WIDTHS = (0.5, 0.75, 1.0, 1.25, 1.5)
_DYADIC_MULTIPLIERS = (2.0, 2.5, 3.0, 4.0)


def random_perfect_gap(rng):
    ratio = float(rng.choice(_DYADIC_RATIOS))
    gamma2 = float(rng.choice(_DYADIC_WIDTHS))
    gamma1 = gamma2 * float(rng.choice(_DYADIC_MULTIPLIERS))
    w1 = ratio * gamma1
    w2 = ratio * gamma2
    omega0 = float(rng.uniform(0.0, 1.0))
    omega_c = omega0 + float(rng.uniform(-1.0, 1.0))
    return Reservoir(omega0, math.sqrt(w1 - w2), ((w1, gamma1, omega_c), (-w2, gamma2, omega_c)))


def max_entry_diff(series_a, series_b) -> float:
    """Largest entry difference of two equally long sequences of states."""
    assert len(series_a) == len(series_b), f"{len(series_a)} states against {len(series_b)}"
    stack_a = np.array([rho.matrix for rho in series_a])
    stack_b = np.array([rho.matrix for rho in series_b])
    return float(np.max(np.abs(stack_a - stack_b)))


def expm_oracle(generator, initial, t):
    """exp(G t) @ initial by ``scipy.linalg.expm``, one call per time.

    An implementation independent of the library's propagator, and valid for
    defective generators (exceptional points), where the eigen-decomposition
    oracle refuses. ``t`` may be a scalar or an array, as for
    ``closed_form_oracle``.
    """
    gen = np.asarray(generator, dtype=complex)
    vec = np.asarray(initial, dtype=complex)
    times = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.stack([expm(gen * tk) @ vec for tk in times])
    return out[0] if np.ndim(t) == 0 else out


def traced_peak(call):
    """What ``call()`` returns, its tracemalloc peak and what it left allocated, in MiB."""
    tracemalloc.start()
    try:
        kept = call()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return kept, peak / 2**20, current / 2**20


def pytest_configure(config):
    # set here, not in pyproject.toml: perfbench/tests run without src on the
    # path, where pytest could not import the warning class
    config.addinivalue_line("filterwarnings", "error::memorymodes.errors.ConsistencyWarning")
