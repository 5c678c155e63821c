import math

import numpy as np
import pytest

from memorymodes import (
    BandGapModel,
    LorentzianModel,
    TimeGrid,
    propagate_double,
    propagate_single,
    rates_from_amplitudes,
)

# Reference preset: width 0.6, coupling sqrt(0.15), detuning 4*width, in units
# of the weak-coupling decay rate (so gamma_markov == 1).
FIG2_PARAMS = dict(omega0=0.0, omega_c=2.4, gamma=0.6, omega_coupling=math.sqrt(0.15))

# Tame band-gap set: excited population stays above 0.07 so the extracted
# rates are smooth on the default grid.
BANDGAP_PARAMS = dict(
    omega0=0.0,
    omega_c=0.5,
    w1=0.4,
    w2=0.1,
    gamma1=2.0,
    gamma2=0.8,
    omega_coupling=math.sqrt(0.3),
)

PERFECT_GAP_PARAMS = dict(
    omega0=0.0,
    omega_c=0.0,
    w1=1.0,
    w2=0.5,
    gamma1=2.0,
    gamma2=1.0,
    omega_coupling=math.sqrt(0.5),
)


@pytest.fixture(scope="session")
def fig2_model():
    return LorentzianModel(**FIG2_PARAMS)


@pytest.fixture(scope="session")
def fig2_grid():
    return TimeGrid(0.0, 10.0, 4000)


@pytest.fixture(scope="session")
def fig2_traj(fig2_model, fig2_grid):
    return propagate_single(fig2_model, None, fig2_grid)


@pytest.fixture(scope="session")
def fig2_rates(fig2_traj):
    return rates_from_amplitudes(fig2_traj)


@pytest.fixture(scope="session")
def bandgap_model():
    return BandGapModel(**BANDGAP_PARAMS)


@pytest.fixture(scope="session")
def bandgap_traj(bandgap_model, fig2_grid):
    return propagate_double(bandgap_model, None, fig2_grid)


@pytest.fixture(scope="session")
def perfect_gap_model():
    return BandGapModel(**PERFECT_GAP_PARAMS)


def gamma_markov(model) -> float:
    """Weak-coupling (golden-rule) decay rate 4*coupling**2/width of a one-peak reservoir."""
    return 4.0 * model.omega_coupling**2 / model.peaks[0][1]


def random_lorentzian(rng):
    omega0 = float(rng.uniform(0.0, 2.0))
    return LorentzianModel(
        omega0=omega0,
        omega_c=omega0 + float(rng.uniform(-3.0, 3.0)),
        gamma=float(rng.uniform(0.2, 3.0)),
        omega_coupling=float(rng.uniform(0.1, 1.0)),
    )


def random_bandgap(rng):
    gamma2 = float(rng.uniform(0.3, 1.2))
    mult = float(rng.uniform(1.5, 4.0))
    gamma1 = gamma2 * mult
    w2 = float(rng.uniform(0.05, 0.5))
    w1 = w2 * mult * float(rng.uniform(1.01, 2.0))
    omega0 = float(rng.uniform(0.0, 1.0))
    return BandGapModel(
        omega0=omega0,
        omega_c=omega0 + float(rng.uniform(-2.0, 2.0)),
        w1=w1,
        w2=w2,
        gamma1=gamma1,
        gamma2=gamma2,
        omega_coupling=math.sqrt(w1 - w2),
    )


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
    return BandGapModel(
        omega0=omega0,
        omega_c=omega0 + float(rng.uniform(-1.0, 1.0)),
        w1=w1,
        w2=w2,
        gamma1=gamma1,
        gamma2=gamma2,
        omega_coupling=math.sqrt(w1 - w2),
    )


def max_entry_diff(series_a, series_b) -> float:
    return max(
        float(np.max(np.abs(a.matrix - b.matrix))) for a, b in zip(series_a, series_b)
    )


def pytest_configure(config):
    # set here, not in pyproject.toml: perfbench/tests run without src on the
    # path, where pytest could not import the warning class
    config.addinivalue_line("filterwarnings", "error::memorymodes.errors.ConsistencyWarning")
