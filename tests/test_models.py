import math

import numpy as np
import pytest

from memorymodes import (
    BandGapModel,
    ConsistencyWarning,
    LorentzianModel,
    NonPhysical,
    TimeGrid,
    PseudomodeSector,
    bandgap_density,
    lorentzian_density,
)
from conftest import random_bandgap, random_perfect_gap


class TestTimeGrid:
    def test_basic(self):
        grid = TimeGrid(0.0, 10.0, 5)
        assert grid.dt == 2.5
        assert np.allclose(grid.times, [0.0, 2.5, 5.0, 7.5, 10.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1.0, 10)
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 1)

    def test_rejects_infinite_bounds(self):
        with pytest.raises(ValueError, match="finite"):
            TimeGrid(0.0, math.inf, 10)

    def test_rejects_fractional_step_count(self):
        with pytest.raises(ValueError, match="integer"):
            TimeGrid(0.0, 1.0, 2.5)


class TestLorentzianDensity:
    def test_peak_value(self):
        assert lorentzian_density(1.0, 2.0, 0.0, 0.0) == 2.0

    def test_tails_vanish(self):
        assert lorentzian_density(1.0, 2.0, 0.0, 1e7) < 1e-9
        assert lorentzian_density(1.0, 2.0, 0.0, -1e7) < 1e-9

    def test_plug_in(self):
        assert lorentzian_density(0.5, 1.0, 3.0, 3.5) == pytest.approx(1.0, abs=1e-15)

    def test_maximal_at_center(self):
        omegas = np.linspace(-5, 5, 201)
        values = lorentzian_density(1.3, 0.7, 0.4, omegas)
        assert np.all(values > 0)
        assert values.max() == lorentzian_density(1.3, 0.7, 0.4, 0.4)


class TestBandgapDensity:
    def test_perfect_gap_vanishes_at_center(self):
        model = BandGapModel(0.0, 0.0, 2.0, 1.0, 4.0, 2.0, math.sqrt(1.0))
        assert bandgap_density(model, 0.0) == 0.0

    def test_w2_zero_reduces_to_lorentzian(self):
        model = BandGapModel(0.0, 1.0, 0.8, 0.0, 2.0, 1.0, math.sqrt(0.8))
        omegas = np.linspace(-4, 6, 101)
        assert np.array_equal(
            bandgap_density(model, omegas), lorentzian_density(0.8, 2.0, 1.0, omegas)
        )

    def test_additivity_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            model = random_bandgap(rng)
            omega = float(rng.uniform(-5, 5))
            expected = lorentzian_density(
                model.w1, model.gamma1, model.omega_c, omega
            ) - lorentzian_density(model.w2, model.gamma2, model.omega_c, omega)
            assert bandgap_density(model, omega) == expected

    def test_non_negative_for_valid_models(self):
        rng = np.random.default_rng(12)
        omegas = np.linspace(-30, 30, 4001)
        for _ in range(25):
            model = random_bandgap(rng)
            values = bandgap_density(model, model.omega_c + omegas)
            assert values.min() >= -1e-15


class TestDeriveConstants:
    def test_plug_in(self):
        model = BandGapModel(0.0, 0.0, 2.0, 1.0, 4.0, 2.0, 1.0)
        sector = model.sector
        assert sector.leak_rates == (0.0, 6.0)
        assert sector.intermode[0][1] == sector.intermode[1][0]
        assert sector.intermode[0][1] == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert sector.frequencies == (0.0, 0.0)
        assert sector.couplings == (0.0, 1.0)
        assert sector.labels == ("a1", "a2")

    def test_perfect_gap_rate_exactly_zero(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            model = random_perfect_gap(rng)
            assert model.is_perfect_gap
            assert model.sector.leak_rates[0] == 0.0

    def test_w2_zero_decouples(self):
        model = BandGapModel(0.0, 0.5, 0.9, 0.0, 2.0, 0.5, math.sqrt(0.9))
        assert model.sector.leak_rates == (0.9 * 0.5, 0.9 * 2.0)
        assert model.sector.intermode == ((0.0, 0.0), (0.0, 0.0))

    def test_rate_sum_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            model = random_bandgap(rng)
            gamma_p1, gamma_p2 = model.sector.leak_rates
            expected = (model.w1 - model.w2) * (model.gamma1 + model.gamma2)
            assert gamma_p1 + gamma_p2 == pytest.approx(
                expected, rel=1e-12
            )

    def test_deterministic(self):
        model = BandGapModel(0.1, 0.7, 1.3, 0.4, 2.7, 0.9, math.sqrt(0.9))
        first = model.sector
        second = model.sector
        assert first == second


class TestSector:
    def test_lorentzian_sector(self):
        sector = LorentzianModel(0.1, 2.4, 0.6, 0.5).sector
        assert sector == PseudomodeSector(0.1, (2.4,), (0.5,), ((0.0,),), (0.6,), ("b1",))
        assert sector.n_modes == 1

    def test_rejects_inconsistent_shapes(self):
        with pytest.raises(ValueError, match="mode labels"):
            PseudomodeSector(0.0, (1.0,), (0.5, 0.5), ((0.0,),), (0.1,), ("b1",))
        with pytest.raises(ValueError, match="mode labels"):
            PseudomodeSector(0.0, (), (), (), (), ())
        with pytest.raises(ValueError, match="symmetric"):
            PseudomodeSector(
                0.0, (1.0, 1.0), (0.0, 0.5), ((0.0, 0.2), (0.3, 0.0)), (0.1, 0.2), ("a1", "a2")
            )

    def test_rejects_non_real_entries(self):
        with pytest.raises(NonPhysical, match="couplings"):
            PseudomodeSector(0.0, (1.0,), (0.3j,), ((0.0,),), (0.1,), ("b1",))
        with pytest.raises(NonPhysical, match="frequencies"):
            PseudomodeSector(0.0, (math.nan,), (0.3,), ((0.0,),), (0.1,), ("b1",))


class TestValidation:
    def test_lorentzian_rejects_negative_width(self):
        with pytest.raises(NonPhysical):
            LorentzianModel(0.0, 0.0, -0.5, 1.0)

    def test_lorentzian_allows_lossless_limit(self):
        model = LorentzianModel(0.0, 0.0, 0.0, 1.0)
        assert model.pole == 0.0

    def test_lossless_limit_has_no_markov_rate(self):
        model = LorentzianModel(0, 0, 0, 1)
        with pytest.raises(NonPhysical, match="lossless limit gamma = 0"):
            model.gamma_markov

    def test_bandgap_rejects_negative_storage_rate(self):
        # w1*gamma2 < w2*gamma1
        with pytest.raises(NonPhysical, match="w1\\*gamma2"):
            BandGapModel(0.0, 0.0, 1.0, 0.9, 4.0, 1.0, 0.3)

    def test_bandgap_ordering_checks(self):
        with pytest.raises(NonPhysical, match="gamma1 > gamma2"):
            BandGapModel(0.0, 0.0, 1.0, 0.5, 1.0, 2.0, 0.5)
        with pytest.raises(NonPhysical, match="w1 > w2"):
            BandGapModel(0.0, 0.0, 0.5, 1.0, 2.0, 1.0, 0.5)

    def test_allow_nonphysical_escape_hatch(self):
        with pytest.warns(ConsistencyWarning):
            model = BandGapModel(0.0, 0.0, 1.0, 0.9, 4.0, 1.0, 0.3, allow_nonphysical=True)
        assert model.sector.leak_rates[0] < 0

    def test_coupling_consistency_warning(self):
        with pytest.warns(ConsistencyWarning):
            BandGapModel(0.0, 0.0, 1.0, 0.5, 2.0, 1.0, omega_coupling=1.0)

    def test_consistent_coupling_is_silent(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            BandGapModel(0.0, 0.0, 1.0, 0.5, 2.0, 1.0, omega_coupling=math.sqrt(0.5))

    def test_perfect_gap_equivalence(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            model = random_perfect_gap(rng)
            assert model.is_perfect_gap
            assert model.sector.leak_rates[0] == 0.0
            assert bandgap_density(model, model.omega_c) == 0.0
        for _ in range(20):
            model = random_bandgap(rng)
            if not model.is_perfect_gap:
                assert model.sector.leak_rates[0] != 0.0
