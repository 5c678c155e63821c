import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm

from memorymodes import (
    ConsistencyWarning,
    NonPhysical,
    PseudomodeSector,
    Reservoir,
    TimeGrid,
    mode_generator,
    propagate_sector,
    validate_config,
    validate_config_text,
)
from conftest import (
    BANDGAP_PARAMS,
    PERFECT_GAP_PARAMS,
    random_bandgap,
    random_lorentzian,
    random_perfect_gap,
)

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def bandgap_config(w1, w2, gamma1, gamma2, omega_coupling, **options):
    """The reservoir that a ``model = bandgap`` config centered at omega0 = omega_c = 0 builds."""
    text = (
        f"model = bandgap\nomega0 = 0.0\nomega_c = 0.0\nw1 = {w1!r}\nw2 = {w2!r}\n"
        f"gamma1 = {gamma1!r}\ngamma2 = {gamma2!r}\nomega_coupling = {omega_coupling!r}\n"
        "t_end = 1.0\nn_steps = 2\n"
    )
    return validate_config_text(text, **options).model


def lorentzian_density(weight, width, center, omega):
    """The density of one peak, read from a single-peak reservoir."""
    return Reservoir(0.0, 1.0, ((weight, width, center),)).density(omega)


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

    @pytest.mark.parametrize("t_end", [1j, "1"])
    def test_rejects_non_real_bounds(self, t_end):
        with pytest.raises(ValueError, match="real"):
            TimeGrid(0.0, t_end, 10)

    @pytest.mark.parametrize("bounds", [(0.0, 1e-320, 4000), (1e10, 1e10 + 1e-3, 100000)])
    def test_rejects_steps_too_small_for_the_floats(self, bounds):
        # dt = 5e-324 overshoots t_end before the last point; near 1e10 most steps repeat a time
        with pytest.raises(ValueError, match="do not increase strictly"):
            TimeGrid(*bounds)

    def test_accepts_small_steps_that_advance(self):
        # near 1e10 the floats are 1.9e-6 apart, and this step is 2.5e-6
        assert np.all(np.diff(TimeGrid(1e10, 1e10 + 1e-2, 4000).times) > 0)
        assert np.all(np.diff(TimeGrid(0.0, 1e-300, 4000).times) > 0)


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
        model = Reservoir(0.0, math.sqrt(1.0), ((2.0, 4.0, 0.0), (-1.0, 2.0, 0.0)))
        assert model.density(0.0) == 0.0

    def test_w2_zero_reduces_to_lorentzian(self):
        model = Reservoir(0.0, math.sqrt(0.8), ((0.8, 2.0, 1.0), (-0.0, 1.0, 1.0)))
        omegas = np.linspace(-4, 6, 101)
        assert np.array_equal(model.density(omegas), lorentzian_density(0.8, 2.0, 1.0, omegas))

    def test_additivity_exact(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            model = random_bandgap(rng)
            (w1, gamma1, omega_c), (dip, gamma2, _) = model.peaks
            omega = float(rng.uniform(-5, 5))
            expected = lorentzian_density(w1, gamma1, omega_c, omega) - lorentzian_density(
                -dip, gamma2, omega_c, omega
            )
            assert model.density(omega) == expected

    def test_non_negative_for_valid_models(self):
        rng = np.random.default_rng(12)
        omegas = np.linspace(-30, 30, 4001)
        for _ in range(25):
            model = random_bandgap(rng)
            values = model.density(model.peaks[0][2] + omegas)
            assert values.min() >= -1e-15


class TestDeriveConstants:
    def test_plug_in(self):
        model = Reservoir(0.0, 1.0, ((2.0, 4.0, 0.0), (-1.0, 2.0, 0.0)))
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
            assert model.density(model.peaks[0][2]) == 0.0
            assert model.sector.leak_rates[0] == 0.0

    def test_w2_zero_decouples(self):
        model = Reservoir(0.0, math.sqrt(0.9), ((0.9, 2.0, 0.5), (-0.0, 0.5, 0.5)))
        assert model.sector.leak_rates == (0.5, 2.0)
        assert model.sector.intermode == ((0.0, 0.0), (0.0, 0.0))

    def test_rate_sum_identity(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            model = random_bandgap(rng)
            gamma_p1, gamma_p2 = model.sector.leak_rates
            (_, gamma1, _), (_, gamma2, _) = model.peaks
            expected = gamma1 + gamma2
            assert gamma_p1 + gamma_p2 == pytest.approx(
                expected, rel=1e-12
            )

    def test_deterministic(self):
        model = Reservoir(0.1, math.sqrt(0.9), ((1.3, 2.7, 0.7), (-0.4, 0.9, 0.7)))
        first = model.sector
        second = model.sector
        assert first == second


class TestSector:
    def test_lorentzian_sector(self):
        sector = Reservoir(0.1, 0.5, ((1.0, 0.6, 2.4),)).sector
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

    @pytest.mark.parametrize("frequency", [-1e308, 1e308])
    def test_rejects_overflowing_carrier(self, frequency):
        # frequency - omega0 or 2*omega0 overflows, without a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonPhysical, match="2\\*omega0 must be finite"):
                PseudomodeSector(
                    np.float64(1e308), (np.float64(frequency),), (0.3,), ((0.0,),), (0.1,), ("b1",)
                )

    def test_rejects_non_real_entries(self):
        with pytest.raises(NonPhysical, match="couplings"):
            PseudomodeSector(0.0, (1.0,), (0.3j,), ((0.0,),), (0.1,), ("b1",))
        with pytest.raises(NonPhysical, match="frequencies"):
            PseudomodeSector(0.0, (math.nan,), (0.3,), ((0.0,),), (0.1,), ("b1",))


class TestValidation:
    def test_lorentzian_rejects_negative_width(self):
        with pytest.raises(NonPhysical):
            Reservoir(0.0, 1.0, ((1.0, -0.5, 0.0),))

    def test_lorentzian_allows_lossless_limit(self):
        model = Reservoir(0.0, 1.0, ((1.0, 0.0, 0.0),))
        assert model.sector.leak_rates == (0.0,)

    def test_bandgap_rejects_negative_storage_rate(self):
        # w1*gamma2 < w2*gamma1
        with pytest.raises(NonPhysical, match="w1\\*gamma2"):
            Reservoir(0.0, 0.3, ((1.0, 4.0, 0.0), (-0.9, 1.0, 0.0)))

    def test_bandgap_ordering_checks(self):
        with pytest.raises(NonPhysical, match="gamma1 > gamma2"):
            Reservoir(0.0, 0.5, ((1.0, 1.0, 0.0), (-0.5, 2.0, 0.0)))
        with pytest.raises(NonPhysical, match="w1 > w2"):
            Reservoir(0.0, 0.5, ((0.5, 2.0, 0.0), (-1.0, 1.0, 0.0)))

    def test_bandgap_rejects_negative_dip_weight(self):
        # a negative w2 would make the dip a second positive peak, which a
        # reservoir accepts; the band-gap config kind does not
        Reservoir(0.0, 0.5, ((0.5, 2.0, 0.0), (0.1, 1.0, 0.0)))
        with pytest.raises(NonPhysical, match="w1 > w2 >= 0"):
            bandgap_config(0.5, -0.1, 2.0, 1.0, 0.5)

    @pytest.mark.parametrize("position", range(4))
    def test_lorentzian_rejects_non_real_parameters(self, position):
        # omega0, omega_c, gamma, omega_coupling
        fields = [0.0, 2.4, 0.6, 0.3]
        fields[position] = 0.3j
        omega0, omega_c, gamma, omega_coupling = fields
        with pytest.raises(NonPhysical, match="finite and real"):
            Reservoir(omega0, omega_coupling, ((1.0, gamma, omega_c),))

    @pytest.mark.parametrize("position", range(7))
    def test_bandgap_rejects_non_real_parameters(self, position):
        # omega0, omega_c, w1, w2, gamma1, gamma2, omega_coupling
        fields = [0.2, 1.1, 0.4, 0.1, 2.0, 0.8, 0.5]
        fields[position] = complex(fields[position], 0.1)
        omega0, omega_c, w1, w2, gamma1, gamma2, omega_coupling = fields
        with pytest.raises(NonPhysical, match="finite and real"):
            Reservoir(omega0, omega_coupling, ((w1, gamma1, omega_c), (-w2, gamma2, omega_c)))

    def test_allow_nonphysical_escape_hatch(self):
        with pytest.warns(ConsistencyWarning):
            model = bandgap_config(1.0, 0.9, 4.0, 1.0, 0.3, allow_nonphysical=True)
        assert model.sector.leak_rates[0] < 0

    def test_coupling_consistency_warning(self):
        with pytest.warns(ConsistencyWarning, match="w1 - w2 = 0.5 by more than 1%"):
            bandgap_config(1.0, 0.5, 2.0, 1.0, 1.0)

    def test_consistent_coupling_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bandgap_config(1.0, 0.5, 2.0, 1.0, math.sqrt(0.5))

    def test_perfect_gap_equivalence(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            model = random_perfect_gap(rng)
            assert model.sector.leak_rates[0] == 0.0
            assert model.density(model.peaks[0][2]) == 0.0
        for _ in range(20):
            model = random_bandgap(rng)
            (w1, gamma1, _), (dip, gamma2, _) = model.peaks
            if w1 * gamma2 != -dip * gamma1:
                assert model.sector.leak_rates[0] != 0.0


def rule_cases():
    """Reservoirs of every arrangement the sector rule accepts, lossless peaks after the fifth."""
    presets = ("fig2", "bandgap", "perfect_gap")
    cases = [validate_config(CONFIG_DIR / f"{name}.cfg").model for name in presets]
    # two lone peaks, one on each side of the emitter
    cases.append(Reservoir(0.3, 0.8, ((0.7, 0.5, -1.0), (0.2, 1.5, 2.0))))
    # a band-gap pair next to a lone peak
    cases.append(Reservoir(0.0, 0.6, ((0.6, 2.0, 0.4), (-0.1, 0.5, 0.4), (0.3, 0.9, -1.5))))
    rng = np.random.default_rng(16)
    for build in (random_lorentzian, random_bandgap, random_perfect_gap):
        cases += [build(rng) for _ in range(10)]
    cases += [Reservoir(**BANDGAP_PARAMS), Reservoir(**PERFECT_GAP_PARAMS)]
    cases.append(Reservoir(0.0, 1.0, ((1.0, 0.0, 0.3),)))  # lossless
    cases.append(Reservoir(0.0, math.sqrt(0.9), ((0.9, 2.0, 0.5), (-0.0, 0.5, 0.5))))  # w2 = 0
    # negative storage rate, the density's poles still in the lower half plane
    cases.append(
        Reservoir(0.0, math.sqrt(0.1), ((1.0, 4.0, 0.0), (-0.9, 1.0, 0.0)), allow_nonphysical=True)
    )
    return cases


RULE_CASES = rule_cases()


class TestReservoir:
    """The sector that the rule builds reproduces the reservoir it stands for."""

    @pytest.mark.parametrize("reservoir", RULE_CASES)
    def test_sector_kernel_is_the_reservoir_kernel(self, reservoir):
        sector = reservoir.sector
        modes = mode_generator(sector)[1:, 1:]  # -i M, M the mode matrix
        g = np.array(sector.couplings)
        taus = np.linspace(0.0, 10.0, 41)
        from_sector = np.array([g @ expm(modes * tau) @ g for tau in taus])
        assert np.max(np.abs(from_sector - reservoir.kernel(taus))) < 1e-13
        assert reservoir.kernel(0.0) == pytest.approx(reservoir.omega_coupling**2, rel=1e-15)

    @pytest.mark.parametrize("reservoir", RULE_CASES)
    def test_mode_matrix_eigenvalues_are_the_density_poles(self, reservoir):
        eigenvalues = list(np.linalg.eigvals(1j * mode_generator(reservoir.sector)[1:, 1:]))
        for _, gamma, center in reservoir.peaks:
            pole = center - reservoir.omega0 - 0.5j * gamma
            nearest = min(eigenvalues, key=lambda value: abs(value - pole))
            assert abs(nearest - pole) < 1e-12
            eigenvalues.remove(nearest)
        assert eigenvalues == []

    def test_w2_zero_band_gap_is_the_lorentzian_of_width_gamma1(self):
        grid = TimeGrid(0.0, 10.0, 2000)
        pair = Reservoir(0.0, math.sqrt(0.9), ((0.9, 2.0, 0.5), (-0.0, 0.5, 0.5)))
        single = Reservoir(0.0, math.sqrt(0.9), ((1.0, 2.0, 0.5),))
        c1_pair = propagate_sector(pair.sector, None, grid).c1
        c1_single = propagate_sector(single.sector, None, grid).c1
        assert np.max(np.abs(c1_pair - c1_single)) < 1e-14

    @pytest.mark.parametrize("reservoir", RULE_CASES[:5])
    def test_kernel_is_the_fourier_transform_of_the_density(self, reservoir):
        # trapezoid on omega0 + [-L, L]: the 1/omega**2 tails beyond L add about
        # sum|w|*gamma/(L**2*tau), which limits the accuracy (1e-7 at L = 2000)
        omegas = np.linspace(-2000.0, 2000.0, 400_001) + reservoir.omega0
        density = reservoir.density(omegas)
        total = sum(w for w, _, _ in reservoir.peaks)
        for tau in (0.5, 1.0, 2.0, 5.0):
            integrand = density * np.exp(-1j * (omegas - reservoir.omega0) * tau)
            step = omegas[1] - omegas[0]
            transform = step * (integrand.sum() - 0.5 * (integrand[0] + integrand[-1]))
            expected = reservoir.omega_coupling**2 / (2 * np.pi * total) * transform
            assert abs(reservoir.kernel(tau) - expected) < 1e-6

    def test_lossless_peak_has_no_pointwise_density(self):
        model = Reservoir(0.0, 1.0, ((1.0, 0.0, 0.0),))
        with pytest.raises(ValueError, match="lossless"):
            model.density(0.0)
        assert model.kernel(2.0) == 1.0

    @pytest.mark.parametrize("allow_nonphysical", [False, True])
    @pytest.mark.parametrize(
        "peaks",
        [
            ((-0.2, 1.0, 0.0),),  # a dip alone
            ((0.5, 2.0, 0.0), (-0.1, 1.0, 0.3)),  # a dip off its peak's center
            ((0.5, 2.0, 0.0), (0.3, 1.5, 0.0), (-0.1, 1.0, 0.0)),  # two peaks at the dip
            ((0.5, 2.0, 0.0), (-0.1, 1.0, 0.0), (-0.05, 0.5, 0.0)),  # two dips on one peak
            ((0.5, 2.0, 0.0), (-0.6, 1.0, 0.0)),  # a dip heavier than its peak
            ((0.5, 1.0, 0.0), (-0.1, 2.0, 0.0)),  # a dip wider than its peak
            ((0.5, 1.0, 0.0), (-0.1, 0.0, 0.0)),  # a dip of zero width
            ((0.5, -1.0, 0.0),),  # a peak of negative width
        ],
    )
    def test_refused_arrangements(self, peaks, allow_nonphysical):
        with pytest.raises(NonPhysical):
            Reservoir(0.0, 0.5, peaks, allow_nonphysical)
