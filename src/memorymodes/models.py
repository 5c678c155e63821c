"""Reservoir models, spectral densities, and their pseudomode sectors.

All frequencies and rates are plain floats in one consistent unit system.
The bundled presets use the weak-coupling decay rate of the emitter
(4 * coupling**2 / width) as the frequency unit, so typical magnitudes
are of order one and times are measured in inverse decay rates.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyWarning, NonPhysical

__all__ = [
    "TimeGrid",
    "LorentzianModel",
    "BandGapModel",
    "PseudomodeSector",
    "lorentzian_density",
    "bandgap_density",
]


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``n_steps`` points spanning [t_start, t_end]."""

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        # a NaN, infinite or overflowing span fails the comparison
        if not 0.0 < self.t_end - self.t_start < np.inf:
            raise ValueError(f"need finite t_start < t_end, got [{self.t_start}, {self.t_end}]")
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 2:
            raise ValueError(f"n_steps must be an integer of at least 2, got {self.n_steps!r}")

    @property
    def dt(self) -> float:
        return (self.t_end - self.t_start) / (self.n_steps - 1)

    @property
    def times(self) -> np.ndarray:
        return np.linspace(self.t_start, self.t_end, self.n_steps)


@dataclass(frozen=True)
class PseudomodeSector:
    """An emitter coupled to n damped modes, in the one-excitation sector.

    Mode k has the lab-frame frequency ``frequencies[k]``, couples to the
    emitter with ``couplings[k]`` and to mode j with ``intermode[k][j]``
    (symmetric, zero diagonal), and leaks at ``leak_rates[k]``. ``labels``
    name the mode amplitudes. Every entry must be a finite real number
    (``NonPhysical`` otherwise). Every layer builds its generator,
    Hamiltonian and leakage channels from this one description. The sector
    basis is the joint vacuum, one excitation in each mode in order, then
    the excited emitter.
    """

    omega0: float
    frequencies: tuple[float, ...]
    couplings: tuple[float, ...]
    intermode: tuple[tuple[float, ...], ...]
    leak_rates: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        for name in ("omega0", "frequencies", "couplings", "intermode", "leak_rates"):
            values = np.asarray(getattr(self, name))
            if values.dtype.kind not in "iuf" or not np.all(np.isfinite(values)):
                raise NonPhysical(f"{name} must be finite and real, got {getattr(self, name)}")
        n = len(self.labels)
        intermode = np.asarray(self.intermode, dtype=float)
        sizes = {len(self.frequencies), len(self.couplings), len(self.leak_rates)}
        if n < 1 or sizes != {n} or intermode.shape != (n, n):
            raise ValueError(
                f"{n} mode labels need as many frequencies, couplings and leak rates "
                "and an n x n intermode matrix"
            )
        if not np.array_equal(intermode, intermode.T) or np.any(np.diag(intermode) != 0.0):
            raise ValueError("intermode couplings must be symmetric with a zero diagonal")

    @property
    def n_modes(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class LorentzianModel:
    """Single-peak reservoir: the emitter couples to one damped mode.

    Attributes
    ----------
    omega0:
        Emitter transition frequency.
    omega_c:
        Center frequency of the reservoir peak (the mode frequency).
    gamma:
        Full width of the peak, equal to the decay rate of the mode.
    omega_coupling:
        Emitter-mode coupling strength.
    """

    omega0: float
    omega_c: float
    gamma: float
    omega_coupling: float

    def __post_init__(self) -> None:
        problems = []
        fields = (self.omega0, self.omega_c, self.gamma, self.omega_coupling)
        if not all(np.isfinite(fields)):
            problems.append(f"parameters must be finite, got {fields}")
        # gamma = 0 is the lossless limit (undamped mode, pole on the real axis)
        if not problems and not self.gamma >= 0:
            problems.append(f"mode decay rate must satisfy gamma >= 0, got gamma={self.gamma}")
        if self.omega_coupling < 0:
            problems.append(
                f"coupling must satisfy omega_coupling >= 0, got {self.omega_coupling}"
            )
        if problems:
            raise NonPhysical("; ".join(problems))

    @property
    def detuning(self) -> float:
        """Mode-emitter detuning omega_c - omega0."""
        return self.omega_c - self.omega0

    @property
    def pole(self) -> complex:
        """Resonance pole omega_c - i*gamma/2 in the lower half plane."""
        return complex(self.omega_c, -0.5 * self.gamma)

    @property
    def gamma_markov(self) -> float:
        """Weak-coupling (golden-rule) emitter decay rate 4*coupling**2/width."""
        if self.gamma == 0:
            raise NonPhysical(
                "the weak-coupling decay rate 4*coupling**2/gamma diverges in the "
                "lossless limit gamma = 0"
            )
        return 4.0 * self.omega_coupling**2 / self.gamma

    @property
    def sector(self) -> PseudomodeSector:
        """One mode at the peak center, leaking at the peak width."""
        return PseudomodeSector(
            self.omega0, (self.omega_c,), (self.omega_coupling,), ((0.0,),), (self.gamma,), ("b1",)
        )


@dataclass(frozen=True)
class BandGapModel:
    """Band-gap reservoir: a broad positive peak minus a narrower dip.

    The dip carves out a low-density region around ``omega_c``. The
    equivalent mode picture is two coupled damped modes; when the gap is
    perfect (w1/gamma1 == w2/gamma2) the first mode stops leaking entirely.

    ``allow_nonphysical=True`` skips the sign checks on the derived decay
    rates, for exploring where the dissipative description breaks down.
    """

    omega0: float
    omega_c: float
    w1: float
    w2: float
    gamma1: float
    gamma2: float
    omega_coupling: float
    allow_nonphysical: bool = False

    def __post_init__(self) -> None:
        problems = []
        fields = (
            self.omega0,
            self.omega_c,
            self.w1,
            self.w2,
            self.gamma1,
            self.gamma2,
            self.omega_coupling,
        )
        if not all(np.isfinite(fields)):
            raise NonPhysical(f"parameters must be finite, got {fields}")
        if not (self.gamma1 > self.gamma2 > 0):
            problems.append(
                "widths must satisfy gamma1 > gamma2 > 0, got "
                f"gamma1={self.gamma1}, gamma2={self.gamma2}"
            )
        if not (self.w1 > self.w2 >= 0):
            problems.append(
                f"weights must satisfy w1 > w2 >= 0, got w1={self.w1}, w2={self.w2}"
            )
        if self.omega_coupling < 0:
            problems.append(
                f"coupling must satisfy omega_coupling >= 0, got {self.omega_coupling}"
            )
        if not problems and not self.allow_nonphysical:
            # for gamma1 > gamma2 > 0 these two signs are equivalent to the
            # density w1*L(gamma1) - w2*L(gamma2) being non-negative everywhere
            rate1 = self.w1 * self.gamma2 - self.w2 * self.gamma1
            rate2 = self.w1 * self.gamma1 - self.w2 * self.gamma2
            if rate1 < 0:
                problems.append(
                    f"w1*gamma2 - w2*gamma1 = {rate1} < 0: the density goes negative "
                    "and no valid dissipative mode pair exists"
                )
            if rate2 <= 0:
                problems.append(
                    f"w1*gamma1 - w2*gamma2 = {rate2} <= 0: the leaky mode would not decay"
                )
        if problems:
            raise NonPhysical("; ".join(problems))
        total_weight = self.w1 - self.w2
        if total_weight > 0 and abs(self.omega_coupling**2 - total_weight) > 0.01 * total_weight:
            warnings.warn(
                f"omega_coupling**2 = {self.omega_coupling**2:.6g} differs from the "
                f"integrated spectral weight w1 - w2 = {total_weight:.6g} by more "
                "than 1%; proceeding with the given coupling",
                ConsistencyWarning,
                stacklevel=2,
            )

    @property
    def detuning(self) -> float:
        return self.omega_c - self.omega0

    @property
    def is_perfect_gap(self) -> bool:
        """True when the density vanishes exactly at the center frequency."""
        return self.w1 * self.gamma2 == self.w2 * self.gamma1

    @property
    def sector(self) -> PseudomodeSector:
        """The storage mode a1 and the leaky mode a2, coupled to each other.

        a1 decays at w1*gamma2 - w2*gamma1 and a2 at w1*gamma1 - w2*gamma2;
        they couple with strength sqrt(w1*w2)*(gamma1-gamma2)/2, and only a2
        couples to the emitter. A perfect gap makes the first rate exactly
        zero, turning the storage mode lossless. Construction already refused
        rates outside the valid domain unless the model was built with
        ``allow_nonphysical=True``; such a model yields its rates as they are.
        """
        gamma_p1 = self.w1 * self.gamma2 - self.w2 * self.gamma1
        gamma_p2 = self.w1 * self.gamma1 - self.w2 * self.gamma2
        v = float(np.sqrt(self.w1 * self.w2) * (self.gamma1 - self.gamma2) / 2.0)
        return PseudomodeSector(
            self.omega0,
            (self.omega_c, self.omega_c),
            (0.0, self.omega_coupling),
            ((0.0, v), (v, 0.0)),
            (gamma_p1, gamma_p2),
            ("a1", "a2"),
        )


def lorentzian_density(weight: float, width: float, center: float, omega):
    """Lorentzian line shape weight*width / ((omega-center)**2 + (width/2)**2).

    The peak value is 4*weight/width at omega = center and the integral over
    all frequencies is 2*pi*weight.
    """
    if not width > 0:
        raise ValueError(f"width must be positive, got {width}")
    om = np.asarray(omega, dtype=float)
    out = weight * width / ((om - center) ** 2 + (0.5 * width) ** 2)
    return float(out) if out.ndim == 0 else out


def bandgap_density(model: BandGapModel, omega):
    """Spectral density of the band-gap model: broad peak minus narrow dip."""
    return lorentzian_density(model.w1, model.gamma1, model.omega_c, omega) - lorentzian_density(
        model.w2, model.gamma2, model.omega_c, omega
    )
