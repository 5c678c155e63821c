"""The reservoir of Lorentzian peaks: its density, its kernel and its pseudomode sector.

All frequencies and rates are plain floats in one consistent unit system.
The bundled presets use the weak-coupling decay rate of the emitter
(4 * coupling**2 / width) as the frequency unit, so typical magnitudes
are of order one and times are measured in inverse decay rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NonPhysical

__all__ = ["TimeGrid", "PseudomodeSector", "Reservoir"]


def _check_real(values, name: str) -> None:
    """Raise ``NonPhysical`` unless every entry of ``values`` is a finite real number."""
    array = np.asarray(values)
    if array.dtype.kind not in "iuf" or not np.all(np.isfinite(array)):
        raise NonPhysical(f"{name} must be finite and real, got {values}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid of ``n_steps`` points spanning [t_start, t_end].

    Its times must increase strictly, so the step must be large enough for
    the floats of the span; ``ValueError`` otherwise.
    """

    t_start: float
    t_end: float
    n_steps: int

    def __post_init__(self) -> None:
        # a NaN, infinite or overflowing span fails the comparison; a complex
        # or string bound fails the kind check before it could raise TypeError
        bounds = np.asarray((self.t_start, self.t_end))
        if bounds.dtype.kind not in "iuf" or not 0.0 < self.t_end - self.t_start < np.inf:
            raise ValueError(
                f"need finite real t_start < t_end, got [{self.t_start!r}, {self.t_end!r}]"
            )
        if not isinstance(self.n_steps, (int, np.integer)) or self.n_steps < 2:
            raise ValueError(f"n_steps must be an integer of at least 2, got {self.n_steps!r}")
        # a step below the spacing of the floats near t_start repeats times,
        # and a subnormal one overshoots t_end before the last point
        if not np.all(np.diff(self.times) > 0):
            raise ValueError(
                f"the step dt = {self.dt!r} is too small for the floats of "
                f"[{self.t_start!r}, {self.t_end!r}]: the times do not increase strictly"
            )

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
            _check_real(getattr(self, name), name)
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
        # the generator holds frequency - omega0 and the rates 2*omega0
        with np.errstate(over="ignore"):
            detunings = np.asarray(self.frequencies, dtype=float) - self.omega0
            carrier = 2.0 * np.float64(self.omega0)
        if not (np.all(np.isfinite(detunings)) and np.isfinite(carrier)):
            raise NonPhysical(
                "frequency - omega0 and 2*omega0 must be finite, got "
                f"omega0={self.omega0}, frequencies={self.frequencies}"
            )

    @property
    def n_modes(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class Reservoir:
    """An emitter at ``omega0`` coupled to a reservoir of Lorentzian peaks.

    Each peak is ``(w, gamma, c)``: a signed weight, a full width and a
    center. The spectral density :meth:`density`, the memory kernel
    :meth:`kernel` and the pseudomode sector ``sector`` all derive from the
    peaks. The weights enter the dynamics only as ``w / sum(w)``;
    ``omega_coupling**2`` is the kernel at zero delay.

    The sector rule (Garraway, PRA 55, 2290 (1997); Dalton, Barnett &
    Garraway, PRA 64, 053813 (2001)):

    - a positive peak with no dip at its center is one mode ``b<k>`` at
      ``c``, leaking at ``gamma``, coupled to the emitter with
      ``omega_coupling * sqrt(w / sum(w))`` and to no other mode;
    - a dip (``w <= 0``) pairs with the one positive peak at its center,
      which must be heavier and wider. With ``(w1, gamma1)`` the peak,
      ``(w2, gamma2) = (-w, gamma)`` the dip and ``W = w1 - w2``, the pair
      is the storage mode ``a<k>``, leaking at ``(w1*gamma2 - w2*gamma1)/W``,
      and the leaky mode ``a<k+1>``, leaking at ``(w1*gamma1 - w2*gamma2)/W``,
      coupled to each other with ``sqrt(w1*w2)*(gamma1 - gamma2)/(2*W)``.
      Only the leaky mode couples to the emitter, with
      ``omega_coupling * sqrt(W / sum(w))``. A perfect gap
      (``w1*gamma2 == w2*gamma1``) makes the storage mode lossless;
    - any other arrangement has no dissipative sector with real couplings
      and raises ``NonPhysical``.

    So the sector's kernel is :meth:`kernel`, and its mode matrix has the
    density's poles ``c - omega0 - i*gamma/2`` as eigenvalues.
    ``allow_nonphysical=True`` skips only the sign checks on a pair's
    derived rates, for exploring where the dissipative description breaks
    down; the sector then has those rates as they are.
    """

    omega0: float
    omega_coupling: float
    peaks: tuple[tuple[float, float, float], ...]
    allow_nonphysical: bool = False
    sector: PseudomodeSector = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        _check_real((self.omega0, self.omega_coupling), "parameters")
        _check_real(self.peaks, "peaks")
        peaks = np.asarray(self.peaks, dtype=float)
        if peaks.ndim != 2 or peaks.shape[1] != 3 or len(peaks) == 0:
            raise ValueError(f"peaks must be (weight, width, center) triples, got {self.peaks}")
        object.__setattr__(self, "peaks", tuple(map(tuple, peaks.tolist())))
        object.__setattr__(self, "sector", self._pseudomode_sector())

    def _pseudomode_sector(self) -> PseudomodeSector:
        """The sector that the rule of the class docstring builds from the peaks."""
        problems = []
        if self.omega_coupling < 0:
            problems.append(f"coupling must satisfy omega_coupling >= 0, got {self.omega_coupling}")
        # each positive peak, mapped to the dip it pairs with (None: a lone peak)
        partners = {k: None for k, (w, _, _) in enumerate(self.peaks) if w > 0}
        for j, (w, _, center) in enumerate(self.peaks):
            if w > 0:
                continue
            at_center = [k for k in partners if self.peaks[k][2] == center]
            if len(at_center) != 1 or partners[at_center[0]] is not None:
                problems.append(
                    f"the dip at {center} needs exactly one positive peak of its own at its center"
                )
            else:
                partners[at_center[0]] = j
        total = sum(w for w, _, _ in self.peaks)
        frequencies, shares, leak_rates, labels, pairs = [], [], [], [], []
        for k, j in partners.items():
            w1, gamma1, center = self.peaks[k]
            n = len(labels)
            if j is None:
                # gamma = 0 is the lossless limit (undamped mode, pole on the real axis)
                if not gamma1 >= 0:
                    problems.append(f"mode decay rate must satisfy gamma >= 0, got gamma={gamma1}")
                frequencies.append(center)
                shares.append(w1)
                leak_rates.append(gamma1)
                labels.append(f"b{n + 1}")
                continue
            w2, gamma2 = -self.peaks[j][0], self.peaks[j][1]
            rate1, rate2 = w1 * gamma2 - w2 * gamma1, w1 * gamma1 - w2 * gamma2
            if not gamma1 > gamma2 > 0:
                problems.append(
                    "widths must satisfy gamma1 > gamma2 > 0, got "
                    f"gamma1={gamma1}, gamma2={gamma2}"
                )
            if not w1 > w2:
                problems.append(f"weights must satisfy w1 > w2 >= 0, got w1={w1}, w2={w2}")
                continue
            if gamma1 > gamma2 > 0 and not self.allow_nonphysical:
                # for gamma1 > gamma2 > 0 these two signs are equivalent to the
                # pair's density w1*L(gamma1) - w2*L(gamma2) being non-negative
                if rate1 < 0:
                    problems.append(
                        f"w1*gamma2 - w2*gamma1 = {rate1} < 0: the density goes negative "
                        "and no valid dissipative mode pair exists"
                    )
                if rate2 <= 0:
                    problems.append(
                        f"w1*gamma1 - w2*gamma2 = {rate2} <= 0: the leaky mode would not decay"
                    )
            weight = w1 - w2
            frequencies += [center, center]
            shares += [0.0, weight]
            leak_rates += [rate1 / weight, rate2 / weight]
            labels += [f"a{n + 1}", f"a{n + 2}"]
            pairs.append((n, math.sqrt(w1 * w2) * (gamma1 - gamma2) / (2.0 * weight)))
        if problems:
            raise NonPhysical("; ".join(problems))

        intermode = np.zeros((len(labels), len(labels)))
        for n, v in pairs:
            intermode[n, n + 1] = intermode[n + 1, n] = v
        return PseudomodeSector(
            self.omega0,
            tuple(frequencies),
            tuple(self.omega_coupling * math.sqrt(share / total) for share in shares),
            tuple(map(tuple, intermode.tolist())),
            tuple(leak_rates),
            tuple(labels),
        )

    def density(self, omega):
        """Spectral density sum_j w_j*gamma_j / ((omega - c_j)**2 + (gamma_j/2)**2).

        A peak reaches 4*w/gamma at its center and integrates to 2*pi*w.
        """
        if any(gamma == 0 for _, gamma, _ in self.peaks):
            raise ValueError("a lossless peak (gamma = 0) is a delta function, not a density")
        om = np.asarray(omega, dtype=float)
        out = sum(w * gamma / ((om - c) ** 2 + (0.5 * gamma) ** 2) for w, gamma, c in self.peaks)
        return float(out) if out.ndim == 0 else out

    def kernel(self, tau):
        """Memory kernel at delay ``tau >= 0`` in the frame rotating at ``omega0``.

        (omega_coupling**2/sum w) * sum_j w_j exp(-gamma_j*tau/2 - i*(c_j - omega0)*tau),
        which is omega_coupling**2/(2*pi*sum w) times the Fourier transform
        of :meth:`density`. A negative or non-finite delay raises ``ValueError``.
        The real prefactor scales the real and imaginary parts of the peak sum
        each on its own, and leaves an exactly zero part as it is, so an
        overflowing coupling gives ``inf+0j`` at zero delay, not ``inf+nanj``.
        """
        tau = np.asarray(tau, dtype=float)
        if not np.all((tau >= 0.0) & (tau < np.inf)):
            raise ValueError(f"the kernel needs finite delays tau >= 0, got {tau}")
        weights, widths, centers = np.array(self.peaks).T
        exponents = np.multiply.outer(tau, -0.5 * widths - 1j * (centers - self.omega0))
        coupling = self.omega_coupling
        scale = coupling * coupling / weights.sum()
        out = np.array(np.exp(exponents) @ weights)
        for part in (out.real, out.imag):
            np.multiply(scale, part, out=part, where=part != 0.0)
        return complex(out) if out.ndim == 0 else out
