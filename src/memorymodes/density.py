"""Density-matrix evolutions and the partial traces connecting them.

Three exact routes to the same emitter state are implemented: the time-local
emitter master equation driven by extracted coefficient series, dissipative
(Lindblad-form) master equations on the extended emitter+mode sector, and
direct reconstruction from amplitude trajectories. All evolutions run in the
rotating frame; coherences can be dressed with the carrier phase afterwards.

A single state is a ``DensityMatrix``; a state per grid point is one
``DensitySeries``, a read-only ``(n, d, d)`` stack validated once for the
whole series. Partial traces, populations and invariant checks act on the
last two axes, so one implementation serves a single state and a series.

Fixed basis orderings (vacuum first, excited emitter last):
dim 2 -> (|g>, |e>); dim 3 -> (|g,0>, |g,1>, |e,0>);
dim 4 -> (|g,0,0>, |g,1,0>, |g,0,1>, |e,0,0>).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline

from .amplitudes import LAB, ROTATING, AmplitudeTrajectory, _propagate_constant
from .errors import GridMismatch, RateGapTooWide, SectorLeak, ToleranceNotMet
from .models import (
    BandGapModel,
    LorentzianModel,
    TimeGrid,
    TwoPseudomodeConstants,
    derive_two_pseudomode_constants,
)
from .rates import RateTrajectory

__all__ = [
    "BASIS_LABELS",
    "DensityMatrix",
    "DensitySeries",
    "HamiltonianSpec",
    "mode_lowering",
    "emitter_lowering",
    "single_sector_hamiltonian",
    "double_sector_hamiltonian",
    "evolve_atom_timelocal",
    "evolve_lindblad_single",
    "evolve_lindblad_double",
    "partial_trace_pseudomodes",
    "partial_trace_atom",
    "density_series_lab_frame",
    "atom_density_from_amplitudes",
    "extended_density_from_amplitudes",
]

BASIS_LABELS = {
    2: ("g", "e"),
    3: ("g0", "g1", "e0"),
    4: ("g00", "g10", "g01", "e00"),
}

#: longest run of invalid rate points the time-local solver will bridge
MAX_BRIDGEABLE_GAP = 2
#: tolerances of the time-local solve, the one route whose coefficients vary
DEFAULT_RTOL = 1e-10
DEFAULT_ATOL = 1e-12


def _validated(matrices, ndim: int, expected: str) -> np.ndarray:
    """Read-only complex copy with square trailing axes of a sector dimension."""
    mat = np.array(matrices, dtype=complex, order="C")
    if mat.ndim != ndim or mat.shape[-1] != mat.shape[-2] or mat.size == 0:
        raise ValueError(f"expected {expected}, got shape {mat.shape}")
    if mat.shape[-1] not in BASIS_LABELS:
        raise ValueError(f"unsupported dimension {mat.shape[-1]}; expected 2, 3 or 4")
    if not np.all(np.isfinite(mat.view(float))):
        raise ValueError("matrix entries must be finite")
    mat.setflags(write=False)
    return mat


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """State operator on the emitter or emitter+mode sector basis.

    A physically valid instance is Hermitian with unit trace and
    non-negative spectrum; those properties are reported, not enforced, so
    integration noise and deliberately nonphysical inputs stay visible.
    States compare by identity; compare ``matrix`` to compare entries.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "matrix", _validated(self.matrix, 2, "a square matrix"))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @property
    def basis(self) -> tuple[str, ...]:
        return BASIS_LABELS[self.dim]

    @classmethod
    def from_pure(cls, vector) -> "DensityMatrix":
        vec = np.asarray(vector, dtype=complex)
        return cls(np.outer(vec, vec.conj()))

    @classmethod
    def excited(cls, dim: int = 2) -> "DensityMatrix":
        """Emitter excited, all modes empty."""
        vec = np.zeros(dim, dtype=complex)
        vec[-1] = 1.0
        return cls.from_pure(vec)

    def invariant_defects(self) -> dict[str, float]:
        """Hermiticity gap, trace deviation, and smallest eigenvalue."""
        return _invariant_defects(self.matrix)

    def excited_population(self) -> float:
        return float(self.matrix[-1, -1].real)

    def ground_population(self) -> float:
        """Sum of the emitter-ground diagonal entries."""
        return float(_ground_population(self.matrix))


@dataclass(frozen=True, eq=False)
class DensitySeries:
    """One state per grid point, held as a read-only ``(n, d, d)`` stack.

    Shape, dimension and finiteness are checked once for the whole series.
    ``series[k]`` is the ``DensityMatrix`` at point k, a slice is again a
    series, and iteration yields ``DensityMatrix`` objects. Series compare by
    identity; compare ``matrices`` to compare entries.
    """

    matrices: np.ndarray

    def __post_init__(self) -> None:
        stack = _validated(self.matrices, 3, "a non-empty (n, d, d) stack")
        object.__setattr__(self, "matrices", stack)

    @property
    def dim(self) -> int:
        return self.matrices.shape[1]

    @property
    def basis(self) -> tuple[str, ...]:
        return BASIS_LABELS[self.dim]

    def __len__(self) -> int:
        return self.matrices.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return DensitySeries(self.matrices[index])
        return DensityMatrix(self.matrices[index])

    def __iter__(self):
        return (DensityMatrix(mat) for mat in self.matrices)

    def invariant_defects(self) -> dict[str, float]:
        """Worst hermiticity gap, trace deviation and smallest eigenvalue."""
        return _invariant_defects(self.matrices)

    def ground_population(self) -> np.ndarray:
        """Sum of the emitter-ground diagonal entries at every point."""
        return _ground_population(self.matrices)


def _invariant_defects(matrices: np.ndarray) -> dict[str, float]:
    """Worst invariant defects of one matrix or a stack (last two axes)."""
    adjoint = np.swapaxes(matrices, -1, -2).conj()
    trace = np.trace(matrices, axis1=-2, axis2=-1)
    eigs = np.linalg.eigvalsh(0.5 * (matrices + adjoint))
    return {
        "hermiticity": float(np.max(np.abs(matrices - adjoint))),
        "trace": float(np.max(np.abs(trace.real - 1.0) + np.abs(trace.imag))),
        "min_eigenvalue": float(eigs.min()),
    }


def _ground_population(matrices: np.ndarray) -> np.ndarray:
    return np.sum(np.diagonal(matrices, axis1=-2, axis2=-1).real[..., :-1], axis=-1)


def _entries(rho: DensityMatrix | DensitySeries) -> np.ndarray:
    return rho.matrices if isinstance(rho, DensitySeries) else rho.matrix


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Hermitian generator assembled on one of the sector bases (compares by identity)."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] not in BASIS_LABELS:
            raise ValueError(f"unsupported Hamiltonian shape {mat.shape}")
        if np.max(np.abs(mat - mat.conj().T)) > 1e-12:
            raise ValueError("Hamiltonian must be Hermitian")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def mode_lowering(dim: int, which: int = 1) -> np.ndarray:
    """Annihilation operator of mode ``which`` restricted to the sector basis."""
    if dim == 3:
        if which != 1:
            raise ValueError("the 3-dimensional sector holds a single mode")
        column = 1
    elif dim == 4:
        if which not in (1, 2):
            raise ValueError(f"mode index must be 1 or 2, got {which}")
        column = which
    else:
        raise ValueError(f"no mode in dimension {dim}")
    op = np.zeros((dim, dim))
    op[0, column] = 1.0
    return op


def emitter_lowering(dim: int) -> np.ndarray:
    """|g, vacuum><e, vacuum| restricted to the sector basis."""
    op = np.zeros((dim, dim))
    op[0, dim - 1] = 1.0
    return op


def single_sector_hamiltonian(model: LorentzianModel, frame: str = ROTATING) -> HamiltonianSpec:
    """Emitter+mode Hamiltonian on the (g0, g1, e0) basis."""
    h = np.zeros((3, 3), dtype=complex)
    h[1, 2] = h[2, 1] = model.omega_coupling
    if frame == LAB:
        h[1, 1] = model.omega_c
        h[2, 2] = model.omega0
    else:
        h[1, 1] = model.detuning
    return HamiltonianSpec(h)


def double_sector_hamiltonian(
    model: BandGapModel,
    constants: TwoPseudomodeConstants | None = None,
    frame: str = ROTATING,
) -> HamiltonianSpec:
    """Emitter+two-mode Hamiltonian on the (g00, g10, g01, e00) basis."""
    if constants is None:
        constants = derive_two_pseudomode_constants(model)
    h = np.zeros((4, 4), dtype=complex)
    h[2, 3] = h[3, 2] = model.omega_coupling
    h[1, 2] = h[2, 1] = constants.v
    if frame == LAB:
        h[1, 1] = h[2, 2] = model.omega_c
        h[3, 3] = model.omega0
    else:
        h[1, 1] = h[2, 2] = model.detuning
    return HamiltonianSpec(h)


def _bridge_invalid_rates(rates: RateTrajectory) -> tuple[np.ndarray, np.ndarray]:
    """Fill short invalid runs by linear interpolation, reject long ones."""
    if rates.valid.all():
        return np.asarray(rates.s, float), np.asarray(rates.gamma, float)
    times = rates.grid.times
    invalid = np.flatnonzero(~rates.valid)
    runs = np.split(invalid, np.flatnonzero(np.diff(invalid) > 1) + 1)
    for run in runs:
        if len(run) > MAX_BRIDGEABLE_GAP:
            raise RateGapTooWide(
                f"{len(run)} consecutive invalid rate points starting at "
                f"t={times[run[0]]:.6g}; only gaps shorter than 3 steps are bridged"
            )
        if run[0] == 0 or run[-1] == len(times) - 1:
            raise RateGapTooWide("invalid rate points at the grid boundary cannot be bridged")
    good = rates.valid
    s = np.array(rates.s, dtype=float)
    gamma = np.array(rates.gamma, dtype=float)
    s[~good] = np.interp(times[~good], times[good], s[good])
    gamma[~good] = np.interp(times[~good], times[good], gamma[good])
    return s, gamma


def evolve_atom_timelocal(
    rates: RateTrajectory,
    rho0: DensityMatrix,
    grid: TimeGrid,
) -> DensitySeries:
    """Integrate the emitter master equation with time-dependent coefficients.

    The coefficient series are cubic-interpolated between grid points;
    isolated invalid points are bridged linearly when the gap is shorter
    than 3 steps (``RateGapTooWide`` otherwise). Populations and coherence
    are integrated separately, so the trace equals one by construction.
    Output is rotating-frame: the carrier contribution to the shift is
    removed before integrating.
    """
    if rho0.dim != 2:
        raise ValueError(f"the time-local equation acts on the emitter alone, got dim {rho0.dim}")
    if not np.array_equal(grid.times, rates.grid.times):
        raise GridMismatch("evolution grid must match the rate grid")
    s_series, gamma_series = _bridge_invalid_rates(rates)
    times = grid.times
    shift = CubicSpline(times, s_series - 2.0 * rates.omega0)
    decay = CubicSpline(times, gamma_series)

    def rhs(t, y):
        ee, re_coh, im_coh = y
        g = decay(t)
        s = shift(t)
        return (
            -g * ee,
            0.5 * (s * im_coh - g * re_coh),
            -0.5 * (s * re_coh + g * im_coh),
        )

    coh0 = rho0.matrix[1, 0]
    y0 = np.array([rho0.matrix[1, 1].real, coh0.real, coh0.imag])
    solution = solve_ivp(
        rhs, (grid.t_start, grid.t_end), y0, method="DOP853", t_eval=times,
        rtol=DEFAULT_RTOL, atol=DEFAULT_ATOL,
    )
    if not solution.success:
        raise ToleranceNotMet(f"time-local integration failed: {solution.message}")
    ee, re_coh, im_coh = solution.y
    out = np.zeros((len(times), 2, 2), dtype=complex)
    out[:, 0, 0] = 1.0 - ee
    out[:, 1, 1] = ee
    out[:, 1, 0].real = re_coh
    out[:, 1, 0].imag = im_coh
    out[:, 0, 1].real = re_coh
    out[:, 0, 1].imag = -im_coh
    return DensitySeries(out)


def _evolve_lindblad(
    hamiltonian: np.ndarray,
    channels: list[tuple[float, np.ndarray]],
    rho0: DensityMatrix,
    grid: TimeGrid,
) -> DensitySeries:
    """Step the constant Liouvillian exactly in the real coordinates of rho.

    They are the diagonal, then Re and Im of the upper triangle, so every state
    is exactly Hermitian. ``basis`` has orthogonal columns: its scaled adjoint
    is an exact left inverse.
    """
    if np.max(np.abs(rho0.matrix - rho0.matrix.conj().T)) > 1e-12:
        raise ValueError("initial state must be Hermitian")
    dim = hamiltonian.shape[0]
    eye = np.eye(dim)
    # row-major vec(A rho B) = kron(A, B.T) vec(rho); the jump operators are real
    liouvillian = -1j * (np.kron(hamiltonian, eye) - np.kron(eye, hamiltonian.T))
    for rate, op in channels:
        num = op.T @ op
        liouvillian += rate * (np.kron(op, op) - 0.5 * (np.kron(num, eye) + np.kron(eye, num)))
    rows, cols = np.triu_indices(dim, 1)
    unit = np.eye(dim * dim)
    upper, lower = unit[rows * dim + cols], unit[cols * dim + rows]
    basis = np.concatenate([unit[:: dim + 1], upper + lower, 1j * (upper - lower)]).T
    inverse = basis.conj().T / np.sum(np.abs(basis) ** 2, axis=0)[:, None]
    generator = (inverse @ liouvillian @ basis).real
    coords = _propagate_constant(generator, (inverse @ rho0.matrix.ravel()).real, grid)
    return DensitySeries((coords @ basis.T).reshape(-1, dim, dim))


def evolve_lindblad_single(
    model: LorentzianModel,
    rho0: DensityMatrix,
    grid: TimeGrid,
) -> DensitySeries:
    """Evolve the emitter+mode state with mode leakage, rotating frame."""
    if rho0.dim != 3:
        raise SectorLeak(
            f"single-mode evolution acts on the 3-dimensional sector, got dim {rho0.dim}"
        )
    h = single_sector_hamiltonian(model).matrix
    return _evolve_lindblad(h, [(model.gamma, mode_lowering(3))], rho0, grid)


def evolve_lindblad_double(
    model: BandGapModel,
    rho0: DensityMatrix,
    grid: TimeGrid,
) -> DensitySeries:
    """Evolve the emitter+two-mode state with both leakage channels."""
    if rho0.dim != 4:
        raise SectorLeak(
            f"two-mode evolution acts on the 4-dimensional sector, got dim {rho0.dim}"
        )
    constants = derive_two_pseudomode_constants(model)
    h = double_sector_hamiltonian(model, constants).matrix
    channels = [
        (constants.gamma_p1, mode_lowering(4, 1)),
        (constants.gamma_p2, mode_lowering(4, 2)),
    ]
    return _evolve_lindblad(h, channels, rho0, grid)


def partial_trace_pseudomodes(
    rho: DensityMatrix | DensitySeries,
) -> DensityMatrix | DensitySeries:
    """Reduce an extended-sector state (or series) to the emitter alone.

    The ground population collects every emitter-ground diagonal entry; the
    only surviving coherence pairs |e, vacuum> with |g, vacuum> because all
    other cross terms involve orthogonal mode states.
    """
    if rho.dim == 2:
        raise ValueError("state is already emitter-only")
    m = _entries(rho)
    last = rho.dim - 1
    out = np.empty(m.shape[:-2] + (2, 2), dtype=complex)
    out[..., 0, 0] = np.trace(m[..., :last, :last], axis1=-2, axis2=-1)
    out[..., 0, 1] = m[..., last, 0].conj()
    out[..., 1, 0] = m[..., last, 0]
    out[..., 1, 1] = m[..., last, last]
    return type(rho)(out)


def partial_trace_atom(rho: DensityMatrix | DensitySeries) -> np.ndarray:
    """Mode marginal of an extended-sector state (both modes as one subsystem).

    A series gives an ``(n, d-1, d-1)`` array.
    """
    if rho.dim == 2:
        raise ValueError("state carries no mode factor")
    m = _entries(rho)
    last = rho.dim - 1
    out = np.array(m[..., :last, :last])
    out[..., 0, 0] += m[..., last, last]
    return out


def density_series_lab_frame(
    densities: DensitySeries, omega0: float, times: np.ndarray
) -> DensitySeries:
    """Dress a rotating-frame density series with the carrier phase.

    The rotating frame removes exp(i*omega0*t) per excitation, so entry
    (i, j) regains the phase exp(-i*omega0*t*(n_i - n_j)) with n the
    excitation number of the basis state (0 for the joint vacuum, 1
    otherwise). Populations and vacuum-diagonal blocks are unchanged.
    """
    times = np.asarray(times, dtype=float)
    if len(densities) != len(times):
        raise ValueError(f"{len(densities)} states for {len(times)} time points")
    excitation = np.ones(densities.dim)
    excitation[0] = 0.0
    # single exp per entry keeps the diagonal exactly one
    gaps = excitation[:, None] - excitation[None, :]
    phase = np.exp(-1j * omega0 * times[:, None, None] * gaps)
    return DensitySeries(densities.matrices * phase)


def atom_density_from_amplitudes(
    traj: AmplitudeTrajectory, vacuum_amplitude: complex = 0.0
) -> DensitySeries:
    """Emitter state series reconstructed from a pure amplitude solution.

    Valid when the initial joint state was pure with vacuum component
    ``vacuum_amplitude`` and unit total norm: the norm lost by the amplitude
    vector accumulates in the ground population.
    """
    c1 = traj.c1
    # hypot then pow rounds like the scalar abs(c1) ** 2; np.abs(c1) ** 2 can
    # differ in the last bit
    ee = np.float_power(np.hypot(c1.real, c1.imag), 2.0)
    coh = c1 * np.conj(complex(vacuum_amplitude))
    out = np.zeros((len(c1), 2, 2), dtype=complex)
    out[:, 0, 0] = 1.0 - ee
    out[:, 0, 1] = coh.conj()
    out[:, 1, 0] = coh
    out[:, 1, 1] = ee
    return DensitySeries(out)


def extended_density_from_amplitudes(
    traj: AmplitudeTrajectory, vacuum_amplitude: complex = 0.0
) -> DensitySeries:
    """Extended-sector state series reconstructed from a pure amplitude solution.

    Each state is |phi(t)><phi(t)| plus the lost norm parked in the joint
    vacuum, with phi ordered on the sector basis (vacuum, modes, excited).
    """
    states = traj.states
    dim = len(traj.labels) + 1
    phi = np.empty((len(states), dim), dtype=complex)
    phi[:, 0] = complex(vacuum_amplitude)
    phi[:, 1 : dim - 1] = states[:, 1:]
    phi[:, dim - 1] = states[:, 0]
    rho = phi[:, :, None] * phi[:, None, :].conj()
    # a batched matmul rounds each norm as np.vdot(phi, phi) does
    rho[:, 0, 0] += 1.0 - (phi.conj()[:, None, :] @ phi[:, :, None])[:, 0, 0].real
    return DensitySeries(rho)
