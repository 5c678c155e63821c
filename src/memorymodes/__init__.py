"""Simulation toolkit for a two-level emitter in structured reservoirs.

Four equivalent descriptions of the same decay problem are implemented and
cross-checked numerically: complex amplitude equations in the one-excitation
sector, a time-local emitter master equation with time-dependent
coefficients, dissipative master equations on the extended emitter+mode
space, and stochastic trajectory unravelings of both.
"""

from .amplitudes import (
    AmplitudeTrajectory,
    closed_form_oracle,
    mode_generator,
    norm_balance_residuals,
    propagate_sector,
)
from .config import ModelConfig, validate_config, validate_config_text
from .density import (
    DensityMatrix,
    DensitySeries,
    atom_density_from_amplitudes,
    density_series_lab_frame,
    evolve_atom_timelocal,
    evolve_lindblad_sector,
    extended_density_from_amplitudes,
    partial_trace_atom,
    partial_trace_pseudomodes,
    sector_hamiltonian,
)
from .errors import (
    AllPointsInvalid,
    ConsistencyWarning,
    GridMismatch,
    IllConditioned,
    InvalidRates,
    MemoryModesError,
    NonPhysical,
    ParseError,
    SectorLeak,
    StepTooLarge,
    ToleranceNotMet,
)
from .info import InfoSeries, info_series, mutual_information, von_neumann_entropy
from .models import PseudomodeSector, Reservoir, TimeGrid
from .rates import (
    MemoryIdentityReport,
    RateTrajectory,
    intermode_memory_identity,
    memory_identity_sector,
    rates_from_amplitudes,
    rates_pseudomode_form,
)
from .trajectories import (
    ComparisonReport,
    Ensemble,
    compare_unravelings,
    run_mcwf_pseudomode,
    run_nmqj,
    traced_ensemble_atom_state,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AllPointsInvalid",
    "AmplitudeTrajectory",
    "ComparisonReport",
    "ConsistencyWarning",
    "DensityMatrix",
    "DensitySeries",
    "Ensemble",
    "GridMismatch",
    "IllConditioned",
    "InfoSeries",
    "InvalidRates",
    "MemoryIdentityReport",
    "MemoryModesError",
    "ModelConfig",
    "NonPhysical",
    "ParseError",
    "PseudomodeSector",
    "RateTrajectory",
    "Reservoir",
    "SectorLeak",
    "StepTooLarge",
    "TimeGrid",
    "ToleranceNotMet",
    "atom_density_from_amplitudes",
    "closed_form_oracle",
    "compare_unravelings",
    "density_series_lab_frame",
    "evolve_atom_timelocal",
    "evolve_lindblad_sector",
    "extended_density_from_amplitudes",
    "info_series",
    "intermode_memory_identity",
    "memory_identity_sector",
    "mode_generator",
    "mutual_information",
    "norm_balance_residuals",
    "partial_trace_atom",
    "partial_trace_pseudomodes",
    "propagate_sector",
    "rates_from_amplitudes",
    "rates_pseudomode_form",
    "run_mcwf_pseudomode",
    "run_nmqj",
    "sector_hamiltonian",
    "traced_ensemble_atom_state",
    "validate_config",
    "validate_config_text",
    "von_neumann_entropy",
]
