"""Command-line entry point: presets, experiment orchestration, artifacts.

Every experiment composes library operations, writes its CSV artifacts into
the output directory, and finishes with a flat key-value manifest naming all
of them. A run first removes an earlier run's listed artifacts and manifest.
On failure the already-written files are renamed with a ``.partial`` suffix
and no manifest appears, so manifest presence marks a completed run; a later
run removes the ``.partial`` file of each artifact it writes.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .amplitudes import propagate_sector
from .config import validate_config, validate_config_text
from .csvio import (
    write_amplitude_csv,
    write_comparison_csv,
    write_density_csv,
    write_ensemble_csv,
    write_identity_csv,
    write_info_csv,
    write_rate_curves_csv,
    write_rates_csv,
)
from .density import (
    DensityMatrix,
    _lindblad_agreement,
    _LindbladStream,
    _rank_two_defects,
    atom_density_from_amplitudes,
    evolve_atom_timelocal,
)
from .errors import MemoryModesError, NonPhysical, ParseError
from .info import info_series
from .models import Reservoir, TimeGrid
from .rates import _band_gap_pair, intermode_memory_identity, memory_identity_sector
from .rates import rates_from_amplitudes
from .trajectories import _check_members, _check_seed, compare_unravelings
from .trajectories import run_mcwf_pseudomode, run_nmqj

__all__ = ["EXPERIMENTS", "RunConfig", "RunManifest", "run", "main", "FIG2_CONFIG_TEXT"]

_STOCHASTIC = ("nmqj", "mcwf", "compare")

# perfbench/tracing.py times these three layers by patching these names on
# this module; they go with its remap to the sector names (ROADMAP item 1).
# evolve streams the Lindblad route, so its span times the stream's ladder
propagate_single = propagate_sector
evolve_lindblad_single = _LindbladStream
memory_identity_single = memory_identity_sector

# Detuned strong-coupling reference preset: width 0.6, coupling sqrt(0.15),
# mode detuned by four widths, in units of the weak-coupling decay rate.
FIG2_CONFIG_TEXT = """\
# Detuned strong-coupling reference preset.
# Units: the weak-coupling emitter decay rate 4*omega_coupling**2/gamma.
model = lorentzian
omega0 = 0.0
omega_c = 2.4
gamma = 0.6
omega_coupling = 0.3872983346207417
t_end = 10.0
n_steps = 4000
"""


@dataclass(frozen=True)
class RunConfig:
    """Everything one experiment run needs, validated before execution."""

    experiment: str
    model: Reservoir
    grid: TimeGrid
    out_dir: Path
    n_members: int = 10_000
    seed: int = 1234
    raw_config: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.experiment not in EXPERIMENTS:
            raise ValueError(f"unknown experiment {self.experiment!r}")
        if self.experiment in _STOCHASTIC:
            _check_members(self.n_members)
        _check_seed(self.seed)


@dataclass
class RunManifest:
    """Flat key-value record of a completed run."""

    entries: dict

    def write(self, path: Path) -> None:
        """Write the manifest to a temporary file, then rename it to ``path``.

        A reader sees no manifest or a complete one, never a partial file.
        """
        temporary = path.with_name(path.name + ".tmp")
        with open(temporary, "w", encoding="utf-8", newline="\n") as handle:
            for key, value in self.entries.items():
                handle.write(f"{key} = {value}\n")
        os.replace(temporary, path)


def _propagate(config: RunConfig):
    return propagate_single(config.model.sector, None, config.grid)


def _experiment_amplitudes(config, artifact, extras) -> None:
    write_amplitude_csv(artifact("trajectory.csv"), _propagate(config))


def _experiment_rates(config, artifact, extras) -> None:
    rates = rates_from_amplitudes(_propagate(config))
    write_rates_csv(artifact("rates.csv"), rates)


def _experiment_identity(config, artifact, extras) -> None:
    traj = _propagate(config)
    rates = rates_from_amplitudes(traj)
    sector = config.model.sector
    pair = _band_gap_pair(sector)
    if pair:
        extras["gamma_p1"] = f"{sector.leak_rates[0]:.17g}"
        extras["gamma_p2"] = f"{sector.leak_rates[1]:.17g}"
        extras["intermode_coupling"] = f"{sector.intermode[0][1]:.17g}"
    report = memory_identity_single(traj, rates)
    write_identity_csv(artifact("identity.csv"), report)
    extras["max_relative_residual"] = f"{report.max_relative_residual:.17g}"
    if pair:
        intermode = intermode_memory_identity(traj)
        write_identity_csv(artifact("identity_intermode.csv"), intermode)
        extras["intermode_max_relative_residual"] = f"{intermode.max_relative_residual:.17g}"


def _evolve_extended(config: RunConfig):
    sector = config.model.sector
    return evolve_lindblad_single(sector, DensityMatrix.excited(sector.n_modes + 2), config.grid)


def _record_invariants(extras: dict, *defects: dict) -> None:
    """Worst of the invariant defects of every density series of the run."""
    extras["invariant.hermiticity"] = f"{max(d['hermiticity'] for d in defects):.17g}"
    extras["invariant.trace"] = f"{max(d['trace'] for d in defects):.17g}"
    extras["invariant.min_eigenvalue"] = f"{min(d['min_eigenvalue'] for d in defects):.17g}"


def _written(path: Path, series, times: np.ndarray) -> dict:
    """Write an emitter series to ``path``; return its invariant defects."""
    write_density_csv(path, series, times)
    return series.invariant_defects()


def _experiment_evolve(config, artifact, extras) -> None:
    # registered in the manifest's order. The time-local route comes first: it
    # refuses invalid rates before any Lindblad work, and once it is written
    # the rates' integral is all that is kept of them. The extended series is
    # streamed, never held whole: one pass checks it against the other routes
    # and traces it; the traced and amplitude routes are then written in turn,
    # and density_extended.csv last, from a second pass
    paths = {
        name: artifact(f"density_{name}.csv")
        for name in ("amplitude", "timelocal", "extended", "traced")
    }
    times = config.grid.times
    traj = _propagate(config)
    rates = rates_from_amplitudes(traj)
    timelocal = evolve_atom_timelocal(rates, DensityMatrix.excited(2))
    route_defects = [_written(paths["timelocal"], timelocal, times)]
    del timelocal
    exponent = rates.integral()
    del rates
    extended = _evolve_extended(config)
    traced, diffs, defects, distance = _lindblad_agreement(extended, traj, exponent)
    del exponent
    route_defects.append(_written(paths["traced"], traced, times))
    del traced
    route_defects.append(_written(paths["amplitude"], atom_density_from_amplitudes(traj), times))
    del traj
    write_density_csv(paths["extended"], extended, times)
    for (first, second), diff in diffs.items():
        extras[f"max_diff_{first}_{second}"] = f"{diff:.17g}"
    extras["max_diff_extended_amplitude"] = f"{distance:.17g}"
    _record_invariants(extras, defects, *route_defects)


def _experiment_nmqj(config, artifact, extras) -> None:
    traj = _propagate(config)
    rates = rates_from_amplitudes(traj)
    ensemble = run_nmqj(rates, [traj.vacuum, traj.c1[0]], config.n_members, config.seed)
    write_ensemble_csv(artifact("nmqj.csv"), ensemble)


def _experiment_mcwf(config, artifact, extras) -> None:
    ensemble = run_mcwf_pseudomode(_propagate(config), config.n_members, config.seed)
    write_ensemble_csv(artifact("mcwf.csv"), ensemble)


def _experiment_compare(config, artifact, extras) -> None:
    traj = _propagate(config)
    rates = rates_from_amplitudes(traj)
    nmqj = run_nmqj(rates, [traj.vacuum, traj.c1[0]], config.n_members, config.seed)
    mcwf = run_mcwf_pseudomode(traj, config.n_members, config.seed)
    report = compare_unravelings(nmqj, mcwf, traj)
    write_ensemble_csv(artifact("nmqj.csv"), nmqj)
    write_ensemble_csv(artifact("mcwf.csv"), mcwf)
    write_comparison_csv(artifact("comparison.csv"), report)
    extras["max_z_score"] = f"{report.max_z_score:.17g}"
    extras["max_cross_z"] = f"{report.max_cross_z:.17g}"


def _experiment_info(config, artifact, extras) -> None:
    # every number written is a closed form of the amplitude solution's
    # rank-two states: no Lindblad fill and no spectrum solver
    traj = _propagate(config)
    write_info_csv(artifact("info.csv"), info_series(traj))
    _record_invariants(extras, _rank_two_defects(traj))


def _experiment_fig2(config, artifact, extras) -> None:
    if config.model.sector.n_modes != 1:
        raise ValueError("the fig2 preset runs on a one-mode reservoir")
    traj = _propagate(config)
    rates = rates_from_amplitudes(traj)
    report = memory_identity_single(traj, rates)
    write_rate_curves_csv(artifact("rates.csv"), rates, report)
    extras["max_relative_residual"] = f"{report.max_relative_residual:.17g}"
    extras["min_gamma"] = f"{np.nanmin(rates.gamma):.17g}"


_RUNNERS = {
    "amplitudes": _experiment_amplitudes,
    "rates": _experiment_rates,
    "identity": _experiment_identity,
    "evolve": _experiment_evolve,
    "nmqj": _experiment_nmqj,
    "mcwf": _experiment_mcwf,
    "compare": _experiment_compare,
    "info": _experiment_info,
    "fig2": _experiment_fig2,
}

EXPERIMENTS = tuple(_RUNNERS)


def _plain(name: str) -> bool:
    """Whether ``name`` is a file name in the output directory itself."""
    return name not in ("", "..") and Path(name).name == name


def _remove_earlier_run(out: Path) -> None:
    """Delete the regular files an earlier manifest lists in ``out``, then the manifest.

    A listed directory or the manifest's own name is skipped, so a bad list fails no run.
    """
    manifest = out / "manifest.txt"
    if not manifest.exists():
        return
    for line in manifest.read_text(encoding="utf-8", errors="replace").splitlines():
        if line.startswith("artifacts = "):
            for name in line.removeprefix("artifacts = ").split(","):
                path = out / name
                if _plain(name) and name != manifest.name and path.is_file():
                    path.unlink()
    manifest.unlink()


def run(config: RunConfig) -> RunManifest:
    """Execute one experiment, writing CSV artifacts and a manifest."""
    out = config.out_dir
    out.mkdir(parents=True, exist_ok=True)
    # an earlier run's manifest would mark this run complete if it failed,
    # and its artifacts would stand beside this run's under plain names
    _remove_earlier_run(out)
    started = time.perf_counter()
    written: list[Path] = []
    extras: dict = {}

    def artifact(name: str) -> Path:
        path = out / name
        # a failed earlier run left this artifact as <name>.partial
        if _plain(name):
            path.with_name(name + ".partial").unlink(missing_ok=True)
        written.append(path)
        return path

    try:
        _RUNNERS[config.experiment](config, artifact, extras)
    except BaseException:
        for path in written:
            if path.exists():
                path.rename(path.with_name(path.name + ".partial"))
        raise

    entries = {
        "experiment": config.experiment,
        "version": __version__,
        "seed": config.seed,
        "n_members": config.n_members,
        "artifacts": ",".join(path.name for path in written),
    }
    for key, value in config.raw_config.items():
        entries[f"config.{key}"] = value
    entries.update(extras)
    entries["duration_s"] = f"{time.perf_counter() - started:.3f}"
    manifest = RunManifest(entries)
    manifest.write(out / "manifest.txt")
    return manifest


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="memorymodes",
        description="Simulate a two-level emitter decaying into a structured reservoir "
        "and cross-validate the equivalent descriptions.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS)
    parser.add_argument("--config", type=Path, default=None, help="flat key-value parameter file")
    parser.add_argument("--out", type=Path, default=None, help="output directory (default run_<experiment>)")
    parser.add_argument("--seed", type=int, default=1234, help="random seed for stochastic experiments")
    parser.add_argument("--n", dest="n_members", type=int, default=10_000, help="ensemble size")
    parser.add_argument(
        "--allow-nonphysical",
        action="store_true",
        help="skip the derived-rate sign checks on band-gap parameters",
    )
    args = parser.parse_args(argv)

    try:
        if args.config is not None:
            parsed = validate_config(args.config, allow_nonphysical=args.allow_nonphysical)
        elif args.experiment == "fig2":
            parsed = validate_config_text(FIG2_CONFIG_TEXT, source="<fig2 preset>")
        else:
            print(f"error: experiment {args.experiment!r} requires --config", file=sys.stderr)
            return 2
        out_dir = args.out if args.out is not None else Path(f"run_{args.experiment}")
        config = RunConfig(
            experiment=args.experiment,
            model=parsed.model,
            grid=parsed.grid,
            out_dir=out_dir,
            n_members=args.n_members,
            seed=args.seed,
            raw_config=parsed.raw,
        )
        run(config)
    except ParseError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NonPhysical as exc:
        print(f"nonphysical parameters: {exc}", file=sys.stderr)
        return 3
    except MemoryModesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out_dir / 'manifest.txt'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
