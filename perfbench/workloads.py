"""Benchmark workloads: which CLI experiments run, on which inputs, at which size.

Each workload is a fixed list of CLI invocations that one client issues in
order (a closed loop: the next run starts when the previous one returns).
The inputs are the shipped presets from ``configs/`` with only ``n_steps``
rewritten; the seed is the benchmark's own argument, passed on as ``--seed``.

Every workload runs each of the nine experiments at least once, so every
end-to-end timing group is non-zero on every workload; the workloads differ in
where they put the size.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path

PRESETS = ("fig2", "bandgap", "perfect_gap")

# the experiments that take --config; ``fig2`` also runs without one
CONFIG_EXPERIMENTS = ("amplitudes", "rates", "identity", "evolve", "nmqj", "mcwf", "compare", "info")

#: end-to-end timing group of each experiment
GROUP = {
    "amplitudes": "light_s",
    "rates": "light_s",
    "identity": "light_s",
    "fig2": "light_s",
    "evolve": "evolve_s",
    "info": "info_s",
    "nmqj": "ensemble_s",
    "mcwf": "ensemble_s",
    "compare": "compare_s",
}

_N_STEPS_LINE = re.compile(r"(?m)^n_steps\s*=.*$")


@dataclass(frozen=True)
class Run:
    """One CLI invocation: ``memorymodes <experiment> [--config <preset>] ...``.

    ``preset`` None runs the built-in fig2 preset without ``--config``;
    ``n_steps`` then does not apply.
    """

    experiment: str
    preset: str | None
    n_steps: int = 4000
    n_members: int = 10_000  # the CLI default

    @property
    def config_name(self) -> str:
        return f"{self.preset}_{self.n_steps}.cfg"

    @property
    def label(self) -> str:
        where = f"{self.preset}@{self.n_steps}" if self.preset else "builtin"
        return f"{self.experiment}:{where}:N={self.n_members}"

    def argv(self, inputs: Path, out: Path, seed: int) -> list[str]:
        argv = [self.experiment, "--out", str(out), "--seed", str(seed), "--n", str(self.n_members)]
        if self.preset is not None:
            argv += ["--config", str(inputs / self.config_name)]
        return argv


# compare must pass criterion 6's gate, max_z_score and max_cross_z < 5, and
# the program meets it only on bandgap at a coarse enough step (README,
# "Where compare runs"). On fig2 the nmqj ground population varies 1.7 to 2.2
# times more than the binomial p(1-p)/N the z-score assumes, so z > 5 on about
# 1 seed in 150 at N=1e4, and a larger N does not shrink the ratio; on
# perfect_gap the nmqj step bias (ROADMAP item 3) fails it on most seeds; at
# 16000 points and N=1e3 one early jump does. The samplers still run on those
# inputs, as nmqj and mcwf.
COMPARE_POINTS = 1000


def _shipped() -> tuple[Run, ...]:
    # The default user session: every layer does a share of the work, so a
    # gain in one layer that costs another shows here. The short compare
    # runs after each preset's runs, so it is sampled three times per pass.
    compare = Run("compare", "bandgap", n_steps=COMPARE_POINTS)
    runs = [
        run
        for preset in PRESETS
        for run in (*(Run(exp, preset) for exp in CONFIG_EXPERIMENTS if exp != "compare"), compare)
    ]
    return (*runs, Run("fig2", None))


def _wide_ensemble() -> tuple[Run, ...]:
    # Per-member sampling dominates: both samplers on fig2 and bandgap at
    # criterion 6's N=1e5. The probe of the other experiments on a short fig2
    # grid keeps every timing group non-zero at a small share; it runs after
    # each heavy run, so its short runs are sampled three times per pass and
    # at three points in it.
    heavy = [
        Run("nmqj", "fig2", n_members=100_000),
        Run("mcwf", "fig2", n_members=100_000),
        Run("compare", "bandgap", n_members=100_000),
    ]
    light = ("amplitudes", "rates", "identity", "evolve", "info")
    probe = [*(Run(exp, "fig2", n_steps=1000, n_members=1_000) for exp in light), Run("fig2", None)]
    return tuple(run for big in heavy for run in (big, *probe))


def _fine_grid() -> tuple[Run, ...]:
    # Per-step costs dominate: one DensityMatrix, one CSV row and one sampler
    # step (with a new Philox generator) per grid point, at 4x the points.
    # The short runs (compare, and the light experiments on fig2) follow each
    # preset's runs, so they are sampled twice per pass.
    light = [Run(exp, "fig2", n_steps=16_000) for exp in ("amplitudes", "rates", "identity", "fig2")]
    light.append(Run("compare", "bandgap", n_steps=COMPARE_POINTS))
    heavy = ("evolve", "info", "nmqj", "mcwf")
    return tuple(
        run
        for preset in ("fig2", "bandgap")
        for run in (*(Run(exp, preset, n_steps=16_000, n_members=1_000) for exp in heavy), *light)
    )


WORKLOADS = {
    "shipped": _shipped(),
    "wide_ensemble": _wide_ensemble(),
    "fine_grid": _fine_grid(),
}


def warmup_runs(runs) -> tuple[Run, ...]:
    """Tiny runs of each experiment on both model kinds.

    Run once, untimed, before the first pass, so that lazy imports and
    first-call costs (which more than double the first light runs) fall
    outside the measurement.
    """
    experiments = dict.fromkeys(run.experiment for run in runs)
    return tuple(
        Run(exp, preset, n_steps=400, n_members=1_000)
        for exp in experiments
        for preset in (("fig2",) if exp == "fig2" else ("fig2", "bandgap"))
    )


def write_inputs(configs: Path, inputs: Path, runs) -> list[Path]:
    """Write one config per (preset, n_steps) the runs use; return their paths."""
    inputs.mkdir(parents=True, exist_ok=True)
    written = {}
    for run in runs:
        if run.preset is None or run.config_name in written:
            continue
        text = (configs / f"{run.preset}.cfg").read_text(encoding="utf-8")
        text, found = _N_STEPS_LINE.subn(f"n_steps = {run.n_steps}", text)
        if found != 1:
            raise ValueError(f"preset {run.preset!r} has {found} n_steps lines, expected 1")
        path = inputs / run.config_name
        path.write_text(text, encoding="utf-8")
        written[run.config_name] = path
    return list(written.values())
