#!/usr/bin/env python3
"""Print the tracemalloc peak and retained memory of every experiment on the shipped presets.

Usage:
    python scripts/peak_memory.py [--repo DIR] [--n-steps 16000] [--modes 10] [--seed 5] [--n 10000]

Each of the CLI's experiments runs in process on each preset in
``<repo>/configs`` with ``n_steps`` rewritten, once per step count, using the
package in ``<repo>/src``, as ``tests/test_golden_artifacts.py`` runs them.
For every run it records the exit code, the peak of the memory traced
during the run above what was traced before it (``peak_mib``) and what its
results still hold when it returns (``retained_mib``), in MiB. Garbage is
collected before each run, so no run is charged with a cycle an earlier one
left. One more run per ``--modes K`` and step count,
``lone_peaks_<K>/<n_steps>/extended``, takes a reservoir of K lone Lorentzian
peaks spread over [-2, 2] around the emitter, built here as no config kind
lists peaks, through the ``evolve`` experiment itself (``cli.run``): the
Lindblad route from |e> on (K+2)^2 real coordinates per point, streamed a
chunk at a time, checked against the amplitude reconstruction, traced and
written to ``density_extended.csv``, and the emitter routes; a refused run
records exit 4, as ``cli.main`` gives it. The output is one JSON
object keyed ``<preset>/<n_steps>/<experiment>``. tracemalloc sees what
Python and numpy allocate, not LAPACK's workspace, so the peaks are lower
bounds on what a process holds.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

_N_STEPS_LINE = re.compile(r"^n_steps\s*=.*$", re.MULTILINE)
_MIB = 2.0**20


def traced(call) -> dict:
    """Run ``call()``, which returns its exit code and its results, with its output silenced."""
    gc.collect()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        # the results stay referenced until measured, so retained_mib counts them
        code, _results = call()
    current, peak = tracemalloc.get_traced_memory()
    return {
        "exit": code,
        "peak_mib": round((peak - before) / _MIB, 3),
        "retained_mib": round((current - before) / _MIB, 3),
    }


def lone_peaks(n_peaks: int):
    """Arguments of a reservoir of ``n_peaks`` lone peaks, each of its own width and weight."""
    def center(k: int) -> float:
        return -2.0 + 4.0 * k / (n_peaks - 1) if n_peaks > 1 else 0.0

    return 0.0, 0.8, tuple((1.0 + 0.1 * k, 0.5 + 0.2 * k, center(k)) for k in range(n_peaks))


def run_all(repo: Path, n_steps: list[int], modes: list[int], seed: int, n_members: int,
            work: Path) -> dict:
    sys.path.insert(0, str(repo / "src"))
    from memorymodes import MemoryModesError, Reservoir, TimeGrid, cli

    def run(config):
        # a refused run records the exit code cli.main gives it
        try:
            return 0, cli.run(config)
        except MemoryModesError:
            return 4, None

    results = {}
    tracemalloc.start()
    for preset in sorted((repo / "configs").glob("*.cfg")):
        for steps in n_steps:
            text, found = _N_STEPS_LINE.subn(f"n_steps = {steps}", preset.read_text("utf-8"))
            if found != 1:
                raise ValueError(f"{preset} has {found} n_steps lines, expected 1")
            config = work / f"{preset.stem}_{steps}.cfg"
            config.write_text(text, encoding="utf-8")
            for experiment in cli.EXPERIMENTS:
                key = f"{preset.stem}/{steps}/{experiment}"
                out = work / key.replace("/", "_")
                argv = [experiment, "--config", str(config), "--out", str(out)]
                argv += ["--seed", str(seed), "--n", str(n_members)]
                results[key] = traced(lambda: (cli.main(argv), None))
    for n_peaks in modes:
        model = Reservoir(*lone_peaks(n_peaks))
        for steps in n_steps:
            key = f"lone_peaks_{n_peaks}/{steps}/extended"
            config = cli.RunConfig("evolve", model, TimeGrid(0.0, 10.0, steps), work / key.replace("/", "_"))
            results[key] = traced(lambda: run(config))
    tracemalloc.stop()
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and configs/ are used (default: this one)")
    parser.add_argument("--n-steps", type=int, nargs="+", default=[16000])
    parser.add_argument("--modes", type=int, nargs="+", default=[10],
                        help="peak counts K of the extra lone-peak runs")
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--n", dest="n_members", type=int, default=10_000, help="ensemble size")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        results = run_all(args.repo.resolve(), args.n_steps, args.modes, args.seed,
                          args.n_members, Path(work))
    print(json.dumps(results, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
