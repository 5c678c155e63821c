"""One workload run in one process: closed-loop passes over the CLI, checks, metrics.

``run.py`` starts this script in a child process with a single-threaded
environment; it is not meant to be started by hand. A pass issues every CLI
invocation of the workload in order, in process, each starting when the
previous one returns (one client). Passes start until ``--seconds`` have
elapsed, with at least two untraced passes, or, with ``--trace 1``, at least
two traced and one untraced pass, alternating traced first. Every run's
output is checked after its pass, untimed. The result is written as JSON to
``--result``; with ``--trace 1`` the spans of every traced pass go to
``--spans``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

from checks import artifact_digests, check_run, number
from reference import NOMINAL_S, calibrate
from tracing import COUNT_METRICS, Tracer, instrumented
from workloads import GROUP, WORKLOADS, warmup_runs

TIMING_GROUPS = tuple(dict.fromkeys(GROUP.values()))

#: end-to-end metrics (lower is better) and their units; setup_s is measured by run.py
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    **dict.fromkeys(TIMING_GROUPS, "s"),
    "rss_peak_mb": "MB",
    "route_residual": "abs",
    "identity_residual": "rel",
}

#: per-layer metrics of the traced run and their units
PER_LAYER_UNITS = {
    "config.validate_s": "s",
    "amplitudes.propagate_s": "s",
    "amplitudes.calls": "count",
    "rates.extract_s": "s",
    "rates.identity_s": "s",
    "rates.valid_fraction": "ratio",
    "density.timelocal_s": "s",
    "density.lindblad_s": "s",
    "density.reduce_s": "s",
    "density.states": "count",
    "info.series_s": "s",
    "trajectories.nmqj_s": "s",
    "trajectories.mcwf_s": "s",
    "trajectories.compare_s": "s",
    "trajectories.member_steps": "count",
    "trajectories.draws": "count",
    "trajectories.jumps": "count",
    "trajectories.draws_per_jump": "ratio",
    "csvio.write_s": "s",
    "csvio.rows": "count",
    "csvio.bytes": "B",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# reference-kernel time after each run, as a share of the run's time
REFERENCE_SHARE = 0.08


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {name: os.environ.get(name) for name in (*THREAD_VARS, "MEMORYMODES_THREADS")},
    }


def _invoke(argv: list[str]):
    """Exit code of one CLI run; None if it raised past the CLI's own handlers."""
    from memorymodes import cli

    try:
        return cli.main(argv)
    except Exception:
        traceback.print_exc()
        return None


def run_pass(runs, inputs: Path, pass_dir: Path, seed: int, tracer: Tracer | None = None) -> dict:
    """Issue every run once, in order; time each run and the whole pass.

    After each run, untimed, the reference kernel runs for a share of that
    run's time; ``scale`` converts the pass's seconds to reference speed.
    """
    run_s, codes, kernels, kernel_s = [], [], [], []
    with instrumented(tracer) if tracer is not None else nullcontext():
        started = time.perf_counter()
        for i, run in enumerate(runs):
            run_started = time.perf_counter()
            codes.append(_invoke(run.argv(inputs, pass_dir / f"{i:02d}_{run.experiment}", seed)))
            run_s.append(time.perf_counter() - run_started)
            count, spent = calibrate(REFERENCE_SHARE * run_s[-1])
            kernels.append(count)
            kernel_s.append(spent)
        wall = time.perf_counter() - started - sum(kernel_s)
    return {
        "traced": tracer is not None,
        "wall_s": wall,
        "scale": NOMINAL_S * sum(kernels) / sum(kernel_s),
        "run_s": run_s,
        "kernels": kernels,
        "kernel_s": kernel_s,
        "codes": codes,
    }


def _enough(passes: list[dict], trace: bool) -> bool:
    traced = sum(p["traced"] for p in passes)
    return len(passes) - traced >= (1 if trace else 2) and traced >= (2 if trace else 0)


def measure(runs, inputs: Path, work: Path, seed: int, seconds: float, trace: bool, warmup=()) -> dict:
    """Run passes for ``seconds`` (at least the minimum), check them, and summarize.

    ``warmup`` runs once, untimed and unchecked, before the first pass.
    """
    passes: list[dict] = []
    reference: dict[int, dict] = {}  # run index -> artifact digests of its first pass
    failures: list[str] = []
    problems: list[str] = []
    spans: list[dict] = []  # per traced pass: measured wall, scale and its spans
    attempted = 0
    if warmup:
        run_pass(warmup, inputs, work / "warmup", seed)  # also warms the reference kernel
        shutil.rmtree(work / "warmup", ignore_errors=True)
    started = time.perf_counter()
    while time.perf_counter() - started < seconds or not _enough(passes, trace):
        tracer = Tracer() if trace and len(passes) % 2 == 0 else None
        pass_dir = work / f"pass{len(passes)}"
        record = run_pass(runs, inputs, pass_dir, seed, tracer)
        route, identity = [], []
        for i, (run, code) in enumerate(zip(runs, record.pop("codes"))):
            out = pass_dir / f"{i:02d}_{run.experiment}"
            found, manifest = check_run(run.experiment, code, out)
            digests = artifact_digests(out, manifest)
            if reference.setdefault(i, digests) != digests:
                found.append("artifacts differ from the first pass with the same seed")
            route += [number(v) for k, v in manifest.items() if k.startswith("max_diff_")]
            identity += [number(v) for k, v in manifest.items() if k.endswith("max_relative_residual")]
            attempted += 1
            if found:
                failures.append(f"pass {len(passes)} {run.label}: {'; '.join(found)}")
        record["route_residual"] = max(route, default=0.0)
        record["identity_residual"] = max(identity, default=0.0)
        if tracer is not None:
            tracer.count_files()
            record["layers"] = tracer.layer_metrics()
            spans.append({"wall_s": record["wall_s"], "scale": record["scale"], "spans": tracer.spans})
        shutil.rmtree(pass_dir, ignore_errors=True)
        passes.append(record)

    untraced = [p for p in passes if not p["traced"]]
    if trace:
        traced = sorted((p for p in passes if p["traced"]), key=lambda p: p["wall_s"] * p["scale"])
        chosen = traced[(len(traced) - 1) // 2]
        for name in COUNT_METRICS:
            seen = {p["layers"][name] for p in traced}
            if len(seen) != 1:
                problems.append(f"{name} differs between traced passes: {sorted(seen)}")
        self_sum = sum(v for k, v in chosen["layers"].items() if k.endswith("_s"))
        if self_sum > chosen["wall_s"]:
            problems.append(f"layer self times {self_sum} exceed the traced wall {chosen['wall_s']}")
        metrics = {k: v * chosen["scale"] if k.endswith("_s") else v for k, v in chosen["layers"].items()}
        metrics["trace.wall_s"] = chosen["wall_s"] * chosen["scale"]
        metrics["trace.overhead_s"] = statistics.median(
            p["wall_s"] * p["scale"] for p in traced
        ) - statistics.median(p["wall_s"] * p["scale"] for p in untraced)
    else:
        # each run's median over the passes, summed per group: a burst of
        # load from outside slows a few runs of one pass and drops out
        scaled = ([t * p["scale"] for t in p["run_s"]] for p in untraced)
        run_s = [statistics.median(times) for times in zip(*scaled)]
        metrics = dict.fromkeys(TIMING_GROUPS, 0.0)
        for run, seconds_taken in zip(runs, run_s):
            metrics[GROUP[run.experiment]] += seconds_taken
        metrics["wall_s"] = sum(run_s)
        for name in ("route_residual", "identity_residual"):
            metrics[name] = statistics.median(p[name] for p in untraced)
        metrics["rss_peak_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "problems": problems,
        "passes": [{k: v for k, v in p.items() if k != "layers"} for p in passes],
        "metrics": metrics,
        "spans": spans,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--work", type=Path, required=True, help="scratch dir holding inputs/")
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    args = parser.parse_args(argv)

    import memorymodes

    src = Path.cwd().resolve() / "src"
    if not Path(memorymodes.__file__).resolve().is_relative_to(src):
        print(f"error: memorymodes imported from {memorymodes.__file__}, not {src}", file=sys.stderr)
        return 2
    runs = WORKLOADS[args.workload]
    result = measure(
        runs, args.work / "inputs", args.work, args.seed, args.seconds, bool(args.trace), warmup_runs(runs)
    )
    spans = result.pop("spans")
    result["machine"] = machine_facts()
    if args.trace:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        payload = {"workload": args.workload, "seed": args.seed, "machine": result["machine"], "passes": spans}
        args.spans.write_text(json.dumps(payload), encoding="utf-8")
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
