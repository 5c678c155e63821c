"""memorymodes benchmark: one workload, one command, metrics as JSON on the last line.

Run from the repository root (it builds nothing; the package is imported
from ``src/``):

    python3 perfbench/run.py --workload shipped --seed 1 --seconds 27 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. See perfbench/README.md for the
workloads and what each metric should move.

The workload runs in a child process with one BLAS/OpenMP thread and without
``MEMORYMODES_THREADS``, so the ambient environment cannot change what is
measured. ``setup_s`` is the median of several cold starts, each in a fresh
interpreter; the run times are scaled to reference speed (see reference.py).
Inputs, outputs and span files stay under ``.perfbench_work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from session import END_TO_END_UNITS, PER_LAYER_UNITS, THREAD_VARS  # noqa: E402
from workloads import WORKLOADS, warmup_runs, write_inputs  # noqa: E402

WORK_DIR = ".perfbench_work"
SETUP_SAMPLES = 5
# the whole command must end within 180 s
DEADLINE_S = 170.0


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MEMORYMODES_THREADS", None)
    env.update(dict.fromkeys(THREAD_VARS, "1"))
    env["PYTHONPATH"] = str(root / "src")
    return env


def setup_sample(configs: list[Path], env: dict, timeout: float) -> float:
    """Seconds for a cold import of memorymodes.cli plus validating ``configs``."""
    probe = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *map(str, configs)],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
        check=True,
    )
    return float(probe.stdout.split()[-1])


def summary(result: dict, units: dict[str, str]) -> dict:
    """The last output line: correctness, operations attempted and failed, metrics with units."""
    return {
        "correct": result["failed"] == 0 and not result["problems"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="memorymodes CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep issuing passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "memorymodes" / "cli.py").is_file() or not (root / "configs").is_dir():
        print("error: run from the repository root; src/memorymodes and configs/ are missing", file=sys.stderr)
        return 2
    runs = WORKLOADS[args.workload]
    seed = args.seed % 2**64  # the CLI takes an unsigned 64-bit seed
    env = child_env(root)
    (root / WORK_DIR).mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_DIR))
    spans_path = root / WORK_DIR / "traces" / f"{args.workload}-seed{seed}.json"

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    try:
        configs = write_inputs(root / "configs", work / "inputs", runs)
        write_inputs(root / "configs", work / "inputs", warmup_runs(runs))
        setup = [] if args.trace else [setup_sample(configs, env, remaining()) for _ in range(SETUP_SAMPLES)]
        command = [sys.executable, str(HERE / "session.py"), "--workload", args.workload]
        command += ["--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        command += ["--work", str(work), "--result", str(work / "result.json"), "--spans", str(spans_path)]
        subprocess.run(command, env=env, stdout=subprocess.DEVNULL, timeout=remaining(), check=True)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = result["metrics"]
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1

    passes = result["passes"]
    print(f"machine: {json.dumps(result['machine'])}")
    print(
        f"workload {args.workload}: {len(runs)} runs per pass, one client, closed loop; "
        f"seed {seed}; {len(passes)} passes ({sum(p['traced'] for p in passes)} traced)"
    )
    print("  run times are scaled to reference speed (see reference.py); measured wall and scale per pass:")
    for p in passes:
        print(f"  pass traced={int(p['traced'])} measured wall_s={p['wall_s']:.4f} scale={p['scale']:.4f}")
    if setup:
        print(f"  setup_s samples (measured, not scaled): {', '.join(f'{s:.4f}' for s in setup)}")
    if args.trace:
        print(f"  spans written to {spans_path.relative_to(root)}")
    for name, unit in units.items():
        print(f"  {name:30s} {metrics[name]:.6g} {unit}")
    for line in result["failures"] + result["problems"]:
        print(f"  FAILED {line}", file=sys.stderr)

    print(json.dumps(summary(result, units)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
