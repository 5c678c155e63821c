"""Tests of the benchmark harness at tiny sizes.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run as bench
from memorymodes import cli
from memorymodes.errors import MemoryModesError
from session import END_TO_END_UNITS, PER_LAYER_UNITS, measure
from tracing import COUNT_METRICS
from workloads import WORKLOADS, Run, write_inputs

ROOT = Path(__file__).resolve().parents[2]


def tiny(runs):
    # the perfect-gap preset needs a finer grid than the others to keep every
    # jump probability below the sampler's bound
    return tuple(
        replace(r, n_steps=2000 if r.preset == "perfect_gap" else 400, n_members=min(r.n_members, 200))
        for r in runs
    )


def measure_tiny(tmp_path, runs, seed=1, trace=False):
    write_inputs(ROOT / "configs", tmp_path / "inputs", runs)
    return measure(runs, tmp_path / "inputs", tmp_path, seed, 0.0, trace)


def test_benchmark_json_names_every_printed_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(tmp_path, trace):
    result = measure_tiny(tmp_path, tiny(WORKLOADS["shipped"]), trace=trace)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result["metrics"]["setup_s"] = 0.5  # measured by run.py in fresh interpreters
    line = json.loads(json.dumps(bench.summary(result, units)))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0
    assert line["attempted"] == len(result["passes"]) * len(WORKLOADS["shipped"])
    for name, unit in units.items():
        value = line["metrics"][name]["value"]
        assert line["metrics"][name]["unit"] == unit
        assert math.isfinite(value)
        if name != "trace.overhead_s":  # a difference of two timings
            assert value > 0, name


def test_second_seed_passes_every_check(tmp_path):
    for name, runs in WORKLOADS.items():
        for seed in (1, 2):
            result = measure_tiny(tmp_path / f"{name}-{seed}", tiny(runs), seed=seed)
            assert result["failures"] == [], (name, seed)
            assert result["attempted"] == 2 * len(runs)


def test_traced_counts_repeat_exactly_and_self_times_fit_in_the_wall(tmp_path):
    runs = tiny(WORKLOADS["wide_ensemble"])
    first = measure_tiny(tmp_path / "a", runs, seed=5, trace=True)
    second = measure_tiny(tmp_path / "b", runs, seed=5, trace=True)
    assert first["problems"] == [] and second["problems"] == []
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name] > 0, name
    for result in (first, second):
        metrics = result["metrics"]
        self_sum = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("trace."))
        assert self_sum <= metrics["trace.wall_s"]
    # the wrappers are removed after a traced pass
    assert not hasattr(cli.run, "__wrapped__")


def _rewrite(path: Path, old: str, new: str) -> None:
    path.write_text(path.read_text().replace(old, new))


def _drop_artifact(out: Path, call: int) -> None:
    (out / "comparison.csv").unlink()


def _leave_partial(out: Path, call: int) -> None:
    (out / "nmqj.csv.partial").write_text("")


def _bad_z_score(out: Path, call: int) -> None:
    _rewrite(out / "manifest.txt", "max_z_score = ", "max_z_score = 9.0\nignored = ")


def _bad_route_diff(out: Path, call: int) -> None:
    _rewrite(out / "manifest.txt", "max_diff_amplitude_traced = ", "max_diff_amplitude_traced = 1e-3\nignored = ")


def _nondeterministic(out: Path, call: int) -> None:
    if call > 0:
        with open(out / "mcwf.csv", "a") as handle:
            handle.write("0\n")


@pytest.mark.parametrize(
    "experiment, inject, expected",
    [
        ("compare", _drop_artifact, "missing artifact comparison.csv"),
        ("compare", _leave_partial, "partial files"),
        ("compare", _bad_z_score, "max_z_score = 9.0 not below 5.0"),
        ("evolve", _bad_route_diff, "max_diff_amplitude_traced = 1e-3 not below"),
        ("compare", _nondeterministic, "artifacts differ"),
    ],
)
def test_injected_bad_output_counts_as_a_failure(tmp_path, monkeypatch, experiment, inject, expected):
    runs = (Run("compare", "fig2", 400, 200), Run("evolve", "bandgap", 400))
    real_run = cli.run
    calls = []

    def corrupting_run(config):
        manifest = real_run(config)
        if config.experiment == experiment:
            inject(config.out_dir, len(calls))
            calls.append(config.out_dir)
        return manifest

    monkeypatch.setattr(cli, "run", corrupting_run)
    result = measure_tiny(tmp_path, runs)
    assert result["attempted"] == 4
    assert 1 <= result["failed"] <= 2
    assert any(expected in line for line in result["failures"]), result["failures"]
    assert not bench.summary(result, {})["correct"]


def test_exit_code_and_missing_manifest_count_as_a_failure(tmp_path, monkeypatch):
    def failing_run(config):
        raise MemoryModesError("injected")

    monkeypatch.setattr(cli, "run", failing_run)
    result = measure_tiny(tmp_path, (Run("amplitudes", "fig2", 400),))
    assert result["failed"] == 2
    assert "exit code 4" in result["failures"][0] and "no manifest.txt" in result["failures"][0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "shipped", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
