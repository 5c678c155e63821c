"""Golden SHA-256 hashes of every CLI artifact on the three shipped presets.

Each case is one experiment on one preset. It runs through ``main`` once per
configuration (n_steps, seed, N) of ``CONFIGURATIONS``; the built-in ``fig2``
preset, run without a config file, runs once at its own grid. Every run is
checked exactly against its entry in ``data/golden_artifacts.json``: the exit
code, the sorted file list (``.partial`` files too), the SHA-256 of every
file but ``manifest.txt``, and every manifest line except ``duration_s``, in
order, so a manifest key the record does not name fails. Each run's files are
deleted once hashed, so a test keeps one run's output on disk. The stochastic
CSVs depend on numpy's random streams, and every artifact on numpy's
arithmetic alone (the package imports no scipy), so the test is skipped under
numpy versions other than the recorded one.

The record is the one reference for "no artifact moved". Regenerate it (only
for an intended output change, which its diff then shows run by run) with::

    PYTHONPATH=src python tests/test_golden_artifacts.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

from memorymodes.cli import EXPERIMENTS, main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_artifacts.json"
PRESETS = ("fig2", "bandgap", "perfect_gap")
#: (n_steps, seed, N) of every run of a preset case: 2000 points at N = 1000, and
#: each step count at seeds 5 and 6 with N = 1e4 and at seed 5 with N = 1e9,
#: where the counts are large and the death stretches are cut many times
CONFIGURATIONS = [(2000, 7, 1000)] + [
    (n_steps, seed, n_members)
    for n_steps in (1000, 4000, 16000)
    for seed, n_members in ((5, 10**4), (6, 10**4), (5, 10**9))
]
#: the built-in fig2 preset, run without a config file at its own grid
NO_CONFIG_CASE = "fig2-preset/fig2"

CASES = [f"{preset}/{experiment}" for preset in PRESETS for experiment in EXPERIMENTS]
CASES.append(NO_CONFIG_CASE)


def runs_of(case: str) -> list[tuple[int | None, int, int]]:
    """The (n_steps, seed, N) of every run of ``case``; n_steps None keeps the preset's grid."""
    return [(None, 7, 1000)] if case == NO_CONFIG_CASE else CONFIGURATIONS


def run_name(case: str, n_steps: int | None, seed: int, n_members: int) -> str:
    grid = "" if n_steps is None else f" n_steps={n_steps}"
    return f"{case}{grid} seed={seed} n={n_members}"


def run_case(case: str, n_steps: int | None, seed: int, n_members: int, workdir: Path) -> dict:
    """Run one run of ``case`` in ``workdir``, describe what it left behind, and delete it."""
    preset, experiment = case.split("/")
    out = workdir / "out"
    argv = [experiment, "--out", str(out), "--seed", str(seed), "--n", str(n_members)]
    if n_steps is not None:
        text = (CONFIG_DIR / f"{preset}.cfg").read_text(encoding="utf-8")
        text = re.sub(r"^n_steps = \d+$", f"n_steps = {n_steps}", text, flags=re.M)
        config = workdir / f"{preset}.cfg"
        config.write_text(text, encoding="utf-8")
        argv += ["--config", str(config)]
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        exit_code = main(argv)
    files = sorted(p.name for p in out.iterdir()) if out.exists() else []
    manifest = (out / "manifest.txt").read_text(encoding="utf-8") if "manifest.txt" in files else ""
    record = {
        "exit_code": exit_code,
        "files": files,
        "sha256": {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in files
            if name != "manifest.txt"
        },
        "manifest": [line for line in manifest.splitlines() if not line.startswith("duration_s = ")],
    }
    shutil.rmtree(out, ignore_errors=True)
    return record


def differences(got: dict, expected: dict) -> list[str]:
    """One line per exit code, file list, file hash or manifest key that differs."""
    found = [
        f"{item} {got[item]}, recorded {expected[item]}"
        for item in ("exit_code", "files")
        if got[item] != expected[item]
    ]
    hashes, recorded_hashes = got["sha256"], expected["sha256"]
    for name in sorted(hashes.keys() | recorded_hashes.keys()):
        if hashes.get(name) != recorded_hashes.get(name):
            found.append(f"{name} differs")
    lines, recorded_lines = got["manifest"], expected["manifest"]
    values, recorded = (dict(line.split(" = ", 1) for line in part) for part in (lines, recorded_lines))
    for key in sorted(values.keys() | recorded.keys()):
        if values.get(key) != recorded.get(key):
            found.append(f"manifest.txt {key} = {values.get(key)}, recorded {recorded.get(key)}")
    if values == recorded and lines != recorded_lines:
        found.append("manifest.txt lines in another order")
    return found


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_golden_record(case, tmp_path):
    golden = _load_golden()
    if golden["numpy"] != np.__version__:
        pytest.skip(f"golden record was made with numpy {golden['numpy']}; this is numpy {np.__version__}")
    failures = []
    for run in runs_of(case):
        name = run_name(case, *run)
        got = run_case(case, *run, tmp_path)
        failures += [f"{name}: {line}" for line in differences(got, golden["runs"][name])]
    assert not failures, "\n".join(failures)


def test_golden_record_covers_every_case():
    names = [run_name(case, *run) for case in CASES for run in runs_of(case)]
    assert len(names) == 271
    assert sorted(_load_golden()["runs"]) == sorted(names)


def test_golden_record_bounds_the_extended_distance():
    # every recorded evolve run's Lindblad states lie within 1e-14 of the rank-two
    # reconstruction whose spectrum bounds theirs
    runs = [run for name, run in _load_golden()["runs"].items() if "/evolve " in name]
    assert len(runs) == 30
    for run in runs:
        entries = dict(line.split(" = ", 1) for line in run["manifest"])
        assert float(entries["max_diff_extended_amplitude"]) < 1e-14


if __name__ == "__main__":
    import tempfile

    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            for run in runs_of(case):
                runs[run_name(case, *run)] = run_case(case, *run, Path(tmp))
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    record = {"numpy": np.__version__, "runs": runs}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(runs)} runs to {GOLDEN_PATH}", file=sys.stderr)
