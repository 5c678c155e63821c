"""Golden SHA-256 hashes of every CLI artifact on the three shipped presets.

Each case runs one experiment through ``main`` on a preset at 2000 points
(N=1000, seed 7) and compares the SHA-256 of every CSV and every manifest
entry except ``duration_s`` with ``data/golden_artifacts.json``. Manifest
keys that the record does not name are allowed, so a run may report more
than it did. The stochastic CSVs depend on numpy's random streams, and every
artifact on numpy's arithmetic alone (the package imports no scipy), so the
test is skipped under numpy versions other than the recorded one.

Regenerate the record (only for an intended output change) with::

    PYTHONPATH=src python tests/test_golden_artifacts.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from memorymodes.cli import EXPERIMENTS, main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "golden_artifacts.json"
PRESETS = ("fig2", "bandgap", "perfect_gap")
N_STEPS = 2000
N_MEMBERS = 1000
SEED = 7
#: the built-in fig2 preset, run without a config file at its own grid
NO_CONFIG_CASE = "fig2-preset/fig2"

CASES = [f"{preset}/{experiment}" for preset in PRESETS for experiment in EXPERIMENTS]
CASES.append(NO_CONFIG_CASE)


def _read_manifest(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, value = line.split(" = ", 1)
        entries[key] = value
    entries.pop("duration_s", None)
    return entries


def run_case(case: str, workdir: Path) -> dict:
    """Run one case in ``workdir`` and describe what it left behind."""
    preset, experiment = case.split("/")
    out = workdir / "out"
    argv = [experiment, "--out", str(out), "--seed", str(SEED), "--n", str(N_MEMBERS)]
    if case != NO_CONFIG_CASE:
        text = (CONFIG_DIR / f"{preset}.cfg").read_text(encoding="utf-8")
        text = re.sub(r"^n_steps = \d+$", f"n_steps = {N_STEPS}", text, flags=re.M)
        config = workdir / f"{preset}.cfg"
        config.write_text(text, encoding="utf-8")
        argv += ["--config", str(config)]
    exit_code = main(argv)
    files = sorted(p.name for p in out.iterdir()) if out.exists() else []
    record = {
        "exit_code": exit_code,
        "files": files,
        "sha256": {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in files
            if name.endswith(".csv")
        },
    }
    if "manifest.txt" in files:
        record["manifest"] = _read_manifest(out / "manifest.txt")
    return record


def _load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES)
def test_artifacts_match_golden_record(case, tmp_path, capsys):
    golden = _load_golden()
    if golden["numpy"] != np.__version__:
        pytest.skip(f"golden record was made with numpy {golden['numpy']}; this is numpy {np.__version__}")
    expected = golden["cases"][case]
    got = run_case(case, tmp_path)
    capsys.readouterr()
    assert got["exit_code"] == expected["exit_code"]
    assert got["files"] == expected["files"]
    assert got["sha256"] == expected["sha256"]
    if "manifest" in expected:
        manifest = got["manifest"]
        for key, value in expected["manifest"].items():
            assert manifest.get(key) == value, key


def test_golden_record_covers_every_case():
    assert sorted(_load_golden()["cases"]) == sorted(CASES)


if __name__ == "__main__":
    import tempfile

    cases = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            cases[case] = run_case(case, Path(tmp))
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    record = {"numpy": np.__version__, "cases": cases}
    GOLDEN_PATH.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(cases)} cases to {GOLDEN_PATH}", file=sys.stderr)
