#!/usr/bin/env python3
"""Print the SHA-256 of every artifact of every experiment on the shipped presets.

Usage:
    python scripts/artifact_digests.py [--repo DIR] [--n-steps 2000 4000] [--seed 5] [--n 10000]

Each of the CLI's experiments runs in process on each preset in
``<repo>/configs`` with ``n_steps`` rewritten, once per step count, using the
package in ``<repo>/src``. The output is one JSON object, keyed
``<preset>/<n_steps>/<experiment>``, holding the exit code and the SHA-256 of
every file the run left (``.partial`` files too); ``manifest.txt`` is hashed
without its ``duration_s`` line, the one line that varies between identical
runs. Two checkouts write the same bytes exactly when

    python scripts/artifact_digests.py --repo A > a.json
    python scripts/artifact_digests.py --repo B > b.json
    diff a.json b.json

prints nothing. A run that fails (``fig2`` refuses two-mode presets) is
recorded with its exit code, so refusals are compared too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

_N_STEPS_LINE = re.compile(r"^n_steps\s*=.*$", re.MULTILINE)
_DURATION_LINE = re.compile(rb"^duration_s = .*\n", re.MULTILINE)


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.txt":
        data = _DURATION_LINE.sub(b"", data)
    return hashlib.sha256(data).hexdigest()


def run_all(repo: Path, n_steps: list[int], seed: int, n_members: int, work: Path) -> dict:
    sys.path.insert(0, str(repo / "src"))
    from memorymodes import cli

    results = {}
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
                quiet = io.StringIO()
                with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
                    code = cli.main(argv)
                files = sorted(out.iterdir()) if out.exists() else []
                results[key] = {"exit": code, "artifacts": {p.name: digest(p) for p in files}}
    return results


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repo", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and configs/ are used (default: this one)")
    parser.add_argument("--n-steps", type=int, nargs="+", default=[2000, 4000])
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--n", dest="n_members", type=int, default=10_000, help="ensemble size")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as work:
        results = run_all(args.repo.resolve(), args.n_steps, args.seed, args.n_members, Path(work))
    print(json.dumps(results, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
