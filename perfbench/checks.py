"""Output checks for one CLI run, applied after the pass so they are not timed.

A run passes when it exited 0, wrote ``manifest.txt`` and every artifact the
manifest names, left no ``.partial`` file, and its manifest values meet the
acceptance gates:

- every ``max_diff_*`` of ``evolve`` is below 1e-6 (route equivalence);
- every ``*max_relative_residual`` is below 1e-6 (balance identities);
- ``fig2`` reports a negative ``min_gamma``;
- ``compare`` reports ``max_z_score`` and ``max_cross_z`` below 5.

Byte-identical artifacts across repeat runs with one seed are checked by the
caller from :func:`artifact_digests`.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

RESIDUAL_GATE = 1e-6
Z_GATE = 5.0

# manifest keys each experiment must report
_REQUIRED = {
    "evolve": ("max_diff_amplitude_timelocal", "max_diff_amplitude_traced", "max_diff_timelocal_traced"),
    "identity": ("max_relative_residual",),
    "fig2": ("max_relative_residual", "min_gamma"),
    "compare": ("max_z_score", "max_cross_z"),
}


def read_manifest(path: Path) -> dict[str, str]:
    entries = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            entries[key] = value
    return entries


def number(raw: str) -> float:
    """A manifest value as a float; NaN (which fails every gate) if unreadable."""
    try:
        return float(raw)
    except ValueError:
        return float("nan")


def check_run(experiment: str, code, out: Path) -> tuple[list[str], dict[str, str]]:
    """Problems found in one run's output directory, and its manifest."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    partial = sorted(p.name for p in out.glob("*.partial"))
    if partial:
        problems.append(f"partial files {partial}")
    manifest_path = out / "manifest.txt"
    if not manifest_path.is_file():
        problems.append("no manifest.txt")
        return problems, {}
    manifest = read_manifest(manifest_path)
    names = [n for n in manifest.get("artifacts", "").split(",") if n]
    if not names:
        problems.append("manifest names no artifacts")
    problems += [f"missing artifact {n}" for n in names if not (out / n).is_file()]
    problems += [f"manifest lacks {k}" for k in _REQUIRED.get(experiment, ()) if k not in manifest]

    for key, raw in manifest.items():
        if key.startswith("max_diff_") or key.endswith("max_relative_residual"):
            gate = RESIDUAL_GATE
        elif key in ("max_z_score", "max_cross_z"):
            gate = Z_GATE
        else:
            continue
        if not number(raw) < gate:
            problems.append(f"{key} = {raw} not below {gate}")
    if experiment == "fig2" and "min_gamma" in manifest and not number(manifest["min_gamma"]) < 0.0:
        problems.append(f"min_gamma = {manifest['min_gamma']} is not negative")
    return problems, manifest


def artifact_digests(out: Path, manifest: dict[str, str]) -> dict[str, str]:
    """SHA-256 of every artifact the manifest names (the manifest itself holds a timing)."""
    digests = {}
    for name in manifest.get("artifacts", "").split(","):
        path = out / name
        if name and path.is_file():
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests
