#!/usr/bin/env python3
"""Compare the artifact digests of two checkouts as far as the golden record allows.

Usage:
    python scripts/compare_digests.py BASE.json HEAD.json BASE_RECORD HEAD_RECORD

``BASE.json`` and ``HEAD.json`` are outputs of ``scripts/artifact_digests.py``
for the base and the head checkout; the records are
``tests/data/golden_artifacts.json`` as each checkout has it. How the record
changed decides which differences are intended, golden case by golden case.
The case ``preset/experiment`` covers the digest runs
``preset/<n_steps>/experiment`` at every step count:

- an edited ``sha256`` entry lets that CSV of the case differ;
- edited ``manifest`` entries let the case's ``manifest.txt`` differ;
- any other edit of the case (its exit code, its file list), or a case added
  or removed, lets every file and the exit code of the case differ;
- a changed numpy version, or any other edit outside the cases, lets every
  difference through.

An unchanged record intends no difference. Every difference is printed. The
exit status is 1 when one is not intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: stands for every case, or every item of a case, in an intended (case, item) pair
ANY = "*"


def intended(base_record: dict, head_record: dict) -> set[tuple[str, str]]:
    """The (case, item) pairs whose digests the record change lets differ; an item
    is a file name or ``exit``, and ``ANY`` matches every case or item."""

    def outside(record: dict) -> dict:
        return {key: value for key, value in record.items() if key != "cases"}

    if outside(base_record) != outside(head_record):
        return {(ANY, ANY)}
    base_cases, head_cases = base_record["cases"], head_record["cases"]
    allowed = set()
    for case in base_cases.keys() | head_cases.keys():
        old, new = base_cases.get(case), head_cases.get(case)
        if old == new:
            continue
        if old is None or new is None:
            allowed.add((case, ANY))
            continue
        others = (old.keys() | new.keys()) - {"sha256", "manifest"}
        if any(old.get(key) != new.get(key) for key in others):
            allowed.add((case, ANY))
            continue
        old_sha, new_sha = old.get("sha256", {}), new.get("sha256", {})
        names = old_sha.keys() | new_sha.keys()
        allowed |= {(case, name) for name in names if old_sha.get(name) != new_sha.get(name)}
        if old.get("manifest") != new.get("manifest"):
            allowed.add((case, "manifest.txt"))
    return allowed


def differences(base: dict, head: dict) -> list[tuple[str, str]]:
    """Every (run, item) where the two digest sets differ; the item is a file name or ``exit``."""
    found = []
    for run in sorted(base.keys() | head.keys()):
        if run not in base or run not in head:
            found.append((run, "exit"))
            continue
        if base[run]["exit"] != head[run]["exit"]:
            found.append((run, "exit"))
        files_a, files_b = base[run]["artifacts"], head[run]["artifacts"]
        found += [
            (run, name)
            for name in sorted(files_a.keys() | files_b.keys())
            if files_a.get(name) != files_b.get(name)
        ]
    return found


def unintended(found: list[tuple[str, str]], allowed: set[tuple[str, str]]) -> list:
    """The differences in ``found`` that no pair of ``allowed`` covers."""
    refused = []
    for run, item in found:
        preset, _steps, experiment = run.split("/")
        case = f"{preset}/{experiment}"
        if not {(ANY, ANY), (case, ANY), (case, item)} & allowed:
            refused.append((run, item))
    return refused


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    base, head, base_record, head_record = (json.loads(Path(p).read_text("utf-8")) for p in argv)
    allowed = intended(base_record, head_record)
    found = differences(base, head)
    refused = unintended(found, allowed)
    scope = ", ".join(f"{case}: {item}" for case, item in sorted(allowed)) or "nothing"
    print(f"golden record change intends differences in: {scope}")
    for run, item in found:
        mark = "UNINTENDED" if (run, item) in refused else "intended"
        print(f"{run}: {item} differs ({mark})")
    return 1 if refused else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
