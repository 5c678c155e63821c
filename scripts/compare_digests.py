#!/usr/bin/env python3
"""Compare the artifact digests of two checkouts as far as the golden record allows.

Usage:
    python scripts/compare_digests.py BASE.json HEAD.json BASE_RECORD HEAD_RECORD

``BASE.json`` and ``HEAD.json`` are outputs of ``scripts/artifact_digests.py``
for the base and the head checkout; the records are
``tests/data/golden_artifacts.json`` as each checkout has it. How the record
changed decides which differences are intended:

- unchanged: none; every exit code and every digest must be equal;
- only manifest entries changed: ``manifest.txt`` digests may differ, while
  every exit code and every CSV (and ``.partial``) digest must be equal;
- anything else changed (a CSV ``sha256``, a file list, an exit code, the
  numpy version): every difference is intended.

Every difference is printed. The exit status is 1 when one is not intended.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _without_manifests(record: dict) -> dict:
    cases = {
        case: {key: value for key, value in entry.items() if key != "manifest"}
        for case, entry in record["cases"].items()
    }
    return {**record, "cases": cases}


def intended(base_record: dict, head_record: dict) -> str:
    """``"none"``, ``"manifest"`` or ``"all"``: the differences the record change intends."""
    if base_record == head_record:
        return "none"
    if _without_manifests(base_record) == _without_manifests(head_record):
        return "manifest"
    return "all"


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


def unintended(found: list[tuple[str, str]], scope: str) -> list[tuple[str, str]]:
    if scope == "all":
        return []
    if scope == "manifest":
        return [(run, item) for run, item in found if item != "manifest.txt"]
    return list(found)


def main(argv: list[str]) -> int:
    if len(argv) != 4:
        print(__doc__, file=sys.stderr)
        return 2
    base, head, base_record, head_record = (json.loads(Path(p).read_text("utf-8")) for p in argv)
    scope = intended(base_record, head_record)
    found = differences(base, head)
    refused = unintended(found, scope)
    print(f"golden record change intends differences in: {scope}")
    for run, item in found:
        mark = "UNINTENDED" if (run, item) in refused else "intended"
        print(f"{run}: {item} differs ({mark})")
    return 1 if refused else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
