"""The rule by which an edit of the golden record exempts artifact digests."""

import copy
import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_digests.py"
_spec = importlib.util.spec_from_file_location("compare_digests", SCRIPT)
compare_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_digests)

RECORD = {
    "numpy": "2.4.6",
    "scipy": "1.17.1",
    "cases": {
        "fig2/evolve": {
            "exit_code": 0,
            "files": ["density.csv", "manifest.txt"],
            "manifest": {"experiment": "evolve", "timelocal.extra": "0"},
            "sha256": {"density.csv": "aa"},
        }
    },
}
BASE = {"fig2/1000/evolve": {"exit": 0, "artifacts": {"density.csv": "aa", "manifest.txt": "m1"}}}


def edited(record, path, value):
    out = copy.deepcopy(record)
    entry = out["cases"]["fig2/evolve"]
    *parents, last = path
    for key in parents:
        entry = entry[key]
    if value is None:
        del entry[last]
    else:
        entry[last] = value
    return out


def head_with(**changes):
    head = copy.deepcopy(BASE)
    head["fig2/1000/evolve"]["artifacts"].update(changes)
    return head


@pytest.mark.parametrize(
    "head_record, scope",
    [
        (RECORD, "none"),
        (edited(RECORD, ("manifest", "timelocal.extra"), None), "manifest"),
        (edited(RECORD, ("sha256", "density.csv"), "bb"), "all"),
        (edited(RECORD, ("exit_code",), 4), "all"),
    ],
    ids=["unchanged", "manifest_entry", "csv_sha256", "exit_code"],
)
def test_record_edit_decides_the_intended_differences(head_record, scope):
    assert compare_digests.intended(RECORD, head_record) == scope


def test_manifest_edit_exempts_manifests_only():
    manifest_only = compare_digests.differences(BASE, head_with(**{"manifest.txt": "m2"}))
    assert manifest_only == [("fig2/1000/evolve", "manifest.txt")]
    assert compare_digests.unintended(manifest_only, "manifest") == []
    assert compare_digests.unintended(manifest_only, "none") == manifest_only
    csv = compare_digests.differences(BASE, head_with(**{"density.csv": "bb", "manifest.txt": "m2"}))
    assert compare_digests.unintended(csv, "manifest") == [("fig2/1000/evolve", "density.csv")]
    assert compare_digests.unintended(csv, "all") == []


def test_exit_code_and_missing_runs_differ():
    head = copy.deepcopy(BASE)
    head["fig2/1000/evolve"]["exit"] = 4
    head["fig2/1000/nmqj"] = {"exit": 0, "artifacts": {}}
    found = compare_digests.differences(BASE, head)
    assert found == [("fig2/1000/evolve", "exit"), ("fig2/1000/nmqj", "exit")]
    assert compare_digests.unintended(found, "manifest") == found
