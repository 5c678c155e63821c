"""The rules by which an edit of the golden record exempts artifact digests, case by case."""

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


ANY = compare_digests.ANY


@pytest.mark.parametrize(
    "head_record, scope",
    [
        (RECORD, set()),
        (edited(RECORD, ("manifest", "timelocal.extra"), None), {("fig2/evolve", "manifest.txt")}),
        (edited(RECORD, ("sha256", "density.csv"), "bb"), {("fig2/evolve", "density.csv")}),
        (edited(RECORD, ("exit_code",), 4), {("fig2/evolve", ANY)}),
        (edited(RECORD, ("files",), ["manifest.txt"]), {("fig2/evolve", ANY)}),
        ({**RECORD, "numpy": "2.5.0"}, {(ANY, ANY)}),
    ],
    ids=["unchanged", "manifest_entry", "csv_sha256", "exit_code", "file_list", "numpy"],
)
def test_record_edit_decides_the_intended_differences(head_record, scope):
    assert compare_digests.intended(RECORD, head_record) == scope


def test_added_case_exempts_that_case_only():
    head_record = copy.deepcopy(RECORD)
    head_record["cases"]["fig2/info"] = {"exit_code": 0, "files": [], "sha256": {}}
    assert compare_digests.intended(RECORD, head_record) == {("fig2/info", ANY)}
    assert compare_digests.intended(head_record, RECORD) == {("fig2/info", ANY)}


def test_manifest_edit_exempts_manifests_only():
    scope = compare_digests.intended(RECORD, edited(RECORD, ("manifest", "experiment"), "x"))
    manifest_only = compare_digests.differences(BASE, head_with(**{"manifest.txt": "m2"}))
    assert manifest_only == [("fig2/1000/evolve", "manifest.txt")]
    assert compare_digests.unintended(manifest_only, scope) == []
    assert compare_digests.unintended(manifest_only, set()) == manifest_only
    csv = compare_digests.differences(BASE, head_with(**{"density.csv": "bb", "manifest.txt": "m2"}))
    assert compare_digests.unintended(csv, scope) == [("fig2/1000/evolve", "density.csv")]
    assert compare_digests.unintended(csv, {(ANY, ANY)}) == []


def test_csv_edit_exempts_that_csv_of_that_case_only():
    scope = compare_digests.intended(RECORD, edited(RECORD, ("sha256", "density.csv"), "bb"))
    base = {
        f"{preset}/{steps}/evolve": {
            "exit": 0,
            "artifacts": {"density.csv": "aa", "emitter.csv": "ee", "manifest.txt": "m1"},
        }
        for preset in ("fig2", "bandgap")
        for steps in (1000, 16000)
    }
    head = copy.deepcopy(base)
    for run in head.values():
        run["artifacts"] = {"density.csv": "bb", "emitter.csv": "ff", "manifest.txt": "m2"}
    found = compare_digests.differences(base, head)
    assert len(found) == 12
    # at every step count the case's density.csv may differ, and nothing else
    assert sorted(compare_digests.unintended(found, scope)) == sorted(
        (run, item)
        for run, item in found
        if not (run.startswith("fig2/") and item == "density.csv")
    )
    # a case with an edited exit code may differ in every file and its exit code
    head["fig2/1000/evolve"]["exit"] = 4
    found = compare_digests.differences(base, head)
    assert compare_digests.unintended(found, {("fig2/evolve", ANY)}) == [
        (run, item) for run, item in found if run.startswith("bandgap/")
    ]


def test_exit_code_and_missing_runs_differ():
    head = copy.deepcopy(BASE)
    head["fig2/1000/evolve"]["exit"] = 4
    head["fig2/1000/nmqj"] = {"exit": 0, "artifacts": {}}
    found = compare_digests.differences(BASE, head)
    assert found == [("fig2/1000/evolve", "exit"), ("fig2/1000/nmqj", "exit")]
    assert compare_digests.unintended(found, {("fig2/evolve", "manifest.txt")}) == found
    assert compare_digests.unintended(found, {("fig2/evolve", ANY)}) == [("fig2/1000/nmqj", "exit")]
