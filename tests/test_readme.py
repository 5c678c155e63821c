"""The README's code runs against the package as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_sketch() -> str:
    """The first python block under the README's "Library sketch" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library sketch\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "no python block under Library sketch"
    return match.group(1)


def test_library_sketch_runs():
    namespace: dict = {}
    exec(compile(library_sketch(), f"{README}:Library sketch", "exec"), namespace)
    # the shapes its comments state
    assert namespace["ensemble"].jump_counts.shape == (3999, 1)
    assert namespace["mcwf"].psi0.shape == (4000, 3)
    assert namespace["joint"].matrices.shape == (4000, 3, 3)
    assert namespace["emitter"].matrices.shape == (4000, 2, 2)
