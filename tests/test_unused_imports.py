"""No module of the package imports a name it never uses.

A dependency-free check on the syntax tree of each module but ``__init__``,
whose imports are the public names. A name counts as used where the module
reads it: as a name in its code, an annotation included, in a quoted
annotation, or in its ``__all__``. ``from __future__`` imports are
directives, not names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "memorymodes"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import binds in ``tree``, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def read_names(tree: ast.Module) -> set[str]:
    """The names ``tree`` reads, those of its quoted annotations and of its ``__all__``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, (ast.arg, ast.FunctionDef, ast.AsyncFunctionDef, ast.AnnAssign)):
            annotations = [getattr(node, "annotation", None), getattr(node, "returns", None)]
            for annotation in annotations:
                if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                    read |= read_names(ast.parse(annotation.value, mode="eval"))
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            read |= {element.value for element in node.value.elts}
    return read


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    read = read_names(tree)
    return [f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_caught():
    source = "from __future__ import annotations\nimport os\nfrom x import y, z as w\n\ndef f() -> 'w':\n    return y\n"
    assert unused_imports(source) == ["os (line 2)"]
