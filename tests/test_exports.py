"""The public names: the star import and every submodule's ``__all__``."""

import importlib
import pkgutil

import pytest

import memorymodes

SUBMODULES = sorted(info.name for info in pkgutil.iter_modules(memorymodes.__path__))


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from memorymodes import *", namespace)
    assert set(memorymodes.__all__) <= set(namespace)
    assert len(memorymodes.__all__) == len(set(memorymodes.__all__))


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_all_resolves_without_duplicates(name):
    module = importlib.import_module(f"memorymodes.{name}")
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(n for n in exported if exported.count(n) > 1)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing


def test_package_exports_49_names_and_no_scipy_oracle():
    # expm_oracle, built on scipy, is a test helper (tests/conftest.py), not a library name
    assert len(memorymodes.__all__) == 49
    assert "expm_oracle" not in memorymodes.__all__
