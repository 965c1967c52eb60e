import importlib

import pytest

import btlab


def test_package_exports_resolve():
    for name in btlab.__all__:
        assert getattr(btlab, name) is not None, name


@pytest.mark.parametrize("module", btlab._SUBMODULES)
def test_submodule_exports_resolve(module):
    mod = importlib.import_module(f"btlab.{module}")
    for name in getattr(mod, "__all__", ()):
        assert hasattr(mod, name), f"btlab.{module}.{name}"
