"""Every exported name resolves, so a deleted function cannot stay listed."""

import importlib
import pkgutil
import types

import pytest

import wstress

MODULES = sorted(m.name for m in pkgutil.iter_modules(wstress.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"wstress.{name}")
    exported = getattr(module, "__all__", [])
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
    exec(f"from wstress.{name} import *", {})


def test_package_exports_resolve_to_declared_names():
    namespace = {}
    exec("from wstress import *", namespace)
    declared = set()
    for name in MODULES:
        module = importlib.import_module(f"wstress.{name}")
        if hasattr(module, "__all__"):
            declared.update(module.__all__)
        elif name == "errors":  # no __all__: every class in it is public
            declared.update(dir(module))
    for name in dir(wstress):
        obj = getattr(wstress, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        assert namespace[name] is obj
        assert name in declared, f"wstress.{name} is in no module's __all__"
