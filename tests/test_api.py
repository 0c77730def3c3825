"""Every exported name resolves, so a deleted function cannot stay listed, and
importing the package leaves scipy.stats out."""

import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

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


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats is the tests' reference only; a cold start must not pay for it
    src = str(Path(wstress.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in path if p)}
    code = "import sys, wstress, wstress.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, check=True, timeout=60)
    assert result.stdout.strip() == "False"
