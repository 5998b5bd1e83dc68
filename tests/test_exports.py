import ast
import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import idikit

MODULES = sorted(m.name for m in pkgutil.iter_modules(idikit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"idikit.{name}")
    missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
    assert missing == []


def test_records_have_docstrings_and_array_records_compare_by_identity():
    # a docstring of its own spares dataclass a signature walk at import;
    # a record holding arrays compares and hashes by identity
    records = [obj for name in MODULES
               for obj in vars(importlib.import_module(f"idikit.{name}")).values()
               if dataclasses.is_dataclass(obj) and obj.__module__ == f"idikit.{name}"]
    assert [r.__name__ for r in records if r.__doc__.startswith(r.__name__ + "(")] == []
    a, b = idikit.TimeMesh.uniform(2, 1.0), idikit.TimeMesh.uniform(2, 1.0)
    assert a == a and a != b and len({a, b}) == 2
    assert dataclasses.replace(a, nodes=[0.0, 1.0]).k == 1


def test_no_public_callable_takes_a_quadrature_order():
    # the Gauss order is the one constant mesh.GAUSS_ORDER
    takers = []
    for name in MODULES:
        module = importlib.import_module(f"idikit.{name}")
        for attr in getattr(module, "__all__", []):
            obj = getattr(module, attr)
            members = [obj] if callable(obj) else []
            if inspect.isclass(obj):
                members += [m for n, m in vars(obj).items()
                            if not n.startswith("_") and callable(m)]
            for member in members:
                try:
                    params = inspect.signature(member).parameters
                except (TypeError, ValueError):
                    continue
                if "order" in params:
                    takers.append(f"{name}.{attr}")
    assert takers == []


def test_no_module_imports_scipy():
    # numpy is the only runtime dependency; scipy is a test oracle
    found = []
    for path in sorted(Path(idikit.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_import_loads_no_scipy():
    # no scipy module is loaded by the package, the CLI, or a polytope's
    # facets, which the package finds by enumerating vertex subsets; nor
    # numpy.polynomial (the Gauss rule is stored as constants) or
    # numpy.random (only a run that draws loads it, on its first draw)
    code = ("import sys, numpy as np, idikit, idikit.cli\n"
            "from idikit.setvalued import PolytopeOffset, graph_normal_cone\n"
            "F = PolytopeOffset.linear(np.eye(2), [[0, 0], [1, 0], [0, 1]])\n"
            "assert graph_normal_cone(F, 0.0, [0.0, 0.0], [0.5, 0.5]).kind[0] == 'polyhedral'\n"
            "print(sorted(m for m in sys.modules if m.startswith(\n"
            "    ('scipy', 'numpy.polynomial', 'numpy.random'))))")
    env = dict(os.environ, PYTHONPATH=str(Path(idikit.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"
