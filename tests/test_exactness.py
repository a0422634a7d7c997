"""No floating point enters a decision path: no library module (the ones
that decide feasibility, lifting, bisimulation, completeness and the format,
evaluate distributions or read weights among them) contains a float literal,
a `float(...)` call or a `math`, `numpy` or `scipy` import."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "ptsskit"
FORBIDDEN_MODULES = {"math", "numpy", "scipy"}


def float_uses(source: str) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: float literal {node.value!r}")
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append(f"line {node.lineno}: float(...) call")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module or ""]
            for name in names:
                if name.split(".")[0] in FORBIDDEN_MODULES:
                    found.append(f"line {node.lineno}: imports {name}")
    return found


@pytest.mark.parametrize("module", sorted(path.name for path in SRC.glob("*.py")))
def test_decision_modules_use_no_floating_point(module):
    assert float_uses((SRC / module).read_text()) == []


@pytest.mark.parametrize("snippet", [
    "x = 0.5",
    "x = 1e-9",
    "x = 2j",
    "y = float(x)",
    "import math",
    "import numpy as np",
    "import scipy.optimize",
    "from math import gcd",
    "from numpy.linalg import solve",
    "def f():\n    import scipy\n",
])
def test_guard_catches_each_kind_of_use(snippet):
    assert len(float_uses(snippet)) == 1
