"""The three exact backends stay independent: none imports another,
directly or through another redcalc module, so their agreement is a
cross-validation and not one result read three ways.  The front ends,
cli and verify, read only the public names of the modules they call."""

import ast
from pathlib import Path

import pytest

import redcalc

BACKENDS = ("exact", "series", "oracle")
PACKAGE = Path(redcalc.__file__).parent


def redcalc_imports(source):
    """The redcalc names a module's source imports anywhere in its code,
    function-local imports included: bare module names, or for
    ``from redcalc import x`` the name x."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "redcalc" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0:
                if parts[0] != "redcalc":
                    continue
                parts = parts[1:]
            if parts and parts[0]:
                found.add(parts[0])
            else:  # from . import a, b
                found.update(alias.name for alias in node.names)
    return found


def reachable(name):
    """The redcalc modules module `name` imports directly or through others."""
    seen, todo = set(), [name]
    while todo:
        for dep in redcalc_imports((PACKAGE / f"{todo.pop()}.py").read_text()):
            if dep not in seen and (PACKAGE / f"{dep}.py").exists():
                seen.add(dep)
                todo.append(dep)
    return seen


@pytest.mark.parametrize("name", BACKENDS)
def test_backend_reaches_no_other_backend(name):
    assert reachable(name) & (set(BACKENDS) - {name}) == set()


def test_every_import_form_is_seen():
    source = "\n".join([
        "import math, redcalc.series",
        "from redcalc import oracle",
        "from redcalc.exact import expected_rdeg",
        "from . import asym, special",
        "from .paths import STEPS",
        "def f():",
        "    from .trees import Node",
        "import numpy",
        "from numpy import int8",
    ])
    assert redcalc_imports(source) == {
        "series", "oracle", "exact", "asym", "special", "paths", "trees"
    }


FRONT_ENDS = ("cli", "verify")


def is_private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(source):
    """The single-underscore names a module's source reads off another
    redcalc module: ``from .m import _x``, ``m._x`` for a name m it
    imports from redcalc, and ``_load()._x`` for a function _load that
    imports a redcalc module and returns it."""
    tree = ast.parse(source)
    imported, loaders, found = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and redcalc_imports(ast.unparse(node)):
            for alias in node.names:
                if is_private(alias.name):
                    found.add(f"{node.module or '.'}.{alias.name}")
                else:
                    imported.add(alias.asname or alias.name)
        elif isinstance(node, ast.FunctionDef):
            last = node.body[-1]
            if (isinstance(last, ast.Return) and isinstance(last.value, ast.Name)
                    and last.value.id in redcalc_imports(ast.unparse(node))):
                loaders.add(node.name)
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Attribute) and is_private(node.attr)):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in imported:
            found.add(f"{owner.id}.{node.attr}")
        elif (isinstance(owner, ast.Call) and isinstance(owner.func, ast.Name)
                and owner.func.id in loaders):
            found.add(f"{owner.func.id}().{node.attr}")
    return found


@pytest.mark.parametrize("name", FRONT_ENDS)
def test_front_end_reads_no_private_name(name):
    assert private_reads((PACKAGE / f"{name}.py").read_text()) == set()


def test_every_private_read_is_seen():
    source = "\n".join([
        "import math",
        "from . import exact, series as s",
        "from .paths import _COLLAPSE, STEPS",
        "def _series():",
        "    from . import series",
        "    return series",
        "def _helper():",
        "    return math",
        "exact._differences(1)",
        "s._zero(3)",
        "_series()._stages('sigma', 1, 2)",
        "exact.__name__, math._private, _helper()._x, _series().sigma_series(2)",
    ])
    assert private_reads(source) == {
        "paths._COLLAPSE", "exact._differences", "s._zero", "_series()._stages"
    }
