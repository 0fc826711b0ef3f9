"""The three exact backends stay independent: none imports another,
directly or through another redcalc module, so their agreement is a
cross-validation and not one result read three ways."""

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
