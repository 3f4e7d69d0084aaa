"""The layering of the package, read from its source: the route modules
import none of each other, so one route never derives from another, and
the command line reaches the routes it compares only through
``invariants``."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "majorana1d"
ROUTES = ("susy", "linear", "oracle", "evolution")
# what a route may import of the package: the shared model, the error
# types and the LAPACK loader
ROUTE_IMPORTS = {"model", "errors", "_lapack"}
# the primitives the routes share through model instead of through each other
SHARED = ("superpotential", "staggered_ladder", "trapezoid", "Sector")


def _tree(module: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def package_imports(module: str) -> set[str]:
    """The package modules that ``module`` imports anywhere in its source,
    under ``TYPE_CHECKING`` and inside functions too: ``from . import x``,
    ``from .x import ...``, ``import majorana1d.x`` and ``from majorana1d.x
    import ...``."""
    found = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "majorana1d" and rest:
                    found.add(rest.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == "majorana1d":
                parts = node.module.split(".")[1:]
            elif node.level > 0:
                parts = node.module.split(".") if node.module else []
            else:
                continue
            found.update([parts[0]] if parts else (alias.name for alias in node.names))
    return found


@pytest.mark.parametrize("route", ROUTES)
def test_a_route_imports_no_other_route(route):
    imported = package_imports(route)
    assert imported & set(ROUTES) == set(), f"{route} imports another route"
    assert imported <= ROUTE_IMPORTS, f"{route} imports {sorted(imported - ROUTE_IMPORTS)}"


def test_the_command_line_reaches_the_compared_routes_through_invariants():
    imported = package_imports("cli")
    assert "invariants" in imported
    assert imported & {"linear", "oracle"} == set()


def test_the_routes_share_their_primitives_through_model():
    defined = {
        node.name
        for node in _tree("model").body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert set(SHARED) <= defined
    taken = set()
    for route in ROUTES:
        for node in ast.walk(_tree(route)):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "model":
                taken.update(alias.name for alias in node.names)
    assert set(SHARED) <= taken


def test_package_imports_reads_every_import_form(tmp_path, monkeypatch):
    source = (
        "from typing import TYPE_CHECKING\n"
        "import numpy\n"
        "from . import model, errors\n"
        "from .oracle import Sector\n"
        "import majorana1d.susy\n"
        "from majorana1d.linear import spinor\n"
        "if TYPE_CHECKING:\n"
        "    from .evolution import PdeRun\n"
        "def late():\n"
        "    from majorana1d import invariants\n"
    )
    (tmp_path / "probe.py").write_text(source)
    monkeypatch.setitem(globals(), "PACKAGE", tmp_path)
    assert package_imports("probe") == {
        "model", "errors", "oracle", "susy", "linear", "evolution", "invariants"
    }
