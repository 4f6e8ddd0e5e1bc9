"""Every name a module of ``negmtl`` imports is used in that module.

An AST scan stands in for a linter: an unused import survives every
other test and makes a module look coupled to code it never calls.
"""

import ast
from pathlib import Path

import pytest

import negmtl

PACKAGE = Path(negmtl.__file__).parent

# Bound on purpose though never called: bench/tracing.py wraps
# cli.negation_tag to attribute time to tagging, so the name must stay.
KEPT = {("cli", "negation_tag")}


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name each import binds in the module, with its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    # attribute chains start at a Name, so `np.zeros` counts as a use of np
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unused = [
        f"{path.name}:{line} imports {name!r} and never uses it"
        for name, line in sorted(imported_names(tree).items(), key=lambda item: item[1])
        if name not in used_names(tree) and (path.stem, name) not in KEPT
    ]
    assert not unused, "\n".join(unused)


def test_kept_names_are_still_imported():
    for module, name in KEPT:
        tree = ast.parse((PACKAGE / f"{module}.py").read_text())
        assert name in imported_names(tree), f"{module}.{name} is no longer imported; drop it from KEPT"


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nimport numpy as np\nfrom x import (a, b as c)\nnp.zeros(a)\n")
    assert set(imported_names(tree)) - used_names(tree) == {"os", "c"}
