"""The package's modules import one another at module level only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quasidegrees"


def imported_package_modules(node) -> list[str]:
    """Package modules that an import statement names: relative imports
    and imports of ``quasidegrees``; [] for any other statement."""
    if isinstance(node, ast.ImportFrom):
        if node.level or (node.module or "").split(".")[0] == "quasidegrees":
            return ["." * node.level + (node.module or "")]
    elif isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "quasidegrees"]
    return []


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_function_imports_a_package_module(path):
    tree = ast.parse(path.read_text(), str(path))
    local = [
        f"{fn.name} (line {node.lineno}) imports {module}"
        for fn in ast.walk(tree)
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        for module in imported_package_modules(node)
    ]
    assert local == []


def test_qdeg_does_not_import_homology():
    # homology builds and checks presentations on top of qdeg; qdeg only
    # reads a presentation's fields
    tree = ast.parse((PACKAGE / "qdeg.py").read_text())
    imported = [m for node in ast.walk(tree) for m in imported_package_modules(node)]
    assert imported and not any(m.endswith("homology") for m in imported)
