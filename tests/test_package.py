"""The package's public names and its stdlib-only runtime."""

import ast
import pathlib
import sys

import eulerian_kit

PACKAGE_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "eulerian_kit"


def test_every_public_name_resolves():
    missing = [name for name in eulerian_kit.__all__ if not hasattr(eulerian_kit, name)]
    assert missing == []


def _imported_modules(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    sources = sorted(PACKAGE_DIR.glob("*.py"))
    assert sources
    outside = {
        (path.name, module)
        for path in sources
        for module in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if module.split(".")[0] not in sys.stdlib_module_names  # holds __future__
    }
    assert outside == set()
