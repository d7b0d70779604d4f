"""The engine imports nothing outside the standard library, and its exports exist."""

import ast
import importlib
import sys
from pathlib import Path

import jordan_voa

PACKAGE_DIR = Path(jordan_voa.__file__).parent


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_engine_imports_only_the_standard_library():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert len(modules) >= 9
    outside = [
        (path.name, name)
        for path in modules
        for name in _absolute_imports(path)
        if name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside


def test_every_exported_name_resolves():
    unresolved = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        module = importlib.import_module(f"jordan_voa.{path.stem}")
        unresolved += [
            (path.stem, name)
            for name in getattr(module, "__all__", ())
            if not hasattr(module, name)
        ]
    assert not unresolved
