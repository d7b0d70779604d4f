"""The engine imports nothing outside the standard library, and its exports exist."""

import ast
import importlib
import os
import subprocess
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


def test_importing_the_engine_and_its_cli_loads_no_heavy_stdlib_module():
    """Start-up is the import: dataclasses would pull in inspect, ast, dis and tokenize."""
    code = ("import sys, jordan_voa, jordan_voa.cli; "
            "print(*sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out.split() == []
