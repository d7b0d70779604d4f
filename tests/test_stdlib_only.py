"""The engine imports nothing outside the standard library, and its exports exist."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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


def _loaded_after(statement: str, unrun: bool = False) -> list:
    """The modules whose code a bare interpreter (python -S) has run after statement.

    A lazy module in sys.modules whose code has not run yet counts only with
    unrun: until its first attribute access its type is a subclass of ModuleType.
    """
    code = (f"import sys; {statement}; print(*sorted(name for name, m in sys.modules.items() "
            f"if {unrun} or type(m) is type(sys)))")
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    return subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=60).stdout.split()


def test_importing_the_engine_and_its_cli_loads_no_heavy_stdlib_module():
    """Start-up is the import: dataclasses would pull in inspect, ast, dis and tokenize.

    The battery (suite), the Griess table and random load only for the
    subcommands that run them, and the battery's process pool only when it runs.
    """
    heavy = {"dataclasses", "typing", "inspect", "jordan_voa.suite", "jordan_voa.griess", "random",
             "multiprocessing", "concurrent.futures"}
    loaded = _loaded_after("import jordan_voa, jordan_voa.cli")
    assert "jordan_voa.cli" in loaded and heavy & set(loaded) == set()


def test_the_battery_module_loads_no_process_pool():
    """verify-det and virasoro-check import suite too; only run_paper_suite loads the pool."""
    loaded = set(_loaded_after("import jordan_voa; jordan_voa.suite.__name__"))
    assert "jordan_voa.suite" in loaded
    assert {"multiprocessing", "concurrent.futures"} & loaded == set()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the battery forks its workers")
def test_the_pooled_paper_suite_loads_no_executor_machinery():
    """Two forked workers run the battery; no queue, logging or executor module is loaded."""
    loaded = set(_loaded_after(
        "from jordan_voa import cli, suite; suite._usable_cpus = lambda: 2; sys.stdout = sys.stderr; "
        "code = cli.main(['paper-suite', '--d', '2', '--max-degree', '2', '--samples', '0']); "
        "sys.stdout = sys.__stdout__; assert code == 0"))
    assert "multiprocessing.popen_fork" in loaded  # the workers were forked
    pool = {"concurrent.futures", "multiprocessing.connection", "multiprocessing.queues", "logging"}
    assert pool & loaded == set()


def test_importing_the_package_root_loads_none_of_its_modules():
    """Each engine module is in sys.modules, unrun until its first attribute access."""
    assert [name for name in _loaded_after("import jordan_voa")
            if name.startswith("jordan_voa.")] == []
    engine = {f"jordan_voa.{module}" for module in jordan_voa._EXPORTS}
    assert engine <= set(_loaded_after("import jordan_voa", unrun=True))
    present = _loaded_after("import jordan_voa; jordan_voa.suite.__name__")
    assert {"jordan_voa.suite", "jordan_voa.griess", "random"} <= set(present)
    config = _loaded_after("import jordan_voa; jordan_voa.SuiteConfig")
    assert "jordan_voa.scalar" in config and "jordan_voa.suite" not in config


def _readme_root_names() -> list:
    """The names README's "Python API" section lists as the package root's exports."""
    readme = (PACKAGE_DIR.parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Python API", 1)[1].split("\n\n", 2)[1]
    return [name for name in re.findall(r"`(\w+)`", section) if name != "jordan_voa"]


def test_every_readme_root_name_is_its_owners_object():
    names = _readme_root_names()
    assert len(names) == 37 and set(names) == set(jordan_voa.__all__)
    listed = dir(jordan_voa)
    assert all(name in listed for name in names)
    owners = {name: getattr(jordan_voa, module)
              for module, exported in jordan_voa._EXPORTS.items() for name in exported}
    assert [name for name in names
            if getattr(jordan_voa, name) is not getattr(owners[name], name)] == []
    assert jordan_voa.run_paper_suite is jordan_voa.suite.run_paper_suite
    from jordan_voa import suite

    assert suite is jordan_voa.suite is sys.modules["jordan_voa.suite"]
