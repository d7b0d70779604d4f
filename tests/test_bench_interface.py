"""What the benchmark under bench/ reads from the engine still exists.

`python -m pytest bench` is not part of the default test run, so a refactor
could break the traced benchmark unseen.  These tests read the names the
benchmark uses from its source files (parsed, not imported or run) and
check each against the engine.
"""

import ast
import importlib
from pathlib import Path

from jordan_voa import cli, fock, liealg, singular, suite
from jordan_voa.scalar import Scalar

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _literal(filename: str, name: str):
    """The value of the top-level literal assignment `name = ...` in a bench file."""
    tree = ast.parse((BENCH / filename).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == name for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"{filename} has no literal {name}")


def test_traced_functions_resolve():
    for table in ("TIMED", "COUNTED"):
        for module, attr in _literal("tracing.py", table).values():
            assert callable(getattr(importlib.import_module(f"jordan_voa.{module}"), attr))
    for table in ("SCALAR_TIMED", "SCALAR_COUNTED"):
        for attrs in _literal("tracing.py", table).values():
            assert all(attr in vars(Scalar) for attr in attrs)


def test_cache_readings_resolve():
    info = liealg._pair_bracket.cache_info()
    assert info.hits >= 0 and info.misses >= 0
    assert isinstance(singular._MATRIX_CACHE, dict)
    assert isinstance(fock._ACT_CACHE, dict)


def test_per_check_timings_resolve():
    assert {"1", "3", "5", "10"} <= {check_id for check_id, _ in suite.ALL_CHECKS}


def test_sweep_argv_parses():
    args = cli.build_parser().parse_args(_literal("workload.py", "SWEEP_ARGV"))
    assert args.command == "singular-sweep"
    assert 0 <= args.rmax - args.rmin <= cli.SWEEP_MAX_R_SPAN
