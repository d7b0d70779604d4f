"""Acceptance gate: every certification criterion at its stated scale.

All checks are exact (rational or polynomial equality, tolerance zero).  The
full battery runs once per session through the same entry point the
command-line `paper-suite` uses; each criterion then asserts its own result
and prints a pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`
to see the per-criterion lines and timings.
"""

import json
import random
from pathlib import Path

import pytest

from jordan_voa.liealg import UNIT, LieElement, bracket_r, _pair_bracket
from jordan_voa.scalar import R
from jordan_voa.suite import SuiteConfig, _int_bracket_table, canonical_generators, run_paper_suite


GOLDEN = Path(__file__).resolve().parents[1] / "bench" / "golden.json"


@pytest.fixture(scope="module")
def suite_results():
    results = run_paper_suite(SuiteConfig())
    return {res.name: res for res in results}


def _assert_criterion(suite_results, number, name):
    res = suite_results[name]
    verdict = "PASS" if res.passed else "FAIL"
    print(f"criterion {number} ({name}): {verdict} [{res.seconds:.1f}s] {res.details}")
    assert res.passed, f"criterion {number} failed: {res.failures[:5]}"
    return res


def test_criterion_01_lie_axioms(suite_results):
    """Antisymmetry and Jacobi, exhaustive within the bound plus sampled."""
    res = _assert_criterion(suite_results, 1, "bracket-antisymmetry-jacobi")
    assert "2027795 exhaustive triples" in res.details
    assert "10000 sampled" in res.details


def test_criterion_02_diagonal_pair_closed_form(suite_results):
    """The diagonal-pair bracket expansion, symbolically in r, 1<=m<=n<=5."""
    _assert_criterion(suite_results, 2, "diagonal-pair-bracket-closed-form")


def test_criterion_03_representation_property(suite_results):
    """act respects the deformed bracket on all bounded generator pairs/states."""
    res = _assert_criterion(suite_results, 3, "action-respects-bracket")
    assert "602946" in res.details


def test_criterion_04_lowering_recursions(suite_results):
    """Mode recursions for lowering pairs, modes in [-4,-1], symbolic in r."""
    _assert_criterion(suite_results, 4, "lowering-recursions")


def test_criterion_05_vertex_mode_formula(suite_results):
    """Closed binomial vertex modes equal the commutator-recursion oracle."""
    _assert_criterion(suite_results, 5, "vertex-mode-binomial-formula")


def test_criterion_06_transfer_determinants(suite_results):
    """Binomial transfer matrices are invertible for M <= 6, |L| <= 3."""
    _assert_criterion(suite_results, 6, "mode-transfer-determinants")


def test_criterion_07_diagonal_raising_eigenvalue(suite_results):
    """v(m,m) v(-m,-m)^nu |0> = 2 m^2 nu (r+2nu-2) v(-m,-m)^(nu-1) |0>."""
    _assert_criterion(suite_results, 7, "diagonal-raising-eigenvalue")


def test_criterion_08_determinant_power_singular(suite_results):
    """Determinant powers certified singular at r = 1-2nu+p, full index set."""
    _assert_criterion(suite_results, 8, "determinant-power-singular")


def test_criterion_09_singular_kernel_sweep(suite_results):
    """Kernel dimensions across every restricted weight of degree <= 6."""
    _assert_criterion(suite_results, 9, "singular-kernel-sweep")
    _assert_criterion(suite_results, "9-support", "determinant-commutation")


def test_criterion_10_virasoro_central_charge(suite_results):
    """The Virasoro relation holds with central charge d*r, d in {2,3}."""
    _assert_criterion(suite_results, 10, "virasoro-central-charge")


def test_criterion_11_griess_jordan(suite_results):
    """Degree-2 algebra is the Jordan algebra of symmetric matrices."""
    res = _assert_criterion(suite_results, 11, "griess-jordan-isomorphism")
    assert "d=2" in res.details and "d=3" in res.details


def test_criterion_12_aggregate(suite_results, capsys):
    """The battery aggregates every criterion and the CLI wiring exits 0."""
    total = sum(res.seconds for res in suite_results.values())
    failed = [name for name, res in suite_results.items() if not res.passed]
    assert not failed
    from jordan_voa import cli

    code = cli.main(["paper-suite", "--d", "2", "--max-degree", "2",
                     "--samples", "10"])
    capsys.readouterr()
    assert code == 0
    print(f"criterion 12 (aggregate): {len(suite_results)} checks, "
          f"{total:.1f}s total, failed: none")


def test_summary_lines_are_the_certify_goldens(suite_results):
    """Every summary line of the default battery is byte-identical to the goldens."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["certify"]
    assert [res.summary_line() for res in suite_results.values()] == golden


def test_fast_bracket_table_matches_public_api():
    """The integer bracket table behind criteria 1 and 3 is the public bracket."""
    rng = random.Random(5)
    gens = canonical_generators(3, 3)
    for _ in range(300):
        x, y = rng.choice(gens), rng.choice(gens)
        pairs = dict(_pair_bracket(x, y))
        elem = bracket_r(x, y)
        assert LieElement(pairs) == elem
        assert all(type(c) is int for g, c in pairs.items() if g != UNIT)
        assert 0 not in elem.coefficient(UNIT).coeffs
    gens = canonical_generators(2, 2)
    pairs = [(x, y) for x in gens for y in gens]
    for (x, y), (terms, const) in zip(pairs, _int_bracket_table(gens)):
        elem = bracket_r(x, y)
        assert {gens[t]: c for t, c in terms} == {
            g: c.constant_value() for g, c in elem.terms.items() if g != UNIT
        }
        assert elem.coefficient(UNIT) == R * const
