"""A catalogue of planted faults, each with the checks of the battery that must catch it.

Each fault is a faulty copy of one function of the engine.  Its code is put
into the original's __code__ (for the lru_cached _pair_bracket, the code of
the function it wraps), so every module that imported the function by name
runs the fault too, and the battery runs at a small scale (d = 2,
max_degree 2, 200 sampled triples: 0.2 to 0.4 s a fault).  A faulty copy's
code runs in the original's module and calls that module's names; they are
imported here as well, so the copies read as plain code.  Cached brackets
and images outlive a check (_pair_bracket's lru_cache, fock's action cache
and id tables), so the fixture clears them before and after each fault.
"""

import pytest

from jordan_voa import fock, liealg, singular, virops
from jordan_voa.liealg import Generator, _contraction, _normal_order
from jordan_voa.suite import SuiteConfig, run_paper_suite
from jordan_voa.virops import _id_form, _mode_sum_ids, _multiple, _on_ids, _recursion_image

SMALL = SuiteConfig(d=2, max_degree=2, samples=200)


def _multiple_without_its_factor_2(m, n):
    if m == -1:
        return 1 if n == -1 else _multiple(n, -1)
    return (-m - 1) * _multiple(m + 1, n)


def _recursion_ids_swapping_only_the_modes(i, j, m, n, l, vec):
    if m == -1 and n < -1:
        m, n = n, m
    if m == -1:
        return _mode_sum_ids(((i, j),), l - 1, vec)
    return _on_ids(("V", i, j, m, n, l), _recursion_image, vec, i, j, m, n, l)


def _mode_sum_losing_its_top_summand(pairs, m, depth):
    lo, hi = m - depth + 1, depth - 2
    summands = []
    for i, j in pairs:
        if i == j and m == 0:
            summands.append((1, i, i, 0, 0))
            summands += [(2, i, i, -h, h) for h in range(max(lo, 1), hi + 1)]
        else:
            summands += [(1, i, j, m - h, h) for h in range(lo, hi + 1)]
    return _id_form(summands)


def _normal_order_negating_its_constant(x, y):
    if x <= y:
        return Generator(x[0], y[0], x[1], y[1]), 0
    return Generator(y[0], x[0], y[1], x[1]), -_contraction(x, y)


def _contraction_ignoring_the_index(x, y):
    return x[1] if x[1] + y[1] == 0 else 0


def _pair_bracket_negating_its_constant(g, h):
    a, b, c, d = (g.i, g.m), (g.j, g.n), (h.i, h.m), (h.j, h.n)
    acc: dict = {}
    const = 0
    for scalar, x, y in ((_contraction(b, c), a, d), (_contraction(b, d), a, c),
                         (_contraction(a, c), d, b), (_contraction(a, d), c, b)):
        if scalar:
            gen, shift = _normal_order(x, y)
            acc[gen] = acc.get(gen, 0) + scalar
            const -= scalar * shift
    terms = tuple((gen, coeff) for gen, coeff in acc.items() if coeff)
    return (terms, const) if terms or const else ((), 0)


def _pair_bracket_negating_its_constant_at_a_wide_mode(g, h):
    a, b, c, d = (g.i, g.m), (g.j, g.n), (h.i, h.m), (h.j, h.n)
    acc: dict = {}
    const = 0
    for scalar, x, y in ((_contraction(b, c), a, d), (_contraction(b, d), a, c),
                         (_contraction(a, c), d, b), (_contraction(a, d), c, b)):
        if scalar:
            gen, shift = _normal_order(x, y)
            acc[gen] = acc.get(gen, 0) + scalar
            const += scalar * shift
    if max(abs(g.m), abs(g.n), abs(h.m), abs(h.n)) >= 5:
        const = -const
    terms = tuple((gen, coeff) for gen, coeff in acc.items() if coeff)
    return (terms, const) if terms or const else ((), 0)


FAULTS = {  # name -> (the function, its faulty copy, the checks that must fail)
    "multiple-drops-its-factor-2": (
        virops._multiple, _multiple_without_its_factor_2,
        {"vertex-mode-binomial-formula"}),
    "slot-swap-keeps-the-indices": (
        virops._recursion_ids, _recursion_ids_swapping_only_the_modes,
        {"vertex-mode-binomial-formula"}),
    "mode-sum-window-loses-its-top-summand": (
        virops._mode_sum, _mode_sum_losing_its_top_summand,
        {"lowering-recursions", "vertex-mode-binomial-formula", "virasoro-central-charge",
         "griess-jordan-isomorphism"}),
    "normal-order-negates-its-constant": (
        liealg._normal_order, _normal_order_negating_its_constant,
        {"diagonal-pair-bracket-closed-form", "diagonal-raising-eigenvalue",
         "determinant-power-singular", "determinant-commutation", "virasoro-central-charge"}),
    "pair-bracket-negates-its-constant": (
        liealg._pair_bracket.__wrapped__, _pair_bracket_negating_its_constant,
        {"diagonal-pair-bracket-closed-form", "diagonal-raising-eigenvalue",
         "determinant-power-singular", "determinant-commutation", "virasoro-central-charge"}),
    "pair-bracket-negates-its-constant-at-a-wide-mode": (
        liealg._pair_bracket.__wrapped__, _pair_bracket_negating_its_constant_at_a_wide_mode,
        {"diagonal-pair-bracket-closed-form"}),
    "contraction-ignores-the-index": (
        liealg._contraction, _contraction_ignoring_the_index,
        {"bracket-antisymmetry-jacobi", "action-respects-bracket", "lowering-recursions",
         "vertex-mode-binomial-formula", "virasoro-central-charge",
         "griess-jordan-isomorphism"}),
}


def _clear_caches():
    fock.clear_action_cache()
    liealg._pair_bracket.cache_clear()
    singular._MATRIX_CACHE.clear()


@pytest.fixture
def plant():
    """plant(function, faulty) runs faulty's code as function until the test ends."""
    planted = []

    def put(function, faulty):
        planted.append((function, function.__code__))
        _clear_caches()
        function.__code__ = faulty.__code__

    try:
        yield put
    finally:
        for function, code in planted:
            function.__code__ = code
        _clear_caches()


def _failing_checks() -> set:
    return {result.name for result in run_paper_suite(SMALL) if not result.passed}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_planted_fault_fails_its_checks(name, plant):
    function, faulty, checks = FAULTS[name]
    plant(function, faulty)
    assert _failing_checks() == checks


def test_the_battery_passes_once_the_faults_are_removed():
    """Runs after the catalogue: no fault, cached bracket or image is left behind."""
    assert _failing_checks() == set()
