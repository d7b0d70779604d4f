"""A catalogue of planted faults, each with the checks of the battery that must catch it.

Each fault is a faulty copy of one function of the engine.  Its code is put
into the original's __code__ (for the lru_cached _pair_bracket, the code of
the function it wraps), so every module that imported the function by name
runs the fault too, and the battery runs at a small scale (d = 2,
max_degree 2, 200 sampled triples: 0.2 to 0.4 s a fault), or at the default
scale for the faults in AT_DEFAULT_SCALE, which the small battery misses.
A faulty copy's code runs in the original's module and calls that module's
names; they are imported here as well, so the copies read as plain code.
run_check empties the cached brackets and images before each check
(_pair_bracket's lru_cache, fock's action cache and id tables), so no check
reads what another cached; the fixture clears them also before and after
each fault, so none is left to a test that runs outside the battery.
"""

import pytest

from jordan_voa import fock, liealg, scalar, singular, suite, virops
from jordan_voa.fock import (
    _ACT_CACHE, _CENSUS, _EMPTY, _HEADS, _ID_BITS, _MONOS, _NEEDS, _TAILS, _add, _bracket_id,
    _insert_id, _slot, act_ids, memo, monomial_degree,
)
from jordan_voa.liealg import (
    Generator, _contraction, _normal_order, _partner_modes, _validate_index,
)
from jordan_voa.scalar import ONE, Scalar
from jordan_voa.suite import SuiteConfig, run_paper_suite
from jordan_voa.virops import (
    _id_form, _mode_sum_ids, _multiple, _on_ids, _recursion_image, _through_ids,
    _vertex_operator,
)

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


def _contract_reading_only_the_first_slot(g, h):
    return not {(h.i, h.m)}.isdisjoint(_partner_modes(g))


def _negation_returning_its_input(self):
    return self


def _census_counting_only_the_first_slot(tail, head):
    offset = _slot(head.i, head.m)
    if (tail >> offset) & 3 < 2:
        tail += 1 << offset
    return tail


def _act_id_dropping_its_constant(gid, mid):
    needs = _NEEDS[gid]
    if needs is None:
        return _EMPTY
    if not needs:
        return {_insert_id(gid, mid): 1}
    census = _CENSUS[mid]
    for offset, copies in needs:
        if (census >> offset) & 3 < copies:
            return _EMPTY
    key = gid << _ID_BITS | mid
    cached = _ACT_CACHE.get(key)
    if cached is not None:
        return cached
    rest = _TAILS[mid]
    if rest is None:
        result = {}
    else:
        head = _HEADS[mid]
        result = {}
        terms, const = _bracket_id(gid, head)
        for g2, c2 in terms:
            for m2, s2 in _act_id(g2, rest).items():
                _add(result, m2, s2 * c2)
        for m2, s2 in _act_id(gid, rest).items():
            _add(result, _insert_id(head, m2), s2)
    _ACT_CACHE[key] = result
    return result


def _generic_minor_returning_one(rows, ncols):
    return ONE


def _balanced_digits_read_unsigned(value, bits):
    mask = (1 << bits) - 1
    coeffs = []
    while value > 0:
        coeffs.append(value & mask)
        value >>= bits
    return Scalar(coeffs)


def _search_generators_dropping_v11_11(support):
    return sorted(Generator(1, 1, l + 1, -l) for k, l in support if k == 1 and l < -1)


def _rref_ignoring_its_row_swaps_in_the_sign(rows, ncols, exact_div):
    mat = [list(row) for row in rows]
    pivots = []
    sign = 1
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
            sign = sign
        prow = mat[rank]
        piv = prow[col]
        for r, row in enumerate(mat):
            if r == rank:
                continue
            c = row[col]
            if c:
                row = [piv * x - c * y for x, y in zip(row, prow)]
            else:
                row = [piv * x for x in row]
            if prev != 1:
                row = [exact_div(x, prev) if x else x for x in row]
            mat[r] = row
        pivots.append(col)
        prev = piv
    return mat, pivots, sign


def _vertex_mode_reading_the_degree_one_too_low(i, j, m, n, l, u, d=None):
    _validate_index(i, d)
    _validate_index(j, d)
    if i == j:
        raise ValueError("the closed vertex-mode formula needs distinct oscillator indices")
    if m >= 0 or n >= 0:
        raise ValueError("vertex modes are taken of lowering pairs (m, n < 0)")

    def image(vec):
        depth = monomial_degree(_MONOS[next(iter(vec))]) - 1
        ops = memo(("Vop", i, j, m, n, l, depth), _vertex_operator, i, j, m, n, l, depth)
        return act_ids(ops, vec)

    return _through_ids(u, image)


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
    "contract-reads-only-the-first-slot": (
        # only check 1's sampled part runs this pre-test; the table finds its pairs by mode
        suite._contract, _contract_reading_only_the_first_slot,
        {"bracket-antisymmetry-jacobi"}),
    "census-counts-only-the-first-slot": (
        fock._census, _census_counting_only_the_first_slot,
        {"action-respects-bracket", "lowering-recursions", "vertex-mode-binomial-formula",
         "diagonal-raising-eigenvalue", "determinant-power-singular", "singular-kernel-sweep",
         "determinant-commutation", "virasoro-central-charge", "griess-jordan-isomorphism"}),
    "act-id-drops-its-constant": (
        fock._act_id, _act_id_dropping_its_constant,
        {"action-respects-bracket", "diagonal-raising-eigenvalue", "determinant-power-singular",
         "singular-kernel-sweep", "determinant-commutation", "virasoro-central-charge"}),
    "generic-minor-returns-one": (
        singular._generic_minor, _generic_minor_returning_one, {"singular-kernel-sweep"}),
    "minor-digits-read-unsigned": (
        singular._balanced_digits, _balanced_digits_read_unsigned, {"singular-kernel-sweep"}),
    "search-generators-drop-v11-11": (
        singular._search_generators, _search_generators_dropping_v11_11,
        {"singular-kernel-sweep"}),
    "rref-ignores-its-row-swaps-in-the-sign": (
        # only the transfer determinants read the sign; the kernels use the rows alone
        scalar.fraction_free_rref, _rref_ignoring_its_row_swaps_in_the_sign,
        {"mode-transfer-determinants"}),
    "vertex-mode-reads-the-degree-one-too-low": (
        virops.vertex_mode, _vertex_mode_reading_the_degree_one_too_low,
        {"vertex-mode-binomial-formula"}),
    "scalar-negation-returns-its-input": (
        Scalar.__neg__, _negation_returning_its_input, {"singular-kernel-sweep"}),
}

AT_DEFAULT_SCALE = {  # faults the small battery misses
    "minor-digits-read-unsigned", "scalar-negation-returns-its-input"}


@pytest.fixture
def plant():
    """plant(function, faulty) runs faulty's code as function until the test ends."""
    planted = []

    def put(function, faulty):
        planted.append((function, function.__code__))
        fock.clear_action_cache()
        function.__code__ = faulty.__code__

    try:
        yield put
    finally:
        for function, code in planted:
            function.__code__ = code
        fock.clear_action_cache()


def _failing_checks(config=SMALL) -> set:
    return {result.name for result in run_paper_suite(config) if not result.passed}


@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_planted_fault_fails_its_checks(name, plant):
    function, faulty, checks = FAULTS[name]
    plant(function, faulty)
    assert _failing_checks(SuiteConfig() if name in AT_DEFAULT_SCALE else SMALL) == checks


@pytest.mark.parametrize("name", sorted(AT_DEFAULT_SCALE))
def test_default_scale_faults_pass_the_small_battery(name, plant):
    function, faulty, _ = FAULTS[name]
    plant(function, faulty)
    assert _failing_checks() == set()


def test_the_battery_passes_once_the_faults_are_removed():
    """Runs after the catalogue: no fault, cached bracket or image is left behind."""
    assert _failing_checks() == set()
