"""A catalogue of planted faults, each with the checks of the battery that must catch it.

Each fault is a faulty copy of one function of the engine.  Its code is put
into the original's __code__ (for the lru_cached _pair_bracket, the code of
the function it wraps), so every module that imported the function by name
runs the fault too.  That reaches both places a pair bracket is cached:
_pair_bracket's memo, which the action, bracket_r and check 1's sampled
triples read, and the table of checks 1 and 3 (suite._int_bracket_table),
which calls the wrapped closed form itself, uncached, as
liealg._closed_pair_bracket.  The battery runs at a small scale (d = 2,
max_degree 2, 200 sampled triples: 0.2 to 0.4 s a fault), or at the
default scale for the faults in AT_DEFAULT_SCALE, which the small battery
misses.
A faulty copy's code runs in the original's module and calls that module's
names; they are imported here as well, so the copies read as plain code.
run_check empties the cached brackets and images before each check
(_pair_bracket's lru_cache, fock's memo, and its id tables with their
images), so no check reads what another cached; the fixture clears them
also before and after each fault, so none is left to a test that runs
outside the battery.
"""

import pytest

from jordan_voa import fock, liealg, scalar, singular, virops
from jordan_voa.fock import (
    _CENSUS, _DEGREES, _EMPTY, _GENS, _HEADS, _IMAGES, _INSERTS, _INTERN_LOCK, _NEEDS, _TAILS,
    Weight, _add, _census, _gen_id, _insert_id, _slot, act_ids, memo,
)
from jordan_voa.liealg import (
    Generator, _contraction, _normal_order, _pair_bracket, _partner_modes,
)
from jordan_voa.scalar import ONE, Scalar
from jordan_voa.suite import SuiteConfig, run_paper_suite
from jordan_voa.virops import (
    _id_form, _mode_sum_ids, _multiple, _on_ids, _recursion_image,
    _vertex_operator, binom,
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
    bit = 1 << _slot(head.i, head.m)
    return tail | bit | (tail & bit) << 1


def _needs_asking_one_copy_of_a_diagonal_mode(gen):
    i, j, m, n = gen
    if not (m and n):
        return -1
    need = 0
    for k, x in ((i, m), (j, n)):
        if x > 0:
            need |= 1 << _slot(k, -x)
    return need


def _insert_id_consing_above_the_head(gid, mid):
    inserts = _INSERTS[gid]
    found = inserts.get(mid)
    if found is None:
        gen = _GENS[gid]
        with _INTERN_LOCK:
            found = inserts.get(mid)
            if found is None:
                found = len(_HEADS)
                _HEADS.append(gid)
                _TAILS.append(mid)
                _CENSUS.append(_census(_CENSUS[mid], gen))
                _DEGREES.append(_DEGREES[mid] - gen.m - gen.n)
                inserts[mid] = found
    return found


def _act_id_dropping_its_constant(gid, mid):
    need = _NEEDS[gid]
    if not need:
        return ((_insert_id(gid, mid), 1),)
    if _CENSUS[mid] & need != need:
        return _EMPTY
    images = _IMAGES[gid]
    cached = images.get(mid)
    if cached is not None:
        return cached
    rest = _TAILS[mid]
    result = {}
    if rest is not None:
        head = _HEADS[mid]
        terms, const = _pair_bracket(_GENS[gid], _GENS[head])
        for g2, c2 in terms:
            for m2, s2 in _act_id(_gen_id(g2), rest):
                _add(result, m2, s2 * c2)
        for m2, s2 in _act_id(gid, rest):
            _add(result, _insert_id(head, m2), s2)
    image = images[mid] = tuple(sorted(result.items()) if len(result) > 1 else result.items())
    return image


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


def _expected_singular_pairs_ignoring_r(r0, max_degree):
    out = {}
    for p in range(1, max_degree + 1):
        for nu in range(1, max_degree + 1):
            degree = nu * p * (p + 1)
            if degree > max_degree:
                continue
            lam = Weight({(1, -q): 2 * nu for q in range(1, p + 1)})
            out[lam] = (p, nu)
    return out


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
            mat[r] = [exact_div(x, prev) if x else x for x in row]
        pivots.append(col)
        prev = piv
    return mat, pivots, sign


def _vertex_ids_reading_the_degree_one_too_low(i, j, m, n, l, vec):
    depth = _DEGREES[next(iter(vec))] - 1
    ops = memo(("Vop", i, j, m, n, l, depth), _vertex_operator, i, j, m, n, l, depth)
    return act_ids(ops, vec)


def _vertex_operator_keeping_its_generators(i, j, m, n, l, depth):
    center = l + m + n + 1
    sign = 1 if (m + n) % 2 == 0 else -1
    return tuple(
        (_normal_order((i, center - k), (j, k))[0],
         sign * binom(l + n - k, -m - 1) * binom(k - n - 1, -n - 1))
        for k in range(center - depth + 1, depth)
    )


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
        # only check 1's sampled part runs this pre-test; the table finds its pairs by mode.
        # _contract is liealg's, so the copy runs in liealg's globals and reads its _partner_modes
        liealg._contract, _contract_reading_only_the_first_slot,
        {"bracket-antisymmetry-jacobi"}),
    "census-counts-only-the-first-slot": (
        fock._census, _census_counting_only_the_first_slot,
        {"action-respects-bracket", "lowering-recursions", "vertex-mode-binomial-formula",
         "diagonal-raising-eigenvalue", "determinant-power-singular", "singular-kernel-sweep",
         "determinant-commutation", "virasoro-central-charge", "griess-jordan-isomorphism"}),
    "needs-ask-one-copy-of-a-diagonal-mode": (
        # grading only saves work: the recursion it lets through stays exact, so no check sees
        # it; tests/test_fock.py's mask test against a count of the modes does
        fock._needs, _needs_asking_one_copy_of_a_diagonal_mode, set()),
    "act-id-drops-its-constant": (
        fock._act_id, _act_id_dropping_its_constant,
        {"action-respects-bracket", "diagonal-raising-eigenvalue", "determinant-power-singular",
         "singular-kernel-sweep", "determinant-commutation", "virasoro-central-charge"}),
    "insert-conses-above-the-head": (
        # one monomial takes an id per order of its factors, read back unsorted
        fock._insert_id, _insert_id_consing_above_the_head,
        {"action-respects-bracket", "determinant-power-singular", "determinant-commutation",
         "virasoro-central-charge"}),
    "generic-minor-returns-one": (
        singular._generic_minor, _generic_minor_returning_one, {"singular-kernel-sweep"}),
    "minor-digits-read-unsigned": (
        singular._balanced_digits, _balanced_digits_read_unsigned, {"singular-kernel-sweep"}),
    "search-generators-drop-v11-11": (
        singular._search_generators, _search_generators_dropping_v11_11,
        {"singular-kernel-sweep"}),
    "expected-pairs-ignore-r": (
        # check 9 then expects a kernel at every r; its dimension test fails where none is found
        singular.expected_singular_pairs, _expected_singular_pairs_ignoring_r,
        {"singular-kernel-sweep"}),
    "rref-ignores-its-row-swaps-in-the-sign": (
        # only the transfer determinants read the sign; the kernels use the rows alone
        scalar.fraction_free_rref, _rref_ignoring_its_row_swaps_in_the_sign,
        {"mode-transfer-determinants"}),
    "vertex-mode-reads-the-degree-one-too-low": (
        virops._vertex_ids, _vertex_ids_reading_the_degree_one_too_low,
        {"vertex-mode-binomial-formula"}),
    "vertex-operator-keeps-its-generators": (
        # act_ids then indexes the id tables with a Generator: check 5 raises, under its own name
        virops._vertex_operator, _vertex_operator_keeping_its_generators,
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
