"""Mode-sum operators, vertex modes, and Virasoro probes."""

import itertools
from fractions import Fraction

import pytest

from jordan_voa import fock, suite, virops
from jordan_voa.fock import (
    State,
    act,
    basis_monomials,
    clear_action_cache,
    degree_of,
    monomial,
    weight_space_basis,
    weights,
)
from jordan_voa.liealg import Generator, LieElement, canonicalize
from jordan_voa.scalar import R, add_into
from jordan_voa.virops import (
    _central,
    _multiple,
    _probe_ids,
    _recursion_ids,
    _vertex_ids,
    act_L,
    binom,
    binomial_matrix_det,
    vertex_mode,
    vertex_mode_by_recursion,
    virasoro_bracket_probe,
)

VAC = State.vacuum()


def gen_elem(i, j, m, n):
    return canonicalize(i, j, m, n)


def lowering_state(*quads):
    return State.from_monomial(monomial([Generator(*q) for q in quads]))


def test_pair_creation_mode():
    # v[i,j](-1,-1)|0> = 2 L[i,j](-2)|0>
    for i, j in ((1, 2), (1, 1), (2, 2)):
        assert act_L(i, j, -2, VAC).scale(2) == act(gen_elem(i, j, -1, -1), VAC)


def test_translation_mode_kills_vacuum():
    assert act_L(1, 2, -1, VAC).is_zero()
    assert act_L(1, 1, -1, VAC).is_zero()


def test_diagonal_zero_mode_kills_vacuum():
    assert act_L(1, 1, 0, VAC).is_zero()


def test_zero_mode_measures_degree_on_restricted_states():
    u = lowering_state((1, 1, -2, -1))
    assert act_L(1, 1, 0, u) == u.scale(3)


def _wide_mode_sum(i, j, m, u, pad):
    """L[i,j](m) u summed term by term over a window pad wider on each side."""
    depth = degree_of(u)
    if i == j and m == 0:
        out = act(gen_elem(i, i, 0, 0), u).scale(Fraction(1, 2))
        for h in range(1, depth + pad + 1):
            out = out + act(gen_elem(i, i, -h, h), u)
        return out
    out = State.zero()
    for h in range(m - depth - pad, depth + pad + 1):
        out = out + act(gen_elem(i, j, m - h, h), u).scale(Fraction(1, 2))
    return out


def _wide_vertex_mode(i, j, m, n, l, u, pad):
    """The closed binomial vertex mode summed over a window pad wider on each side."""
    depth = degree_of(u)
    center = l + m + n + 1
    sign = -1 if (m + n) % 2 else 1
    out = State.zero()
    for k in range(center - depth - pad, depth + pad + 1):
        weight = sign * binom(l + n - k, -m - 1) * binom(k - n - 1, -n - 1)
        out = out + act(gen_elem(i, j, center - k, k), u).scale(weight)
    return out


def test_window_independence():
    """The degree-derived window already holds every summand that acts nontrivially."""
    states = [
        VAC,
        lowering_state((1, 1, -1, -1)),
        lowering_state((1, 2, -2, -1), (1, 1, -1, -1)),
        lowering_state((1, 2, -2, -1), (2, 2, -1, -1)),  # degree 5
    ]
    for u in states:
        for m in (-3, -1, 0, 2):
            assert act_L(1, 2, m, u) == _wide_mode_sum(1, 2, m, u, pad=4)
            assert act_L(1, 1, m, u) == _wide_mode_sum(1, 1, m, u, pad=4)
    for u in states[1:]:
        for l in (-2, 1, 3):
            assert vertex_mode(1, 2, -2, -1, l, u) == _wide_vertex_mode(1, 2, -2, -1, l, u, pad=6)


def test_window_ends_act_as_zero():
    """The summands dropped at both ends of the window act as zero on every basis monomial.

    For degree D the full range would be h in [m - D, D]; the window keeps
    [m - D + 1, D - 1].  The closed vertex-mode sum has the same form with
    centre l + m + n + 1 and i != j, so the off-diagonal cases cover it.
    """
    monos = [()] + [mono for lam in weights(5, 2) for mono in weight_space_basis(lam, d=2)]
    for mono in monos:
        u = State.from_monomial(mono)
        depth = degree_of(u)
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
            for m in range(-9, 5):
                ends = (depth,) if i == j and m == 0 else (m - depth, depth)
                for h in ends:
                    assert act(gen_elem(i, j, m - h, h), u).is_zero(), (i, j, m, h, mono)


def _reference_id_form(summands) -> dict:
    """The sum of weight * v[i,j](m,n) over (weight, (i, j, m, n)) summands by the general
    route: each summand canonicalized to a LieElement, the terms summed with Scalar
    coefficients, and the sum turned into fock's id form, as a dict."""
    terms: dict = {}
    for weight, quad in summands:
        for key, coeff in canonicalize(*quad).terms.items():
            add_into(terms, key, coeff * weight)
    return dict(fock._op_ids(LieElement(terms)))


def _reference_mode_sum(pairs, m, depth) -> dict:
    """2 L(m) summed over the index pairs, truncated for degree depth, by the general route."""
    lo, hi = m - depth + 1, depth - 1
    summands = []
    for i, j in pairs:
        if i == j and m == 0:
            summands.append((1, (i, i, 0, 0)))
            summands += [(2, (i, i, -h, h)) for h in range(max(lo, 1), hi + 1)]
        else:
            summands += [(1, (i, j, m - h, h)) for h in range(lo, hi + 1)]
    return _reference_id_form(summands)


def _reference_vertex_operator(i, j, m, n, l, depth) -> dict:
    """The closed binomial vertex mode, truncated for degree depth, by the general route."""
    center = l + m + n + 1
    sign = -1 if (m + n) % 2 else 1
    summands = []
    for k in range(center - depth + 1, depth):
        weight = sign * binom(l + n - k, -m - 1) * binom(k - n - 1, -n - 1)
        if weight:
            summands.append((weight, (i, j, center - k, k)))
    return _reference_id_form(summands)


@pytest.mark.parametrize("check", [
    suite.check_lowering_recursions,
    suite.check_vertex_mode_formula,
    suite.check_virasoro_central_charge,
    suite.check_griess_jordan,
])
def test_the_battery_builds_each_operator_as_the_general_route_does(check):
    """Every mode sum and vertex operator that checks 4, 5, 10 and 11 build at the default scale
    equals its canonicalize-and-sum reference, and neither has a UNIT term: no summand has a
    normal-ordering constant."""
    clear_action_cache()
    try:
        assert check(suite.SuiteConfig()).passed
        built = {key: ops for key, ops in fock._ACT_CACHE.items()
                 if isinstance(key, tuple) and key[0] in ("Lop", "Vop")}
        assert built
        for (tag, *args), ops in built.items():
            reference = _reference_mode_sum if tag == "Lop" else _reference_vertex_operator
            want = reference(*args)
            assert None not in want and all(type(c) is int for c in want.values()), (tag, args)
            assert dict(ops) == want and len(ops) == len(want), (tag, args)
    finally:
        clear_action_cache()


def test_mode_operators_check_indices_against_d():
    """An index beyond d is rejected even when the truncation window is empty."""
    with pytest.raises(ValueError, match="oscillator index 7"):
        act_L(1, 7, 3, VAC, d=2)
    with pytest.raises(ValueError, match="oscillator index 5"):
        vertex_mode(1, 5, -1, -1, 10, VAC, d=2)


def test_first_slot_recursion_small():
    # v[i,j](m-1,n)|0> = -(1/m) L[i,i](-1) v[i,j](m,n)|0>
    for m in range(-3, 0):
        for n in range(-3, 0):
            lhs = act(gen_elem(1, 2, m - 1, n), VAC)
            rhs = act_L(1, 1, -1, act(gen_elem(1, 2, m, n), VAC)).scale(Fraction(-1, m))
            assert lhs == rhs


def test_diagonal_recursion_small():
    # v[i,i](m-1,n)|0> = 2/(m(m+n-1)) L[i,i](0) L[i,j](-1) v[i,j](n,m)|0>
    for m in range(-3, 0):
        for n in range(-3, 0):
            lhs = act(gen_elem(1, 1, m - 1, n), VAC)
            word = act_L(1, 1, 0, act_L(1, 2, -1, act(gen_elem(1, 2, n, m), VAC)))
            assert lhs == word.scale(Fraction(2, m * (m + n - 1)))


def _proportional(a, b):
    if a.is_zero() or b.is_zero():
        return None
    mono = sorted(b.terms)[0]
    ca, cb = a.coefficient(mono), b.coefficient(mono)
    if not ca or not cb or not cb.is_constant() or not ca.is_constant():
        return None
    ratio = Fraction(ca.constant_value()) / Fraction(cb.constant_value())
    return ratio if a == b.scale(ratio) else None


def test_mixed_pair_word_proportionality():
    for m in range(-3, 0):
        for n in range(-3, 0):
            word = act_L(1, 2, -2, VAC)
            for _ in range(-n - 1):
                word = act_L(2, 2, -1, word)
            for _ in range(-m - 1):
                word = act_L(1, 1, -1, word)
            ratio = _proportional(act(gen_elem(1, 2, m, n), VAC), word)
            assert ratio


def test_diagonal_pair_word_proportionality():
    for m in range(-3, -1):
        for n in range(-3, 0):
            word = act_L(1, 2, -2, VAC)
            for _ in range(-m - 2):
                word = act_L(2, 2, -1, word)
            for _ in range(-n - 1):
                word = act_L(1, 1, -1, word)
            word = act_L(1, 1, 0, act_L(1, 2, -1, word))
            ratio = _proportional(act(gen_elem(1, 1, m, n), VAC), word)
            assert ratio


def test_vertex_mode_base_case_is_mode_sum():
    u = lowering_state((1, 1, -1, -1))
    for l in range(-3, 4):
        assert vertex_mode(1, 2, -1, -1, l, u) == act_L(1, 2, l - 1, u).scale(2)


def test_vertex_mode_on_vacuum_frozen():
    # the l=2 mode of v[1,2](-2,-1)|0> on the vacuum: every summand raises
    assert vertex_mode(1, 2, -2, -1, 2, VAC).is_zero()


def test_vertex_mode_rejects_bad_input():
    with pytest.raises(ValueError):
        vertex_mode(1, 1, -1, -1, 0, VAC)
    with pytest.raises(ValueError):
        vertex_mode(1, 2, 1, -1, 0, VAC)
    with pytest.raises(ValueError):
        vertex_mode_by_recursion(2, 2, -1, -1, 0, VAC)


def test_vertex_mode_commutator_recursion_instance():
    # mode of v[1,2](-2,-1) = [L[1,1](-1), mode of v[1,2](-1,-1)] at l=0
    u = lowering_state((1, 1, -1, -1))
    inner = vertex_mode(1, 2, -1, -1, 0, u)
    commutator = act_L(1, 1, -1, inner) - vertex_mode(1, 2, -1, -1, 0, act_L(1, 1, -1, u))
    assert vertex_mode(1, 2, -2, -1, 0, u) == commutator


def test_vertex_mode_matches_recursion_oracle_sample():
    states = [VAC, lowering_state((1, 1, -1, -1)), lowering_state((1, 2, -2, -1))]
    for m, n in itertools.product(range(-2, 0), repeat=2):
        for l in range(-2, 3):
            for u in states:
                assert vertex_mode(1, 2, m, n, l, u) == vertex_mode_by_recursion(
                    1, 2, m, n, l, u
                )


def _reference_recursion(i, j, m, n, l, u, memo):
    """The tuple-level oracle on States: V(-1,-1) = 2 L[i,j](l-1), and each unit
    decrease of m is [L[i,i](-1), V(m+1, n)] / (-m-1), decreases of n by swapping
    the slots; memoised per (mode, monomial), scaled by Fractions at every level."""
    if m == -1 and n < -1:
        return _reference_recursion(j, i, n, m, l, u, memo)
    out = State.zero()
    for mono, coeff in u.terms.items():
        key = (i, j, m, n, l, mono)
        if key not in memo:
            v = State.from_monomial(mono)
            if m == -1:
                memo[key] = act_L(i, j, l - 1, v).scale(2)
            else:
                inner = _reference_recursion(i, j, m + 1, n, l, v, memo)
                right = _reference_recursion(i, j, m + 1, n, l, act_L(i, i, -1, v), memo)
                memo[key] = (act_L(i, i, -1, inner) - right).scale(Fraction(1, -m - 1))
        out = out + memo[key].scale(coeff)
    return out


def test_id_oracle_matches_the_tuple_level_recursion():
    """The integer-multiple oracle on ids equals the Fraction-scaled recursion on States."""
    states = [State.from_monomial(mono) for mono in basis_monomials(3, 2)]
    memo = {}
    checked = 0
    for i, j in ((1, 2), (2, 1)):
        for m, n in itertools.product(range(-3, 0), repeat=2):
            for l in (-3, 0, 2):
                for u in states:
                    want = _reference_recursion(i, j, m, n, l, u, memo)
                    assert vertex_mode_by_recursion(i, j, m, n, l, u) == want, (i, j, m, n, l, u)
                    checked += not want.is_zero()
    assert checked == 382  # of 432 cases, the others zero on both sides


def test_vertex_operator_is_memoised_per_degree():
    """One cache serves a degree-2 and then a degree-4 state, each with its own window.

    A basis monomial has degree 0 or at least 2, so degree 2 is the narrowest
    window a nonvacuum state can leave in the cache.
    """
    mode = (1, 2, -2, -1, 0)
    states = [lowering_state((1, 1, -1, -1)), lowering_state((1, 2, -3, -1))]
    fresh = []
    for u in states:
        clear_action_cache()
        fresh.append(vertex_mode(*mode, u))
    clear_action_cache()
    assert [vertex_mode(*mode, u) for u in states] == fresh
    assert not any(value.is_zero() for value in fresh)
    assert fresh == [vertex_mode_by_recursion(*mode, u) for u in states]


def test_recursion_oracle_never_calls_the_closed_form(monkeypatch):
    """With vertex_mode and binom disabled, the oracle still reproduces the closed form."""
    states = [VAC, lowering_state((1, 1, -1, -1)), lowering_state((1, 2, -2, -1), (2, 2, -1, -1))]
    cases = [
        (i, j, m, n, l, u)
        for i, j in ((1, 2), (2, 1))
        for m, n in itertools.product(range(-3, 0), repeat=2)
        for l in (-3, 0, 2)
        for u in states
    ]
    expected = [vertex_mode(*case) for case in cases]

    def disabled(*args, **kwargs):
        raise AssertionError("the recursion oracle used the closed vertex-mode formula")

    monkeypatch.setattr(virops, "vertex_mode", disabled)
    monkeypatch.setattr(virops, "_vertex_ids", disabled)
    monkeypatch.setattr(virops, "binom", disabled)
    clear_action_cache()
    for case, value in zip(cases, expected):
        assert vertex_mode_by_recursion(*case) == value, case


def test_binom_values():
    assert binom(5, 2) == 10
    assert binom(-1, 3) == -1
    assert binom(-2, 2) == 3
    assert binom(3, 0) == 1
    assert binom(2, 5) == 0
    assert binom(4, -1) == 0


def test_binomial_matrix_det_size_one():
    for L in range(-4, 5):
        assert binomial_matrix_det(L, 1) == 1


def test_binomial_matrix_det_two_by_two_oracle():
    # cofactor oracle: det [[C(L,0), C(L-1,0)], [C(L+1,1), C(L,1)]] = -1
    for L in range(-3, 4):
        direct = binom(L, 0) * binom(L, 1) - binom(L - 1, 0) * binom(L + 1, 1)
        assert binomial_matrix_det(L, 2) == direct == -1


def test_binomial_matrix_det_permutation_oracle():
    for M in range(1, 5):
        for L in range(-2, 3):
            expansion = Fraction(0)
            for perm in itertools.permutations(range(M)):
                sign = 1
                for a in range(M):
                    for b in range(a + 1, M):
                        if perm[a] > perm[b]:
                            sign = -sign
                term = Fraction(sign)
                for p in range(M):
                    term *= binom(L + (p + 1) - (perm[p] + 1), p)
                expansion += term
            assert binomial_matrix_det(L, M) == expansion


def test_binomial_matrix_det_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for M in range(1, 7):
        for L in range(-3, 4):
            matrix = sympy.Matrix(M, M, lambda p, N: sympy.binomial(L + p - N, p))
            assert binomial_matrix_det(L, M) == int(matrix.det()), (L, M)


def test_virasoro_probe_vacuum_examples():
    for d in (2, 3):
        assert virasoro_bracket_probe(2, -2, VAC, d) == VAC.scale(R * Fraction(d, 2))
        assert virasoro_bracket_probe(1, -1, VAC, d).is_zero()
        assert virasoro_bracket_probe(1, 1, VAC, d).is_zero()


def _paper_central_term(m, n, u, d):
    """The Virasoro central term from the paper's formula: delta_{m+n,0} d r (m^3 - m)/12 times u."""
    return u.scale(R * Fraction(d * (m**3 - m), 12)) if m + n == 0 else State.zero()


def test_virasoro_relation_on_low_degree_states():
    states = [VAC, lowering_state((1, 1, -1, -1)), lowering_state((1, 2, -2, -1))]
    for d in (2,):
        for m in range(-2, 3):
            for n in range(-2, 3):
                for u in states:
                    probe = virasoro_bracket_probe(m, n, u, d)
                    assert probe == _paper_central_term(m, n, u, d), (m, n, u)


def test_central_is_four_times_the_papers_central_term():
    """Check 10 compares 4 times the probe with r * _central: that is 4 times the formula."""
    for d in (1, 2, 3, 7):
        for m in range(-6, 7):
            for n in range(-6, 7):
                want = 4 * Fraction(d * (m**3 - m), 12) if m + n == 0 else 0
                assert _central(m, n, d) == want and type(_central(m, n, d)) is int, (m, n, d)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_virasoro_probe_and_central_term_are_odd_in_m_and_n(d):
    """Check 10 probes only m < n: the mirror (n, m) negates both sides, and m = n gives zero."""
    for mono in basis_monomials(3, d):
        u = State.from_monomial(mono)
        for m in range(-3, 4):
            assert virasoro_bracket_probe(m, m, u, d).is_zero()
            assert _central(m, m, d) == 0
            for n in range(m + 1, 4):
                assert virasoro_bracket_probe(n, m, u, d) == -virasoro_bracket_probe(m, n, u, d)
                assert _central(n, m, d) == -_central(m, n, d)


def test_each_public_operator_is_its_id_form_translated_back():
    """Checks 5 and 10 compare id sums, and no longer cross the State boundary: on their
    states at d = 2 and degree <= 2, each public operator equals its id function's sum, taken
    on the state's id and translated back, divided as the battery multiplies."""
    clear_action_cache()
    pairs = ((1, 1), (2, 2))
    for mono in basis_monomials(2, 2):
        u = State.from_monomial(mono)
        mid = fock._mono_id(mono)
        for i, j in ((1, 2), (2, 1)):
            for m, n in itertools.product(range(-3, 0), repeat=2):
                for l in range(-4, 5):
                    assert vertex_mode(i, j, m, n, l, u) == fock._state_of(
                        _vertex_ids(i, j, m, n, l, {mid: 1}))
                    assert vertex_mode_by_recursion(i, j, m, n, l, u) == fock._state_of(
                        _recursion_ids(i, j, m, n, l, {mid: 1}), _multiple(m, n))
        for m in range(-3, 4):
            for n in range(m + 1, 4):
                assert virasoro_bracket_probe(m, n, u, 2) == fock._state_of(
                    _probe_ids(pairs, m, n, {mid: 1}), 4)


def test_total_mode_zero_measures_degree():
    u = lowering_state((1, 2, -2, -1), (1, 1, -1, -1))
    assert act_L(1, 1, 0, u) + act_L(2, 2, 0, u) == u.scale(5)


def test_act_l_rejects_mixed_degree_states():
    mixed = VAC + lowering_state((1, 1, -1, -1))
    with pytest.raises(ValueError):
        act_L(1, 1, 0, mixed)


def test_memoised_operators_still_check_their_input():
    """A warm cache skips neither the homogeneity guard nor the index check."""
    low = lowering_state((1, 1, -1, -1))
    mixed = VAC + low
    for u in (VAC, low):  # every monomial of mixed now has a cached image
        act_L(1, 2, -1, u)
        act_L(1, 1, 0, u) + act_L(2, 2, 0, u)
        vertex_mode_by_recursion(1, 2, -2, -1, 0, u)
    with pytest.raises(ValueError, match="homogeneous"):
        act_L(1, 2, -1, mixed)
    with pytest.raises(ValueError, match="homogeneous"):
        act_L(1, 1, 0, mixed) + act_L(2, 2, 0, mixed)
    with pytest.raises(ValueError, match="homogeneous"):
        vertex_mode_by_recursion(1, 2, -2, -1, 0, mixed)
    with pytest.raises(ValueError, match="oscillator index 2"):
        act_L(1, 2, -1, low, d=1)


def test_one_term_states_skip_the_support_scan(monkeypatch):
    """A one-term state is homogeneous: the guard reads its degree without degree_of."""
    def scan(u):
        raise AssertionError("degree_of called on a one-term state")

    monkeypatch.setattr(virops, "degree_of", scan)
    u = lowering_state((1, 1, -2, -1))
    assert act_L(1, 1, 0, u) == u.scale(3)
    assert act_L(1, 1, 0, u) + act_L(2, 2, 0, u) == u.scale(3)
    # the base case m = -1 acts by act_L alone; deeper modes compose into many-term states
    assert vertex_mode_by_recursion(1, 2, -1, -1, -1, VAC) == act(gen_elem(1, 2, -1, -1), VAC)
