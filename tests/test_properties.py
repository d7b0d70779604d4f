"""Property tests for the linear-combination core and the module action."""

import json
from fractions import Fraction
from itertools import zip_longest

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings, strategies as st  # noqa: E402

from jordan_voa.fock import (  # noqa: E402
    State,
    act,
    basis_monomials,
    clear_action_cache,
    monomial_degree,
    monomial_weight,
    weights,
)
from jordan_voa.liealg import UNIT, LieElement, bracket_r, canonical_generators  # noqa: E402
from jordan_voa.scalar import (  # noqa: E402
    ONE, R, ZERO, Scalar, _poly_divmod, parse_scalar, poly_exact_div, poly_gcd,
)
from jordan_voa.singular import GENERIC, _generic_minor, singular_search  # noqa: E402
from jordan_voa.virops import act_L, vertex_mode, vertex_mode_by_recursion  # noqa: E402
from test_fock import _shifted  # noqa: E402
from test_virops import _wide_mode_sum  # noqa: E402

# derandomized and without an example database, so every run checks the same cases
PROFILE = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _fractions(bound, max_denominator):
    """Every fraction in [-bound, bound] with denominator <= max_denominator, 0 first.

    Drawn from this list rather than by st.fractions, which draws through a
    flatmap and so builds and validates a new strategy on every draw.
    """
    return sorted({Fraction(n, q) for q in range(1, max_denominator + 1)
                   for n in range(-bound * q, bound * q + 1)}, key=lambda v: (abs(v), v < 0))


rationals = st.sampled_from(_fractions(6, 4))
nonzero_rationals = st.sampled_from(_fractions(6, 4)[1:])
scalars = st.lists(rationals, max_size=4).map(Scalar)
# a nonzero top coefficient makes a nonzero scalar, of each degree up to 3
nonzero_scalars = st.builds(lambda low, top: Scalar([*low, top]),
                            st.lists(rationals, max_size=3), nonzero_rationals)
generators = st.sampled_from(canonical_generators(3, 2))
elements = st.builds(
    lambda terms, const: LieElement({**terms, UNIT: const}),
    st.dictionaries(generators, scalars, max_size=3),
    scalars,
)


states = st.dictionaries(
    st.sampled_from(basis_monomials(4, 2)), scalars, max_size=3
).map(State)
points = st.sampled_from(_fractions(5, 6))


@PROFILE
@given(elements, elements, states)
def test_act_is_additive_in_the_operator(x, y, u):
    assert act(x + y, u) == act(x, u) + act(y, u)


@PROFILE
@given(elements, scalars, states)
def test_act_is_homogeneous_in_the_operator(x, c, u):
    assert act(x.scale(c), u) == act(x, u).scale(c)


@PROFILE
@given(generators, states)
def test_generator_acts_as_its_one_term_element(g, u):
    assert act(g, u) == act(LieElement.from_generator(g), u)


@PROFILE
@given(states, states, points)
def test_state_specialize_commutes_with_addition(a, b, r0):
    assert (a + b).specialize(r0) == a.specialize(r0) + b.specialize(r0)


@PROFILE
@given(elements, elements, points)
def test_element_specialize_commutes_with_addition(a, b, r0):
    assert (a + b).specialize(r0) == a.specialize(r0) + b.specialize(r0)


@PROFILE
@given(elements, elements)
def test_bracket_is_antisymmetric(x, y):
    assert bracket_r(x, y) == -bracket_r(y, x)


@PROFILE
@given(elements, elements, scalars)
def test_bracket_ignores_constants(x, y, c):
    assert bracket_r(x + LieElement.constant(c), y) == bracket_r(x, y)


@PROFILE
@given(scalars)
def test_parse_scalar_inverts_str(p):
    assert parse_scalar(str(p)) == p


integers = st.integers(min_value=-50, max_value=50)


@PROFILE
@given(st.lists(st.one_of(integers, rationals), max_size=5).map(Scalar), integers)
def test_evaluate_at_an_int_equals_evaluate_at_its_fraction(p, k):
    assert p.evaluate(k) == p.evaluate(Fraction(k))


@PROFILE
@given(st.lists(integers, max_size=5).map(Scalar), integers)
def test_evaluate_keeps_int_coefficients_int_at_an_int(p, k):
    value = p.evaluate(k)
    assert type(value) is int and value == p.evaluate(Fraction(k))


@PROFILE
@given(states)
def test_state_json_round_trip(u):
    text = json.dumps(u.to_json_obj())
    assert State.from_json_obj(json.loads(text)) == u


def _mode_shift(g):
    """Weight change of g: +1 per created mode v_k(l), -1 per annihilated v_k(-l)."""
    shift = {}
    for k, mode in ((g.i, g.m), (g.j, g.n)):
        if mode:
            key = (k, mode) if mode < 0 else (k, -mode)
            shift[key] = shift.get(key, 0) + (1 if mode < 0 else -1)
    return shift


@PROFILE
@given(st.sampled_from(canonical_generators(4, 3)), st.sampled_from(basis_monomials(5, 3)))
def test_act_shifts_degree_and_weight_by_the_generator(g, u):
    expected = _shifted(monomial_weight(u), _mode_shift(g))
    for mono in act(g, State.from_monomial(u)).terms:
        assert monomial_degree(mono) == monomial_degree(u) - (g.m + g.n)
        assert expected is not None and monomial_weight(mono) == expected


@PROFILE
@given(scalars, scalars, scalars)
def test_scalar_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def _convolution(a, b):
    """The product of two polynomials in r, coefficient by coefficient."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for k, c in enumerate(a):
        for k2, c2 in enumerate(b):
            out[k + k2] += c * c2
    return Scalar(out)


@PROFILE
@given(nonzero_rationals, nonzero_rationals)
def test_constant_product_is_the_convolution(a, b):
    x, y = Scalar((a,)), Scalar((b,))
    product = x * y
    expected = _convolution(x, y)
    assert product == expected
    assert hash(product) == hash(expected) and str(product) == str(expected)
    assert product == x * (y + R) - x * R  # through the general product
    assert type(product[0]) is (int if product[0].denominator == 1 else Fraction)


numbers = st.one_of(st.integers(-6, 6), rationals)


@PROFILE
@given(st.lists(numbers, max_size=4).map(Scalar), numbers)
def test_product_by_a_bare_number_is_the_product_by_its_constant(s, k):
    expected = s * Scalar.of(k)
    for product in (s * k, k * s):
        assert product == expected
        assert [type(c) for c in product] == [type(c) for c in expected]


def _integral_as_int(c):
    return c.numerator if c.denominator == 1 else c


normalised_scalars = st.lists(numbers.map(_integral_as_int), max_size=4).map(Scalar)


@PROFILE
@given(normalised_scalars, normalised_scalars, st.lists(integers, max_size=4), numbers.filter(bool))
def test_sums_and_quotients_store_integral_coefficients_as_ints(s, t, n, k):
    """On coefficients stored as ints where integral, s + t and s / k store theirs so too.

    complement is n - s, so s + complement is the int polynomial n.
    """
    complement = Scalar(_integral_as_int(Fraction(m) - c)
                        for m, c in zip_longest(n, s, fillvalue=0))
    expected_sum = Scalar(_integral_as_int(Fraction(a) + b)
                          for a, b in zip_longest(s, t, fillvalue=0))
    expected_quotient = Scalar(_integral_as_int(Fraction(c) / k) for c in s)
    for value, expected in ((s + t, expected_sum), (t + s, expected_sum),
                            (s + complement, Scalar(n)), (s / k, expected_quotient)):
        assert value == expected
        assert [type(c) for c in value] == [type(c) for c in expected]


def _same_scalar(value, expected):
    return value == expected and hash(value) == hash(expected) and str(value) == str(expected)


def _constant_type_is_normalised(x):
    """An integral constant is an int, any other a Fraction."""
    return len(x) != 1 or type(x[0]) is (int if x[0].denominator == 1 else Fraction)


@PROFILE
@given(scalars, st.one_of(integers, rationals).filter(bool))
def test_multiplying_by_one_or_a_bare_number_is_the_convolution(x, k):
    expected = _convolution(x, ONE)
    for product in (x * ONE, ONE * x):
        assert _same_scalar(product, expected)
        assert _constant_type_is_normalised(product)
    for factor in (1, k):
        for product in (x * factor, factor * x):
            assert _same_scalar(product, _convolution(x, Scalar((factor,))))


@PROFILE
@given(nonzero_rationals, rationals)
def test_constants_that_cancel_add_to_zero(a, b):
    assert _same_scalar(Scalar((a,)) + Scalar((-a,)), ZERO)
    expected = Scalar((a + b,))
    assert _same_scalar(Scalar((a,)) + Scalar((b,)), expected)
    assert _same_scalar(Scalar((a,)) + b, expected)


@PROFILE
@given(st.lists(st.one_of(integers, rationals), max_size=4).map(Scalar),
       st.lists(st.one_of(integers, rationals), min_size=1, max_size=4).map(Scalar)
       .filter(bool))
def test_exact_division_undoes_multiplication(a, b):
    assert poly_exact_div(a * b, b) == a


@PROFILE
@given(st.lists(integers, max_size=5).map(Scalar), st.lists(integers, max_size=3),
       integers.filter(bool))
def test_division_of_int_polynomials(a, low, lead):
    """Quotient and remainder satisfy a = q b + r; a monic divisor keeps them int."""
    b, monic = Scalar((*low, lead)), Scalar((*low, 1))
    for divisor in (b, monic):
        quotient, remainder = _poly_divmod(a, divisor)
        assert quotient * divisor + remainder == a
        assert len(remainder) < len(divisor)
    assert all(type(c) is int for c in (*quotient, *remainder))
    quotient = poly_exact_div(a * monic, monic)
    assert quotient == a and all(type(c) is int for c in quotient)


coefficient_lists = st.lists(numbers, max_size=4)  # ints, and Fractions integral or not


@PROFILE
@example([Fraction(1, 2)], [2, 1], 1, Fraction(1, 3), 0)  # (1/2) * (2 + r)
@example([2, 2], [4, 4], 1, Fraction(1, 3), 0)  # poly_gcd(2 + 2r, 4 + 4r)
@example([0, 2], [], 1, Fraction(1, 3), Fraction(1, 2))  # 2r at r = 1/2
@example([Fraction(4, 2)], [], 1, Fraction(1, 3), 0)  # the constructor
@example([Fraction(3), Fraction(1, 2)], [], 1, Fraction(1, 3), 0)  # -(3 + r/2)
@given(coefficient_lists, coefficient_lists, integers, rationals, points)
def test_no_result_holds_a_fraction_with_denominator_one(a, b, n, f, r0):
    """Every Scalar the constructor, the ring operations, gcd, exact division, parsing and
    specialisation return stores each integral coefficient as an int."""
    x, y = Scalar(a), Scalar(b)
    results = [x, y, x + y, x - y, -x, x * y, x * n, n * x, x * f, f * x,
               poly_gcd(x, y), parse_scalar(str(x)), *State({(): x}).specialize(r0).terms.values()]
    results += [x / k for k in (n, f) if k]
    if y:
        results.append(poly_exact_div(x * y, y))
    assert [s for s in results if any(type(c) is Fraction and c.denominator == 1 for c in s)] == []


def _homogeneous_pairs(max_degree, d):
    """Pairs of nonzero states sharing one degree <= max_degree over d oscillators."""
    by_degree: dict = {}
    for mono in basis_monomials(max_degree, d):
        by_degree.setdefault(monomial_degree(mono), []).append(mono)

    def of_degree(monos):
        nonzero = st.dictionaries(st.sampled_from(monos), nonzero_scalars, min_size=1, max_size=3)
        return st.tuples(*[nonzero.map(State)] * 2)

    # one strategy per degree, built once: a flatmap would build and validate one per draw
    return st.one_of([of_degree(monos) for monos in sorted(by_degree.values())])


@PROFILE
@given(_homogeneous_pairs(5, 2), st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2)]),
       st.integers(-3, 3))
def test_memoised_mode_sums_match_the_wide_sum(pair, ij, m):
    u = pair[0]
    i, j = ij
    clear_action_cache()
    cold = act_L(i, j, m, u), act_L(1, 1, m, u) + act_L(2, 2, m, u)
    warm = act_L(i, j, m, u), act_L(1, 1, m, u) + act_L(2, 2, m, u)
    total = _wide_mode_sum(1, 1, m, u, pad=2) + _wide_mode_sum(2, 2, m, u, pad=2)
    assert warm == cold == (_wide_mode_sum(i, j, m, u, pad=2), total)


@PROFILE
@given(_homogeneous_pairs(5, 2), st.sampled_from([(1, 2), (2, 1)]),
       st.integers(-3, -1), st.integers(-3, -1), st.integers(-4, 4))
def test_recursion_oracle_is_linear(pair, ij, m, n, l):
    u1, u2 = pair
    oracle = [vertex_mode_by_recursion(*ij, m, n, l, u) for u in (u1, u2)]
    assert vertex_mode_by_recursion(*ij, m, n, l, u1 + u2) == oracle[0] + oracle[1]


@PROFILE
@given(_homogeneous_pairs(5, 2), st.sampled_from([(1, 2), (2, 1)]),
       st.integers(-3, -1), st.integers(-3, -1), st.integers(-4, 4))
def test_closed_form_vertex_modes_match_the_oracle_on_many_term_states(pair, ij, m, n, l):
    """vertex_mode reads its truncation degree off one monomial of the whole state."""
    u = pair[0] + pair[1]
    assume(len(u.terms) > 1)
    assert vertex_mode(*ij, m, n, l, u) == vertex_mode_by_recursion(*ij, m, n, l, u)


@PROFILE
@given(st.sampled_from(weights(10)), st.one_of(st.integers(-5, 5), rationals))
def test_specialising_never_shrinks_the_kernel(lam, r0):
    """Specialising r can only lower the rank, so it can only enlarge the kernel."""
    generic = singular_search(lam, GENERIC)
    special = singular_search(lam, r0)
    assert special.basis_dim == generic.basis_dim
    assert special.kernel_dim >= generic.kernel_dim


@st.composite
def _tall_poly_matrices(draw):
    """ncols in 1..3 and up to two more rows, of integer Scalars of degree <= 2.

    A row is drawn afresh, or as a combination of the rows above it with
    integer multipliers, so the rank over Q(r) falls below ncols often.
    """
    ncols = draw(st.integers(1, 3))
    entries = st.lists(st.integers(-6, 6), max_size=3).map(Scalar)
    multipliers = st.sampled_from((0, 1, -1, 2, -3))
    rows = []
    for _ in range(draw(st.integers(ncols, ncols + 2))):
        if rows and draw(st.booleans()):
            mix = draw(st.lists(multipliers, min_size=len(rows), max_size=len(rows)))
            rows.append([sum((m * row[col] for m, row in zip(mix, rows)), ZERO)
                         for col in range(ncols)])
        else:
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
    return rows, ncols


@PROFILE
@given(_tall_poly_matrices())
def test_the_generic_minor_matches_sympy(matrix):
    """ZERO exactly below full rank over Q(r); else the first independent rows' determinant."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    rows, ncols = matrix
    r = sympy.Symbol("r")

    def to_sympy(poly):
        return sum((sympy.Rational(c.numerator, c.denominator) * r**k
                    for k, c in enumerate(poly)), sympy.Integer(0))

    def rank(block):
        return DomainMatrix.from_Matrix(sympy.Matrix(block)).to_field().rank()

    chosen = []
    for row in ([to_sympy(x) for x in row] for row in rows):
        if rank([*chosen, row]) > len(chosen):
            chosen.append(row)
    minor = _generic_minor(rows, ncols)
    if len(chosen) < ncols:
        assert minor == ZERO
    else:
        ratio = sympy.cancel(sympy.Matrix(chosen).det() / to_sympy(minor))
        assert ratio in (1, -1)
