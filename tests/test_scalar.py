"""Ring arithmetic, evaluation, and parsing for polynomials in r."""

import importlib.util
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest

from jordan_voa import virops
from jordan_voa.scalar import (
    R,
    ZERO,
    Scalar,
    fraction_free_rref,
    parse_scalar,
    poly_exact_div,
    poly_gcd,
)


def test_basic_ring_identities():
    assert (R + 1) * (R - 1) == R * R - 1
    assert ZERO + parse_scalar("3*r - 2") == parse_scalar("3*r - 2")
    assert (2 * R) * Fraction(1, 2) == R


def test_canonical_form():
    assert Scalar((0, 0, 0)) == ZERO
    assert len(Scalar((1, 2, 0, 0))) == 2
    assert Scalar((0, Fraction(0), 1)).coeffs == {2: 1}
    assert not ZERO


def test_integral_constant_product_is_an_int():
    for a, b in ((Fraction(1, 2), 4), (Fraction(3, 2), Fraction(2, 3)), (Fraction(-5), 7)):
        product = Scalar((a,)) * Scalar((b,))
        assert product == Scalar((a * b,))
        assert type(product[0]) is int
    assert type((Scalar((Fraction(1, 2),)) * Scalar((3,)))[0]) is Fraction


def test_integral_constant_sum_is_an_int():
    half = Scalar((Fraction(1, 2),))
    assert type((half + half)[0]) is int
    assert type((half + Scalar((Fraction(5, 2),)))[0]) is int
    assert type((half + half + half)[0]) is Fraction
    op = virops._mode_sum(((1, 1),), -1, 4)  # in id form: (generator id, coefficient) pairs
    assert op and all(type(c) is int for _, c in op)


def test_integral_fraction_and_int_coefficients_agree():
    x, y = Scalar((Fraction(4, 2),)), Scalar((2,))
    assert x == y
    assert hash(x) == hash(y)
    assert str(x) == str(y) == "2"


def test_rmul_is_an_alias_of_mul():
    assert Scalar.__rmul__ is Scalar.__mul__


def test_tracer_refuses_a_broken_mul_alias():
    """The bench tracer counts __mul__ and __rmul__ as one; a split alias is an error."""
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)

    class SplitAlias(Scalar):
        __slots__ = ()
        __mul__ = Scalar.__mul__

        def __rmul__(self, other):
            return Scalar.__mul__(self, other)

    with pytest.raises(ValueError, match="not an alias"):
        tracing.Tracer()._rebind_method(SplitAlias, ("__mul__", "__rmul__"), lambda fn: fn)


def test_evaluate_examples():
    nu = 1
    assert (R + (2 * nu - 2)).evaluate(0) == 0
    assert R.evaluate(Fraction(1, 2)) == Fraction(1, 2)
    # the coefficient m*n*(1 + delta_{m,n}) at m=1, n=2 is 2, so 2*r at r=3
    assert (2 * R).evaluate(3) == 6


def _random_poly(rng):
    degree = rng.randint(0, 4)
    return Scalar(
        tuple(
            Fraction(rng.randint(-100, 100), rng.randint(1, 100))
            for _ in range(degree + 1)
        )
    )


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(12345)
    for _ in range(300):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c


def test_evaluation_is_a_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(100):
        a, b = _random_poly(rng), _random_poly(rng)
        r0 = Fraction(rng.randint(-20, 20), rng.randint(1, 20))
        assert (a * b).evaluate(r0) == a.evaluate(r0) * b.evaluate(r0)
        assert (a + b).evaluate(r0) == a.evaluate(r0) + b.evaluate(r0)


@pytest.mark.parametrize(
    "text",
    ["3/2*r^2 - 1", "2*r", "0", "-r", "r + 2", "r^3 - 1/2*r + 7", "-5/3"],
)
def test_parse_format_round_trip(text):
    poly = parse_scalar(text)
    assert parse_scalar(str(poly)) == poly


def test_parse_specific_values():
    assert parse_scalar("3/2*r^2 - 1") == Scalar((-1, 0, Fraction(3, 2)))
    assert parse_scalar("2*r") == 2 * R
    with pytest.raises(ValueError):
        parse_scalar("2*q")
    with pytest.raises(ValueError):
        parse_scalar("")


def test_formatting():
    assert str(ZERO) == "0"
    assert str(2 * R) == "2*r"
    assert str(R * R - 1) == "r^2 - 1"
    assert str(-R) == "-r"
    assert str(Scalar((Fraction(3, 2),))) == "3/2"


def test_division_helpers():
    product = (R + 2) * (R - 3)
    assert poly_exact_div(product, R + 2) == R - 3
    with pytest.raises(ValueError):
        poly_exact_div(R + 1, R - 1)
    assert poly_gcd((R + 1) * (R - 1), (R + 1) * (R + 2)) == R + 1
    assert poly_gcd(ZERO, 2 * R + 2) == R + 1  # monic normalisation


def test_truediv_by_rationals():
    assert (2 * R) / 2 == R
    with pytest.raises(ZeroDivisionError):
        (2 * R) / 0


def test_fraction_free_rref_determinant_and_shape():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(565)
    for _ in range(200):
        size = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(size)]
                for _ in range(size)]
        mat, pivots, sign = fraction_free_rref(rows, size, operator.floordiv)
        last = mat[len(pivots) - 1][pivots[-1]] if pivots else 1
        for k, row in enumerate(mat):
            for j, col in enumerate(pivots):
                assert row[col] == (last if j == k else 0)
            if k >= len(pivots):
                assert not any(row)
        det = sign * last if len(pivots) == size else 0
        assert det == sympy.Matrix(rows).det(), rows


def test_poly_gcd_matches_sympy():
    sympy = pytest.importorskip("sympy")
    r = sympy.Symbol("r")
    rng = random.Random(4)

    def to_sympy(poly):
        return sympy.Poly(
            [sympy.Rational(c.numerator, c.denominator) for c in reversed(poly)] or [0],
            r, domain="QQ",
        )

    for _ in range(150):
        common = _random_poly(rng)
        a = common * _random_poly(rng)
        b = common * _random_poly(rng) if rng.random() < 0.9 else ZERO
        expected = to_sympy(a).gcd(to_sympy(b))
        coeffs = [Fraction(int(c.p), int(c.q)) for c in reversed(expected.all_coeffs())]
        assert poly_gcd(a, b) == Scalar(coeffs), (a, b)
