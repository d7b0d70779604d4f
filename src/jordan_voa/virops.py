"""Mode-sum operators, closed-form vertex modes, and Virasoro probes.

The operator L[i,j](m) is the half-sum over h of v[i,j](m-h, h); for i = j
and m = 0 the normally ordered variant (1/2) v[i,i](0,0) + sum_{h>0}
v[i,i](-h,h) is used instead.  A basis monomial of degree D has no mode
below -(D - 1), so every summand with a raising mode of D or more acts on
it as zero, and the sum truncates to h in [m - D + 1, D - 1].  The window
is always derived from the degree, and a wider one would only add
summands that act as zero.

Vertex modes of a mixed lowering pair v[i,j](m,n) (i != j, m, n < 0) applied
to the vacuum admit the closed binomial form

    (-1)^(-m-n) sum_k C(l+n-k, -m-1) C(k-n-1, -n-1) v[i,j](l+m+n+1-k, k)

for the mode of weight l; a recursive construction of the same mode through
commutators with L[i,i](-1) is provided as an independent cross-check.  The
diagonal mode sums satisfy the Virasoro relation with central charge d*r,
which the probe below measures directly.

Mode sums and closed-form vertex modes are elements of the Lie algebra of
quadratic elements, and they are built as such: each operator, truncated to
its window, becomes one LieElement and reaches a state through fock.act.
Mode sums and the recursion oracle act monomial by monomial through
fock.apply, which memoises each image per monomial.  The truncated mode-sum
and closed-form vertex operators are memoised per degree beside them,
through fock.memo.  The recursion oracle only ever calls act_L, so it stays
independent of the binomial formula.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .fock import MIXED, State, act, apply, degree_of, memo, monomial_degree
from .liealg import LieElement, _validate_index, canonicalize
from .scalar import R, add_into, fraction_free_rref

__all__ = [
    "act_L",
    "act_L_total",
    "vertex_mode",
    "vertex_mode_by_recursion",
    "binom",
    "binomial_matrix_det",
    "virasoro_bracket_probe",
    "virasoro_central_term",
]

HALF = Fraction(1, 2)


def _degree(u: State) -> int:
    """The degree of a nonzero homogeneous state; a mixed one is rejected.

    A one-term state, such as each per-monomial image of the recursion
    oracle, is homogeneous and is read off its monomial.
    """
    if len(u.terms) == 1:
        return monomial_degree(next(iter(u.terms)))
    depth = degree_of(u)
    if depth == MIXED:
        raise ValueError("operator sums need a homogeneous input state")
    return depth


def _window(center: int, depth: int):
    """Summation range of a mode sum centred at center, sufficient for degree depth."""
    return center - depth + 1, depth - 1


def _lie_sum(summands) -> LieElement:
    """The operator sum of weight * v[i,j](m,n) over (weight, (i, j, m, n)) summands."""
    terms: dict = {}
    for weight, quad in summands:
        for key, coeff in canonicalize(*quad).terms.items():
            add_into(terms, key, coeff * weight)
    return LieElement(terms)


def _mode_sum(pairs, m: int, depth: int) -> LieElement:
    """The sum of L[i,j](m) over the index pairs, truncated for degree depth, as one operator."""
    lo, hi = _window(m, depth)
    summands = []
    for i, j in pairs:
        if i == j and m == 0:
            summands.append((HALF, (i, i, 0, 0)))
            summands += [(1, (i, i, -h, h)) for h in range(max(lo, 1), hi + 1)]
        else:
            summands += [(HALF, (i, j, m - h, h)) for h in range(lo, hi + 1)]
    return _lie_sum(summands)


def _apply_mode_sum(key, pairs, m: int, u: State) -> State:
    """Apply the sum of L[i,j](m) over the index pairs to a homogeneous state."""
    if u.is_zero():
        return u
    _degree(u)

    def image(mono):
        depth = monomial_degree(mono)
        op = memo(("Lop", pairs, m, depth), _mode_sum, pairs, m, depth)
        return act(op, State.from_monomial(mono)).terms

    return apply(key, image, u)


def act_L(i: int, j: int, m: int, u: State, d: int | None = None) -> State:
    """Apply the mode-sum operator L[i,j](m) to a homogeneous state."""
    _validate_index(i, d)
    _validate_index(j, d)
    return _apply_mode_sum(("L", i, j, m), ((i, j),), m, u)


def act_L_total(m: int, u: State, d: int) -> State:
    """Sum of the diagonal mode operators: the full Virasoro mode of weight m."""
    pairs = tuple((i, i) for i in range(1, d + 1))
    return _apply_mode_sum(("Lsum", m, d), pairs, m, u)


def binom(a: int, k: int) -> int:
    """Generalized binomial coefficient C(a, k) for integer a, k >= 0."""
    if k < 0:
        return 0
    out = 1
    for t in range(k):
        out = out * (a - t) // (t + 1)
    return out


def vertex_mode(i: int, j: int, m: int, n: int, l: int, u: State, d: int | None = None) -> State:
    """The weight-l vertex mode of v[i,j](m,n) applied to a homogeneous state.

    Uses the closed binomial formula, which holds for distinct oscillator
    indices and a lowering pair; other inputs are rejected.
    """
    _validate_index(i, d)
    _validate_index(j, d)
    if i == j:
        raise ValueError("the closed vertex-mode formula needs distinct oscillator indices")
    if m >= 0 or n >= 0:
        raise ValueError("vertex modes are taken of lowering pairs (m, n < 0)")
    if u.is_zero():
        return u
    depth = _degree(u)
    op = memo(("Vop", i, j, m, n, l, depth), _vertex_operator, i, j, m, n, l, depth)
    return act(op, u)


def _vertex_operator(i: int, j: int, m: int, n: int, l: int, depth: int) -> LieElement:
    """The closed binomial form of vertex_mode, truncated for degree depth, as one operator."""
    lo, hi = _window(l + m + n + 1, depth)
    sign = 1 if (m + n) % 2 == 0 else -1
    summands = []
    for k in range(lo, hi + 1):
        weight = binom(l + n - k, -m - 1) * binom(k - n - 1, -n - 1)
        if weight:
            summands.append((sign * weight, (i, j, l + m + n + 1 - k, k)))
    return _lie_sum(summands)


def vertex_mode_by_recursion(i: int, j: int, m: int, n: int, l: int, u: State) -> State:
    """Independent vertex-mode oracle built from commutators with L[i,i](-1).

    Base case: the mode of v[i,j](-1,-1) is twice the mode sum L[i,j](l-1).
    Each unit decrease of m costs one commutator with L[i,i](-1) and a
    factor 1/(-m-1); decreases of n are handled by swapping the two slots.
    The recursion runs on one basis monomial at a time, and each image is
    memoised through fock.apply, so no (mode, monomial) pair is expanded twice.
    """
    if i == j:
        raise ValueError("vertex modes are defined for distinct oscillator indices")
    if m >= 0 or n >= 0:
        raise ValueError("vertex modes are taken of lowering pairs (m, n < 0)")
    if m == -1 and n < -1:
        return vertex_mode_by_recursion(j, i, n, m, l, u)
    if u.is_zero():
        return u
    _degree(u)

    def image(mono):
        v = State.from_monomial(mono)
        if m == -1:
            return act_L(i, j, l - 1, v).scale(2).terms
        inner = vertex_mode_by_recursion(i, j, m + 1, n, l, v)
        right = vertex_mode_by_recursion(i, j, m + 1, n, l, act_L(i, i, -1, v))
        return (act_L(i, i, -1, inner) - right).scale(Fraction(1, -m - 1)).terms

    return apply(("V", i, j, m, n, l), image, u)


def binomial_matrix_det(L: int, M: int) -> Fraction:
    """Exact determinant of the M x M matrix with entries C(L+p-N, p-1)."""
    if M < 1:
        raise ValueError("matrix size must be at least 1")
    rows = [[binom(L + p - N, p - 1) for N in range(1, M + 1)] for p in range(1, M + 1)]
    mat, pivots, sign = fraction_free_rref(rows, M, operator.floordiv)
    if len(pivots) < M:
        return Fraction(0)
    return Fraction(sign * mat[-1][-1])


def virasoro_bracket_probe(m: int, n: int, u: State, d: int) -> State:
    """Measure [L(m), L(n)] - (m - n) L(m+n) on a homogeneous state.

    By the Virasoro relation with central charge d*r this must equal
    delta_{m+n,0} (m^3 - m)/12 * d*r times the input.
    """
    left = act_L_total(m, act_L_total(n, u, d), d)
    right = act_L_total(n, act_L_total(m, u, d), d)
    linear = act_L_total(m + n, u, d)
    return left - right - linear.scale(m - n)


def virasoro_central_term(m: int, n: int, u: State, d: int) -> State:
    """Expected probe value: delta_{m+n,0} (m^3 - m)/12 * d*r times the state."""
    if m + n != 0:
        return State.zero()
    return u.scale(R * (d * Fraction(m**3 - m, 12)))
