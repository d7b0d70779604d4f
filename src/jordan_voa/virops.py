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
its window, becomes one LieElement, memoised per degree in its id form
(fock._op_ids) through fock.memo, and acts on monomial ids through
fock.act_ids.  A mode sum is kept doubled, as 2 L[i,j](m), whose
coefficients are all integers, so its images lie in Z[r]; each image is
memoised per monomial id under (key, mid).  act_L, act_L_total and the
Virasoro probe divide once, on the way back to a State.  The recursion
oracle carries an integer multiple U = c(m, n) V of the vertex mode V and
divides by c(m, n) once at the end; it calls only the mode-sum layer, so it
stays independent of the binomial formula.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .fock import (
    _MONOS,
    MIXED,
    State,
    _add_scaled,
    _ids_of,
    _op_ids,
    _state_of,
    act_ids,
    degree_of,
    memo,
    monomial_degree,
)
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


def _degree(u: State) -> int:
    """The degree of a nonzero homogeneous state; a mixed one is rejected.

    A one-term state is homogeneous and is read off its monomial.
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
    """Twice the sum of L[i,j](m) over the index pairs, truncated for degree depth, as one operator.

    Doubled, every coefficient is an integer.
    """
    lo, hi = _window(m, depth)
    summands = []
    for i, j in pairs:
        if i == j and m == 0:
            summands.append((1, (i, i, 0, 0)))
            summands += [(2, (i, i, -h, h)) for h in range(max(lo, 1), hi + 1)]
        else:
            summands += [(1, (i, j, m - h, h)) for h in range(lo, hi + 1)]
    return _lie_sum(summands)


def _on_ids(key, image, vec: dict, *args) -> dict:
    """An operator on a sum on monomial ids, from its images image(*args, mid) of single
    basis monomials, each memoised under (key, mid); key must name the operator uniquely."""
    acc: dict = {}
    for mid, c in vec.items():
        _add_scaled(acc, memo((key, mid), image, *args, mid), c)
    return acc


def _mode_sum_image(pairs, m: int, mid: int) -> dict:
    """2 L(m), summed over the index pairs, on the basis monomial of id mid."""
    depth = monomial_degree(_MONOS[mid])
    ops = memo(("Lop", pairs, m, depth), lambda: _op_ids(_mode_sum(pairs, m, depth)))
    return act_ids(ops, {mid: 1})


def _mode_sum_ids(key, pairs, m: int, vec: dict) -> dict:
    """2 L(m), summed over the index pairs, on a homogeneous sum on monomial ids."""
    return _on_ids(key, _mode_sum_image, vec, pairs, m)


def _apply_mode_sum(key, pairs, m: int, u: State) -> State:
    """Apply the sum of L[i,j](m) over the index pairs to a homogeneous state."""
    if u.is_zero():
        return u
    _degree(u)
    return _state_of(_mode_sum_ids(key, pairs, m, _ids_of(u)), 2)


def act_L(i: int, j: int, m: int, u: State, d: int | None = None) -> State:
    """Apply the mode-sum operator L[i,j](m) to a homogeneous state."""
    _validate_index(i, d)
    _validate_index(j, d)
    return _apply_mode_sum(("L", i, j, m), ((i, j),), m, u)


def _diagonal(d: int) -> tuple:
    return tuple((i, i) for i in range(1, d + 1))


def act_L_total(m: int, u: State, d: int) -> State:
    """Sum of the diagonal mode operators: the full Virasoro mode of weight m."""
    return _apply_mode_sum(("Lsum", m, d), _diagonal(d), m, u)


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
    ops = memo(("Vop", i, j, m, n, l, depth),
               lambda: _op_ids(_vertex_operator(i, j, m, n, l, depth)))
    return _state_of(act_ids(ops, _ids_of(u)))


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


def _multiple(m: int, n: int) -> int:
    """c(m, n): the oracle's U(m, n) is c(m, n) times the vertex mode of v[i,j](m,n).

    U(-1, -1) is the mode itself; U(m, n) = [2 L[i,i](-1), U(m+1, n)] is
    2(-m-1) c(m+1, n) times it, and the slot swap U(-1, n) = U(n, -1), with
    the indices swapped, takes c(n, -1).
    """
    if m == -1:
        return 1 if n == -1 else _multiple(n, -1)
    return 2 * (-m - 1) * _multiple(m + 1, n)


def _recursion_image(i: int, j: int, m: int, n: int, l: int, mid: int) -> dict:
    """U(m, n) = [2 L[i,i](-1), U(m+1, n)] of the oracle on the basis monomial of id mid, m < -1."""

    def shift(vec):  # 2 L[i,i](-1)
        return _mode_sum_ids(("L", i, i, -1), ((i, i),), -1, vec)

    acc = shift(_recursion_ids(i, j, m + 1, n, l, {mid: 1}))
    _add_scaled(acc, _recursion_ids(i, j, m + 1, n, l, shift({mid: 1})), -1)
    return acc


def _recursion_ids(i: int, j: int, m: int, n: int, l: int, vec: dict) -> dict:
    """U(m, n) of the oracle on a homogeneous sum on monomial ids."""
    if m == -1 and n < -1:
        i, j, m, n = j, i, n, m
    if m == -1:
        return _mode_sum_ids(("L", i, j, l - 1), ((i, j),), l - 1, vec)  # U(-1, -1)
    return _on_ids(("V", i, j, m, n, l), _recursion_image, vec, i, j, m, n, l)


def vertex_mode_by_recursion(i: int, j: int, m: int, n: int, l: int, u: State) -> State:
    """Independent vertex-mode oracle built from commutators with L[i,i](-1).

    It runs on monomial ids, on the integer multiple U = c(m, n) V of the
    mode V: U(-1, -1) = 2 L[i,j](l-1), each unit decrease of m is one
    commutator U(m, n) = [2 L[i,i](-1), U(m+1, n)], and decreases of n swap
    the two slots.  The sum is divided by c(m, n) once, on the way back to
    a State.  Each image is memoised per monomial, so no (mode, monomial)
    pair is expanded twice.  Only the mode sums are called, never the
    binomial formula.
    """
    if i == j:
        raise ValueError("vertex modes are defined for distinct oscillator indices")
    if m >= 0 or n >= 0:
        raise ValueError("vertex modes are taken of lowering pairs (m, n < 0)")
    if u.is_zero():
        return u
    _degree(u)
    return _state_of(_recursion_ids(i, j, m, n, l, _ids_of(u)), _multiple(m, n))


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
    delta_{m+n,0} (m^3 - m)/12 * d*r times the input.  The three images
    are summed on ids as 4 times the probe, from the doubled mode sums, and
    divided once.
    """
    if u.is_zero():
        return u
    _degree(u)
    pairs, vec = _diagonal(d), _ids_of(u)

    def total(k, v):  # 2 L(k)
        return _mode_sum_ids(("Lsum", k, d), pairs, k, v)

    acc = total(m, total(n, vec))
    _add_scaled(acc, total(n, total(m, vec)), -1)
    if m != n:
        _add_scaled(acc, total(m + n, vec), -2 * (m - n))
    return _state_of(acc, 4)


def virasoro_central_term(m: int, n: int, u: State, d: int) -> State:
    """Expected probe value: delta_{m+n,0} (m^3 - m)/12 * d*r times the state."""
    if m + n != 0:
        return State.zero()
    return u.scale(R * (d * Fraction(m**3 - m, 12)))
