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

Each operator has one form: fock's id form, (generator id, int) pairs,
built once per degree, truncated to that degree's window, and memoised
through fock.memo.  Each summand is put in canonical slot order by
liealg._normal_order, and none has a normal-ordering constant, so the form
has no UNIT term: the diagonal zero modes are written normally ordered,
every other diagonal summand has mode sum m != 0, and a mixed summand
holds two distinct oscillators.  A mode sum is kept doubled, as
2 L[i,j](m), so its coefficients are integers and its images lie in Z[r];
the image of each monomial is memoised under (("L", pairs, m), mid), one
key for act_L, the probe and the oracle alike.  The recursion oracle
carries an integer multiple U = c(m, n) V of the vertex mode V; it calls
only the mode-sum layer, so it stays independent of the binomial formula.

Every public operator is a one-line wrapper of its id function
(_mode_sum_ids, _vertex_ids, _recursion_ids, _probe_ids) that crosses the
State boundary once each way, in _through_ids: a zero state comes back
unchanged, the state must be homogeneous, and the id sum is divided once
on the way back, by 2 for a mode sum, by 4 for the probe and by c(m, n)
for the oracle.  No degree crosses with it: an operator that needs one
reads it off a monomial of its own id sum, as _mode_sum_image does per
monomial and _vertex_ids once.  The battery's checks 5 and 10 call the
id functions themselves, and _central, the probe's expected value as the
same multiple, so they never cross the boundary.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from .fock import (
    _DEGREES,
    MIXED,
    State,
    _add_scaled,
    _gen_id,
    _ids_of,
    _state_of,
    act_ids,
    degree_of,
    memo,
)
from .liealg import _normal_order, _validate_index
from .scalar import fraction_free_rref

__all__ = [
    "act_L",
    "vertex_mode",
    "vertex_mode_by_recursion",
    "binom",
    "binomial_matrix_det",
    "virasoro_bracket_probe",
]


def _through_ids(u: State, image, divisor: int = 1) -> State:
    """image(vec) on a homogeneous state u, as vec on monomial ids, and the id sum
    it returns divided by divisor, as a State.

    A zero state comes back unchanged; a one-term state is homogeneous with
    no scan of its support, and a mixed state is rejected.
    """
    if u.is_zero():
        return u
    if len(u.terms) > 1 and degree_of(u) == MIXED:
        raise ValueError("operator sums need a homogeneous input state")
    return _state_of(image(_ids_of(u)), divisor)


def _id_form(summands) -> tuple:
    """The sum of weight * v[i,j](m,n) over (weight, i, j, m, n) summands, in id form.

    Each summand is put in canonical slot order; none may have a
    normal-ordering constant, which this form has no term for.
    """
    acc: dict = {}
    for weight, i, j, m, n in summands:
        if weight:
            gid = _gen_id(_normal_order((i, m), (j, n))[0])
            acc[gid] = acc.get(gid, 0) + weight
    return tuple(acc.items())


def _mode_sum(pairs, m: int, depth: int) -> tuple:
    """Twice the sum of L[i,j](m) over the index pairs, truncated for degree depth, in id form.

    Doubled, every coefficient is an integer.
    """
    lo, hi = m - depth + 1, depth - 1
    summands = []
    for i, j in pairs:
        if i == j and m == 0:
            summands.append((1, i, i, 0, 0))
            summands += [(2, i, i, -h, h) for h in range(max(lo, 1), hi + 1)]
        else:
            summands += [(1, i, j, m - h, h) for h in range(lo, hi + 1)]
    return _id_form(summands)


def _on_ids(key, image, vec: dict, *args) -> dict:
    """An operator on a sum on monomial ids, from its images image(*args, mid) of single
    basis monomials, each memoised under (key, mid); key must name the operator uniquely."""
    acc: dict = {}
    for mid, c in vec.items():
        _add_scaled(acc, memo((key, mid), image, *args, mid).items(), c)
    return acc


def _mode_sum_image(pairs, m: int, mid: int) -> dict:
    """2 L(m), summed over the index pairs, on the basis monomial of id mid."""
    depth = _DEGREES[mid]
    return act_ids(memo(("Lop", pairs, m, depth), _mode_sum, pairs, m, depth), {mid: 1})


def _mode_sum_ids(pairs, m: int, vec: dict) -> dict:
    """2 L(m), summed over the index pairs, on a homogeneous sum on monomial ids."""
    return _on_ids(("L", pairs, m), _mode_sum_image, vec, pairs, m)


def act_L(i: int, j: int, m: int, u: State) -> State:
    """Apply the mode-sum operator L[i,j](m) to a homogeneous state."""
    _validate_index(i)
    _validate_index(j)
    return _through_ids(u, lambda vec: _mode_sum_ids(((i, j),), m, vec), 2)


def binom(a: int, k: int) -> int:
    """Generalized binomial coefficient C(a, k) for integer a, k >= 0."""
    if k < 0:
        return 0
    out = 1
    for t in range(k):
        out = out * (a - t) // (t + 1)
    return out


def vertex_mode(i: int, j: int, m: int, n: int, l: int, u: State) -> State:
    """The weight-l vertex mode of v[i,j](m,n) applied to a homogeneous state.

    Uses the closed binomial formula, which holds for distinct oscillator
    indices and a lowering pair; other inputs are rejected.
    """
    _validate_index(i)
    _validate_index(j)
    if i == j:
        raise ValueError("the closed vertex-mode formula needs distinct oscillator indices")
    if m >= 0 or n >= 0:
        raise ValueError("vertex modes are taken of lowering pairs (m, n < 0)")
    return _through_ids(u, lambda vec: _vertex_ids(i, j, m, n, l, vec))


def _vertex_ids(i: int, j: int, m: int, n: int, l: int, vec: dict) -> dict:
    """vertex_mode on a nonzero homogeneous sum on monomial ids, of the degree of its first."""
    depth = _DEGREES[next(iter(vec))]
    ops = memo(("Vop", i, j, m, n, l, depth), _vertex_operator, i, j, m, n, l, depth)
    return act_ids(ops, vec)


def _vertex_operator(i: int, j: int, m: int, n: int, l: int, depth: int) -> tuple:
    """The closed binomial form of vertex_mode, truncated for degree depth, in id form."""
    center = l + m + n + 1
    sign = 1 if (m + n) % 2 == 0 else -1
    return _id_form(
        (sign * binom(l + n - k, -m - 1) * binom(k - n - 1, -n - 1), i, j, center - k, k)
        for k in range(center - depth + 1, depth)
    )


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
    shift = ((i, i),)  # 2 L[i,i](-1)
    acc = _mode_sum_ids(shift, -1, _recursion_ids(i, j, m + 1, n, l, {mid: 1}))
    shifted = _recursion_ids(i, j, m + 1, n, l, _mode_sum_ids(shift, -1, {mid: 1}))
    _add_scaled(acc, shifted.items(), -1)
    return acc


def _recursion_ids(i: int, j: int, m: int, n: int, l: int, vec: dict) -> dict:
    """U(m, n) of the oracle on a homogeneous sum on monomial ids."""
    if m == -1 and n < -1:
        i, j, m, n = j, i, n, m
    if m == -1:
        return _mode_sum_ids(((i, j),), l - 1, vec)  # U(-1, -1)
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
    return _through_ids(u, lambda vec: _recursion_ids(i, j, m, n, l, vec), _multiple(m, n))


def _binomial_rows(L: int, M: int) -> list:
    """The rows of the M x M transfer matrix, with entries C(L+p-N, p-1)."""
    return [[binom(L + p - N, p - 1) for N in range(1, M + 1)] for p in range(1, M + 1)]


def _int_det(rows: list) -> Fraction:
    """Exact determinant of a nonempty square int matrix, by the one eliminator.

    Its last row comes out zero when the rank falls short, so its last
    entry is sign * D or 0.
    """
    mat, _, sign = fraction_free_rref(rows, len(rows), operator.floordiv)
    return Fraction(sign * mat[-1][-1])


def binomial_matrix_det(L: int, M: int) -> Fraction:
    """Exact determinant of the M x M matrix with entries C(L+p-N, p-1)."""
    if M < 1:
        raise ValueError("matrix size must be at least 1")
    return _int_det(_binomial_rows(L, M))


def virasoro_bracket_probe(m: int, n: int, u: State, d: int) -> State:
    """Measure [L(m), L(n)] - (m - n) L(m+n) on a homogeneous state.

    By the Virasoro relation with central charge d*r this must equal
    delta_{m+n,0} (m^3 - m)/12 * d*r times the input.  The three images
    are summed on ids as 4 times the probe (_probe_ids), and divided once.
    """
    pairs = tuple((i, i) for i in range(1, d + 1))
    return _through_ids(u, lambda vec: _probe_ids(pairs, m, n, vec), 4)


def _probe_ids(pairs, m: int, n: int, vec: dict) -> dict:
    """4 times the probe, summed over the diagonal index pairs, on a homogeneous sum on ids,
    from the doubled mode sums."""
    acc = _mode_sum_ids(pairs, m, _mode_sum_ids(pairs, n, vec))
    _add_scaled(acc, _mode_sum_ids(pairs, n, _mode_sum_ids(pairs, m, vec)).items(), -1)
    if m != n:
        _add_scaled(acc, _mode_sum_ids(pairs, m + n, vec).items(), -2 * (m - n))
    return acc


def _central(m: int, n: int, d: int) -> int:
    """4 times the r-coefficient of the probe's expected value: 4 delta_{m+n,0} d (m^3 - m)/12,
    an integer, as 6 divides (m - 1) m (m + 1)."""
    return d * (m**3 - m) // 3 if m + n == 0 else 0
