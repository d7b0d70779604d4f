"""Weight-space dimensions from Kostka numbers: an oracle that shares no code with the basis.

A weight lam reads as a content alpha, the number of slots each lowering
mode v_k(l) fills.  The weight spaces are those of the symmetric algebra
S(S^2 U), U the span of the lowering modes, and by Littlewood's identity
(D. E. Littlewood, The Theory of Group Characters, 1950) S(S^2 U) is the
sum of the Schur functors S_mu(U) over the partitions mu with every part
even.  The alpha weight space of S_mu(U) has dimension K_{mu,alpha}, the
Kostka number: the semistandard tableaux of shape mu and content alpha.
So dim V_lam = sum of K_{mu,alpha} over even mu.

Kostka numbers are counted by horizontal strips, one strip per entry of
the content, and depend on the content only as a multiset.  Stdlib only.
"""

from functools import lru_cache

import pytest

from jordan_voa.fock import weight_space_basis, weights


def _partitions(n: int, largest: int | None = None):
    """Every partition of n into parts of at most largest, as a tuple of parts, descending."""
    if n == 0:
        yield ()
        return
    for part in range(min(n, n if largest is None else largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _strip_inner_shapes(shape: tuple, size: int):
    """Every partition nu inside shape with shape/nu a horizontal strip of size boxes.

    Such a nu interlaces shape: shape[i] >= nu[i] >= shape[i+1] in every row.
    """
    if not shape:
        if size == 0:
            yield ()
        return
    below = shape[1] if len(shape) > 1 else 0
    for row in range(max(below, shape[0] - size), shape[0] + 1):
        for rest in _strip_inner_shapes(shape[1:], size - (shape[0] - row)):
            yield (row, *rest) if row else rest


@lru_cache(maxsize=None)
def kostka(shape: tuple, content: tuple) -> int:
    """K_{shape,content}: semistandard tableaux of this shape, content[i] entries equal to i+1.

    The entries equal to the last value fill a horizontal strip on the rim,
    so K is the sum of K_{nu, content[:-1]} over the inner shapes nu.
    """
    if not content:
        return 0 if shape else 1
    return sum(kostka(inner, content[:-1]) for inner in _strip_inner_shapes(shape, content[-1]))


def even_shape_count(content: tuple) -> int:
    """The sum of K_{mu,content} over the partitions mu with every part even."""
    total = sum(content)
    if total % 2:
        return 0
    content = tuple(sorted(content))
    return sum(kostka(tuple(2 * part for part in half), content)
               for half in _partitions(total // 2))


def test_kostka_numbers_of_small_shapes():
    assert kostka((2, 1), (1, 1, 1)) == 2  # the standard tableaux of shape (2, 1)
    assert kostka((3, 2), (1, 1, 1, 1, 1)) == 5
    assert kostka((2, 2), (2, 1, 1)) == 1
    assert kostka((4,), (1, 2, 1)) == 1
    assert kostka((1, 1), (2,)) == 0
    # S^2(S^2 U) = S_(4) + S_(2,2), both of dimension 1 at the content (2, 2)
    assert even_shape_count((2, 2)) == 2


@pytest.mark.parametrize("d, max_degree, count", [(1, 14, 507), (2, 10, 1214), (3, 8, 1653)])
def test_weight_space_dimensions_match_the_even_shape_kostka_sum(d, max_degree, count):
    lams = weights(max_degree, d)
    assert len(lams) == count
    mismatches = []
    for lam in lams:
        expected = even_shape_count(tuple(lam.counts.values()))
        if len(weight_space_basis(lam, d)) != expected:
            mismatches.append(str(lam))
    assert not mismatches
