"""Weight-space dimensions from Kostka numbers: an oracle that shares no code with the basis.

A weight lam reads as a content alpha, the number of slots each lowering
mode v_k(l) fills.  The weight spaces are those of the symmetric algebra
S(S^2 U), U the span of the lowering modes, and by Littlewood's identity
(D. E. Littlewood, The Theory of Group Characters, 1950) S(S^2 U) is the
sum of the Schur functors S_mu(U) over the partitions mu with every part
even.  The alpha weight space of S_mu(U) has dimension K_{mu,alpha}, the
Kostka number: the semistandard tableaux of shape mu and content alpha.
So dim V_lam = sum of K_{mu,alpha} over even mu.

The hook rule reads the radical of the contravariant form the same way.  At
an integer r0 take its minimal realisation by b bosons and f symplectic
fermion pairs, r0 = b - 2f: b = r0, f = 0 for r0 >= 0; b = 0, f = -r0/2 for
even r0 < 0; b = 1, f = (1 - r0)/2 for odd r0 < 0.  Then the radical at r0
has dimension the sum of K_{mu,alpha} over the even mu outside the (b|2f)
hook, those with mu_{b+1} > 2f, and that is r0's multiplicity as a root of
the Gram determinant at lam.  It is also the corank of the Gram matrix at
r0, which the engine's own action gives: the form's entry at monomials a and
b is the vacuum coefficient of sigma(a) b, sigma sending v[i,i](m,n) to
v[i,i](-n,-m) and v[i,j](m,n), i < j, to v[i,j](-m,-n).

Kostka numbers are counted by horizontal strips, one strip per entry of
the content, and depend on the content only as a multiset.  Stdlib only.
"""

from collections import Counter
from functools import lru_cache

import pytest

from jordan_voa.fock import State, act_word, weight_space_basis, weights
from jordan_voa.liealg import Generator
from jordan_voa.singular import kernel_basis


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
        if len(weight_space_basis(lam)) != expected:
            mismatches.append(str(lam))
    assert not mismatches


def minimal_realisation(r0: int) -> tuple:
    """(b, f), the fewest bosons b and fermion pairs f with b - 2f = r0."""
    if r0 >= 0:
        return r0, 0
    return (0, -r0 // 2) if r0 % 2 == 0 else (1, (1 - r0) // 2)


def hook_count(content: tuple, r0: int) -> int:
    """The sum of K_{mu,content} over the even mu outside the (b|2f) hook of r0's realisation."""
    total = sum(content)
    if total % 2:
        return 0
    b, f = minimal_realisation(r0)
    return sum(kostka(mu, content) for mu in (tuple(2 * part for part in half)
                                              for half in _partitions(total // 2))
               if len(mu) > b and mu[b] > 2 * f)


def hook_root_table(d: int, max_degree: int) -> dict:
    """r0 -> the hook counts at r0 summed over the weights up to max_degree, where nonzero.

    A content of n slots has no even mu outside any hook but for r0 in -n..n.
    """
    contents = Counter(tuple(sorted(lam.counts.values())) for lam in weights(max_degree, d))
    table = Counter()
    for content, count in contents.items():
        for r0 in range(-sum(content), sum(content) + 1):
            table[r0] += count * hook_count(content, r0)
    return {r0: total for r0, total in sorted(table.items()) if total}


ROOT_TABLES = {  # (d, max_degree) -> {r0: its multiplicity as a root, summed over weights}
    (1, 14): {-12: 1, -10: 5, -8: 18, -6: 56, -4: 155, -2: 346, -1: 6, 0: 480, 1: 226, 2: 6},
    (2, 8): {-6: 9, -4: 60, -2: 222, -1: 1, 0: 375, 1: 156, 2: 3},
    (3, 6): {-4: 28, -2: 166, 0: 338, 1: 127, 2: 1},
    (2, 12): {-10: 13, -8: 100, -6: 494, -4: 1739, -3: 1, -2: 3990, -1: 230, 0: 4993,
              1: 3422, 2: 380, 3: 1},
}


def test_minimal_realisations():
    assert [minimal_realisation(r0) for r0 in range(-4, 4)] == [
        (0, 2), (1, 2), (0, 1), (1, 1), (0, 0), (1, 0), (2, 0), (3, 0)]
    assert all(b - 2 * f == r0 for r0 in range(-20, 20) for b, f in [minimal_realisation(r0)])


@pytest.mark.parametrize("d, max_degree", list(ROOT_TABLES))
def test_hook_rule_root_tables(d, max_degree):
    """The root multiplicities of the Gram determinants, summed over weights, from the rule."""
    assert hook_root_table(d, max_degree) == ROOT_TABLES[(d, max_degree)]


def _sigma(gen: Generator) -> Generator:
    """The raising generator the form pairs with a lowering one: both modes negated."""
    if gen.i == gen.j:
        return Generator(gen.i, gen.j, -gen.n, -gen.m)
    return Generator(gen.i, gen.j, -gen.m, -gen.n)


def gram_matrix(basis: list) -> list:
    """Entry (a, b): the vacuum coefficient of sigma(a) b, by fock.act_word, in Q[r]."""
    states = [State.from_monomial(mono) for mono in basis]
    return [[act_word(map(_sigma, a), u).coefficient(()) for u in states] for a in basis]


CORANK_R0 = {  # (d, max_degree) -> the r0 at which each weight's corank is compared
    (1, 12): (-12, -10, -8, -6, *range(-5, 4)),
    (2, 8): tuple(range(-6, 4)),
    (3, 6): tuple(range(-4, 4)),
}


def corank_mismatches(d: int, max_degree: int) -> tuple:
    """(the (weight, r0) pairs compared, those whose Gram corank is not the hook count).

    The corank is the dimension of singular.kernel_basis of the Gram matrix at r0.
    """
    pairs, mismatches = 0, []
    for lam in weights(max_degree, d):
        basis = weight_space_basis(lam)
        if not basis:
            continue
        gram = gram_matrix(basis)
        content = tuple(sorted(lam.counts.values()))
        for r0 in CORANK_R0[(d, max_degree)]:
            at_r0 = [[entry.evaluate(r0) for entry in row] for row in gram]
            corank = len(kernel_basis(at_r0, len(basis)))
            pairs += 1
            if corank != hook_count(content, r0):
                mismatches.append((str(lam), r0, corank))
    return pairs, mismatches


@pytest.mark.parametrize("d, max_degree, pairs", [(1, 12, 1768), (2, 8, 2190), (3, 6, 1688)])
def test_gram_corank_is_the_hook_count_at_every_weight_and_r0(d, max_degree, pairs):
    """The radical at r0 has the hook rule's dimension, weight by weight.

    Of the planted-fault catalogue (faults.FAULTS) this comparison catches,
    at some scale: normal-order-negates-its-constant,
    pair-bracket-negates-its-constant, pair-bracket-adds-one-to-its-constant,
    pair-bracket-doubles-its-terms-from-mode-4 (not at d = 3),
    pair-bracket-negates-its-constant-at-a-wide-mode (2, 8 and 0 pairs at
    the three scales), the battery's escape
    pair-bracket-negates-its-constant-for-a-mixed-pair-at-a-wide-mode (0, 4
    and 0 pairs), contraction-ignores-the-index (not at d = 1),
    census-counts-only-the-first-slot, census-counts-a-factors-slots-as-a-set,
    act-id-drops-its-constant, and state-of-leaves-its-coefficients-bare, on
    which it raises.  It misses every other entry.
    """
    assert corank_mismatches(d, max_degree) == (pairs, [])


def test_gram_corank_catches_the_wide_mode_constant_fault(plant):
    """Check 2 alone catches this fault in the small battery; the corank test sees it at d = 2."""
    plant("pair-bracket-negates-its-constant-at-a-wide-mode")
    pairs, mismatches = corank_mismatches(2, 8)
    assert pairs == 2190 and len(mismatches) == 8
