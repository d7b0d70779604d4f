"""Canonicalization and the deformed bracket.

_straighten and _contracts are the independent reference: a general
recursive normal ordering of mode words, and the contraction test, against
which the one-swap canonicalize and the closed-form _pair_bracket are checked.
"""

import itertools
import random

import pytest

from jordan_voa.liealg import (
    UNIT,
    Generator,
    LieElement,
    _pair_bracket,
    _partner_modes,
    bracket_r,
    canonical_generators,
    canonicalize,
    parse_generator_literal,
)
from jordan_voa.scalar import R


def _straighten(word, coeff, out):
    """Accumulate coeff times the normal form of a product of modes.

    A word is a tuple of (index, mode) pairs; the normal form sorts pairs
    weakly increasingly, picking up contraction terms from each swap.
    """
    for pos in range(len(word) - 1):
        x = word[pos]
        y = word[pos + 1]
        if x > y:
            swapped = word[:pos] + (y, x) + word[pos + 2 :]
            _straighten(swapped, coeff, out)
            if x[0] == y[0] and x[1] + y[1] == 0:
                _straighten(word[:pos] + word[pos + 2 :], coeff * x[1], out)
            return
    out[word] = out.get(word, 0) + coeff


def _contracts(g, h, partner_modes=_partner_modes):
    """Whether a mode of h is one of partner_modes(g).

    With liealg._partner_modes, every other pair of modes commutes, so
    [g, h] = 0 when this is false; the relation is symmetric.
    """
    h_modes = ((h.i, h.m), (h.j, h.n))
    return any(mode in h_modes for mode in partner_modes(g))


def gen_elem(i, j, m, n):
    return canonicalize(i, j, m, n)


def test_canonicalize_swap():
    assert canonicalize(2, 1, -1, -2) == LieElement.from_generator(Generator(1, 2, -2, -1))


def test_canonicalize_contraction_constant():
    expected = LieElement.from_generator(Generator(1, 1, -3, 3)) + LieElement.constant(3)
    assert canonicalize(1, 1, 3, -3) == expected


def test_canonicalize_already_canonical():
    assert canonicalize(1, 2, 0, 5) == LieElement.from_generator(Generator(1, 2, 0, 5))


def _typed(terms):
    return {key: (coeff, [type(c) for c in coeff]) for key, coeff in terms.items()}


def test_canonicalize_matches_the_straightened_normal_form():
    """The one-swap closed form equals _straighten's normal form, coefficient types included."""
    quads = list(itertools.product(range(1, 4), range(1, 4), range(-7, 8), range(-7, 8)))
    assert len(quads) == 2025
    for i, j, m, n in quads:
        out = {}
        _straighten(((i, m), (j, n)), 1, out)
        expected = LieElement({
            Generator(word[0][0], word[1][0], word[0][1], word[1][1]) if word else UNIT: coeff
            for word, coeff in out.items()
        })
        assert _typed(canonicalize(i, j, m, n).terms) == _typed(expected.terms), (i, j, m, n)


def test_canonicalize_index_validation():
    with pytest.raises(ValueError):
        canonicalize(0, 1, 1, 1)
    with pytest.raises(ValueError):
        canonicalize(1, 3, 1, 1, d=2)
    canonicalize(1, 3, 1, 1, d=3)


def test_bracket_diagonal_pair_example():
    # [v(1,2), v(-2,-1)] = 2 v(-1,1) + v(-2,2) + 2, deformed constant 2r
    deformed = bracket_r(gen_elem(1, 1, 1, 2), gen_elem(1, 1, -2, -1))
    expected = (
        LieElement.from_generator(Generator(1, 1, -1, 1), 2)
        + LieElement.from_generator(Generator(1, 1, -2, 2))
    )
    assert deformed == expected + LieElement.constant(2 * R)


def test_bracket_self_and_disjoint():
    x = gen_elem(1, 1, -1, 2)
    assert bracket_r(x, x).is_zero()
    assert bracket_r(gen_elem(1, 1, -1, -1), gen_elem(2, 2, -1, -1)).is_zero()


def test_bracket_r_exchange_examples():
    # [v(-1,2), v(-2,-3)]_r = 2 v(-1,-3); [v(2,2), v(-2,-3)]_r = 4 v(-3,2)
    assert bracket_r(gen_elem(1, 1, -1, 2), gen_elem(1, 1, -2, -3)) == LieElement.from_generator(
        Generator(1, 1, -3, -1), 2
    )
    assert bracket_r(gen_elem(1, 1, 2, 2), gen_elem(1, 1, -2, -3)) == LieElement.from_generator(
        Generator(1, 1, -3, 2), 4
    )


def _canonical_generators(bound, d):
    out = []
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            for m in range(-bound, bound + 1):
                for n in range(-bound, bound + 1):
                    if i == j and m > n:
                        continue
                    out.append(Generator(i, j, m, n))
    return out


def test_antisymmetry_small_exhaustive():
    gens = _canonical_generators(2, 2)
    for x, y in itertools.product(gens, repeat=2):
        assert (bracket_r(x, y) + bracket_r(y, x)).is_zero()


def test_jacobi_sampled():
    rng = random.Random(7)
    gens = _canonical_generators(4, 2)
    for _ in range(400):
        x, y, z = (rng.choice(gens) for _ in range(3))
        total = (
            bracket_r(x, bracket_r(y, z))
            + bracket_r(y, bracket_r(z, x))
            + bracket_r(z, bracket_r(x, y))
        )
        assert total.is_zero(), (x, y, z)


def test_lowering_generators_commute():
    gens = [g for g in _canonical_generators(3, 2) if g.is_lowering()]
    for x, y in itertools.combinations(gens, 2):
        assert bracket_r(x, y).is_zero()


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 6) for n in range(m, 6)])
def test_diagonal_pair_closed_form(m, n):
    """[v(m,n), v(-n,-m)]_r has the closed expansion, symbolically in r."""
    mult = 2 if m == n else 1
    expected = (
        LieElement.from_generator(Generator(1, 1, -m, m), n * mult)
        + LieElement.from_generator(Generator(1, 1, -n, n), m * mult)
        + LieElement.constant(R * (m * n * mult))
    )
    assert bracket_r(gen_elem(1, 1, m, n), gen_elem(1, 1, -n, -m)) == expected


def test_exchange_formulas_symbolic_sweep():
    """The two lowering-exchange bracket formulas over a range of modes."""
    for s in range(1, 5):
        for t in range(1, 5):
            for m in range(1, 5):
                for n in range(1, 5):
                    got = bracket_r(gen_elem(1, 1, -m, n), gen_elem(1, 1, -s, -t))
                    expected = LieElement.zero()
                    if n == s:
                        expected = expected + LieElement.from_generator(
                            Generator(1, 1, -max(m, t), -min(m, t)), n
                        )
                    if n == t:
                        expected = expected + LieElement.from_generator(
                            Generator(1, 1, -max(s, m), -min(s, m)), n
                        )
                    assert got == expected, (m, n, s, t)
            if s != t:
                for m in range(1, 5):
                    got = bracket_r(gen_elem(1, 1, m, m), gen_elem(1, 1, -s, -t))
                    expected = LieElement.zero()
                    if m == s:
                        expected = expected + LieElement.from_generator(
                            Generator(1, 1, -t, m), 2 * m
                        )
                    if m == t:
                        expected = expected + LieElement.from_generator(
                            Generator(1, 1, -s, m), 2 * m
                        )
                    assert got == expected, (m, s, t)


def test_generator_literal_parsing():
    assert parse_generator_literal("v[1,2](-1,3)") == (1, 2, -1, 3)
    assert parse_generator_literal(" v[ 2 , 1 ]( 0 , -5 ) ") == (2, 1, 0, -5)
    with pytest.raises(ValueError):
        parse_generator_literal("w[1,2](3,4)")


def test_element_formatting():
    elem = bracket_r(gen_elem(1, 1, 1, 2), gen_elem(1, 1, -2, -1))
    assert str(elem) == "2*v[1,1](-1,1) + v[1,1](-2,2) + 2*r"
    assert str(-elem) == "-2*v[1,1](-1,1) - 1*v[1,1](-2,2) - 2*r"
    assert str(LieElement.zero()) == "0"


def test_lie_element_requires_canonical_generators():
    with pytest.raises(ValueError):
        LieElement.from_generator(Generator(2, 1, 0, 0))
    with pytest.raises(ValueError):
        LieElement.from_generator(Generator(1, 1, 3, -3))


def test_scale_and_linearity():
    x = gen_elem(1, 1, 1, 2)
    y = gen_elem(1, 1, -2, -1)
    lhs = bracket_r(x.scale(3), y)
    assert lhs == bracket_r(x, y).scale(3)
    assert bracket_r(x + y, y) == bracket_r(x, y) + bracket_r(y, y)


def _mode_commutator(x, y):
    """[v_i(m), v_j(n)] = delta_{i,j} delta_{m+n,0} m for modes x = (i, m), y = (j, n)."""
    return x[1] if x[0] == y[0] and x[1] + y[1] == 0 else 0


def _leibniz_bracket(g, h):
    """[ab, cd]_r from the Leibniz rule on the four modes, independent of normal ordering.

    [ab, cd] = [b,c] ad + [b,d] ac + [a,c] db + [a,d] cb, each product
    canonicalized; then the constant is scaled by r.
    """
    a, b, c, d = (g.i, g.m), (g.j, g.n), (h.i, h.m), (h.j, h.n)
    total = LieElement()
    for scalar, (x, y) in (
        (_mode_commutator(b, c), (a, d)),
        (_mode_commutator(b, d), (a, c)),
        (_mode_commutator(a, c), (d, b)),
        (_mode_commutator(a, d), (c, b)),
    ):
        if scalar:
            total = total + canonicalize(x[0], y[0], x[1], y[1]).scale(scalar)
    const = total.coefficient(UNIT)
    return total + LieElement.constant(const * R - const)


def _assert_leibniz_brackets(pairs, constants):
    """Each pair's bracket, its coefficient of r included, is the Leibniz one;
    the distinct pairs with a nonzero constant number exactly constants.
    Returns how many pairs have a nonzero bracket."""
    nonzero = 0
    with_constant = set()
    for g, h in pairs:
        expected = _leibniz_bracket(g, h)
        terms, const = _pair_bracket(g, h)
        assert LieElement(dict(terms)) + LieElement.constant(R * const) == expected, (g, h)
        nonzero += not expected.is_zero()
        if const:
            with_constant.add((g, h))
    assert len(with_constant) == constants
    return nonzero


def test_pair_bracket_matches_the_leibniz_rule():
    gens = canonical_generators(2, 2)
    assert _assert_leibniz_brackets([(g, h) for g in gens for h in gens], 20) > len(gens)


def test_pair_bracket_matches_the_leibniz_rule_at_the_sampled_scale():
    """Check 1's sampled scale (bound 6, d = 3): the pairs that can carry a constant.

    A constant needs both modes of g to contract, so h is the generator of
    the negated modes; 342 such pairs, those whose two modes share a sign,
    have one.  Then 1000 seeded pairs that contract at all.
    """
    gens = canonical_generators(6, 3)
    # max skips the UNIT key canonicalize may emit: UNIT sorts before every generator
    pairs = [(g, max(canonicalize(g.i, g.j, -g.m, -g.n).terms)) for g in gens if g.m and g.n]
    sampled = len(pairs) + 1000
    rng = random.Random(3)
    while len(pairs) < sampled:
        g, h = rng.choice(gens), rng.choice(gens)
        if _contracts(g, h):
            pairs.append((g, h))
    assert _assert_leibniz_brackets(pairs, 342) > 342


def _straightened_commutator(g, h):
    """g h - h g in normal order by _straighten alone, zero terms dropped."""
    out: dict = {}
    wg = ((g.i, g.m), (g.j, g.n))
    wh = ((h.i, h.m), (h.j, h.n))
    _straighten(wg + wh, 1, out)
    _straighten(wh + wg, -1, out)
    return {word: c for word, c in out.items() if c}


def _shortcut_misses(partner_modes, gens):
    """The ordered pairs a partner-mode rule skips although their commutator is nonzero."""
    return [
        (g, h) for g in gens for h in gens
        if not _contracts(g, h, partner_modes) and _straightened_commutator(g, h)
    ]


def test_pairs_that_do_not_contract_commute():
    """_partner_modes, the rule suite._int_bracket_table skips pairs by, skips only zero brackets."""
    gens = canonical_generators(3, 3)
    assert _shortcut_misses(_partner_modes, gens) == []

    # a rule on the first slots alone misses brackets, v[i,i](-x,x) ones among them
    def first_slots_only(g):
        return [(g.i, -g.m)] if g.m else []

    missed = _shortcut_misses(first_slots_only, gens)
    assert missed
    assert any(g.i == g.j and g.m == -g.n != 0 for g, _ in missed)


def _contracting_pairs(gens):
    """The ordered pairs (g, h) of gens that contract, found through each mode's holders."""
    holders: dict = {}
    for h in gens:
        for mode in ((h.i, h.m), (h.j, h.n)):
            holders.setdefault(mode, []).append(h)
    return [(g, h) for g in gens
            for h in dict.fromkeys(h for mode in _partner_modes(g) for h in holders.get(mode, ()))]


def test_closed_form_matches_the_straightened_commutator():
    """Every contracting pair at check 1's sampled scale (bound 6, d = 3), as int dicts."""
    pairs = _contracting_pairs(canonical_generators(6, 3))
    assert len(pairs) == 54126
    for g, h in pairs:
        expected = _straightened_commutator(g, h)
        const = expected.pop((), 0)
        terms, got_const = _pair_bracket(g, h)
        assert dict(terms) == {
            Generator(wi, wj, wm, wn): c for ((wi, wm), (wj, wn)), c in expected.items()
        }, (g, h)
        assert got_const == const, (g, h)
        assert all(type(c) is int for _, c in terms) and type(got_const) is int, (g, h)


def test_pairs_that_do_not_contract_share_one_zero_bracket():
    """Each cached non-contracting pair holds the one ((), 0), not a tuple of its own."""
    gens = canonical_generators(3, 3)
    zero = _pair_bracket(Generator(1, 1, -1, -1), Generator(2, 2, -1, -1))
    assert zero == ((), 0)
    skipped = [(g, h) for g in gens for h in gens if not _contracts(g, h)]
    assert len(skipped) == 45576
    assert all(_pair_bracket(g, h) is zero for g, h in skipped)
