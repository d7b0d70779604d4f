"""Quadratic oscillator generators and the deformed commutator.

The building blocks are modes v_i(m) of d independent oscillators obeying
[v_i(m), v_j(n)] = delta_{m+n,0} delta_{i,j} m after the central element is
set to 1.  A Generator is the quadratic element v[i,j](m,n) = v_i(m) v_j(n)
of the mode algebra; the canonical basis consists of v[i,j](m,n) with i < j
(any m, n) together with v[i,i](m,n) with m <= n.  Rewriting an arbitrary
quadratic into that basis takes at most one swap, XY = YX + [X, Y], which
can emit an additive constant, e.g. v[i,i](m,-m) = v[i,i](-m,m) + m for
m > 0; _normal_order is that rule.

The span of the canonical generators plus constants is closed under the
commutator.  A LieElement is one such combination; its constant is the
coefficient of UNIT, the empty word of modes, which acts as the identity.
Scaling the constant part of a commutator by the parameter r gives the
deformed bracket, bracket_r; beneath it _pair_bracket keeps the integer
form, integer structure constants and the integer coefficient of r, in
closed form: four mode contractions, each times a normal-ordered product.
_contract tells whether a pair can have a nonzero bracket at all, and
_closed_pair_bracket is the closed form without the memo, for a caller
that caches its own pairs (the table of the battery's checks 1 and 3).
All values are immutable and all functions are pure, so everything is
thread-safe.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import lru_cache

from .scalar import ONE, R, Combination, add_into

__all__ = [
    "Generator",
    "LieElement",
    "UNIT",
    "canonical_generators",
    "canonicalize",
    "bracket_r",
    "parse_generator_literal",
]


class Generator(namedtuple("Generator", "i j m n")):
    """Canonical quadratic mode pair v[i,j](m,n)."""

    __slots__ = ()

    def is_lowering(self) -> bool:
        """Both modes negative: the generator multiplies into the module basis."""
        return self.m < 0 and self.n < 0

    def is_canonical(self) -> bool:
        return self.i < self.j or (self.i == self.j and self.m <= self.n)

    def __str__(self):
        return f"v[{self.i},{self.j}]({self.m},{self.n})"


def canonical_generators(bound: int, d: int) -> list:
    """All canonical generators over d oscillators with both modes in [-bound, bound]."""
    out = []
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            for m in range(-bound, bound + 1):
                for n in range(-bound, bound + 1):
                    if i == j and m > n:
                        continue
                    out.append(Generator(i, j, m, n))
    return sorted(out)


def _validate_index(value: int, d: int | None = None):
    if not isinstance(value, int) or value < 1 or (d is not None and value > d):
        top = d if d is not None else "d"
        raise ValueError(f"oscillator index {value} out of range 1..{top}")


UNIT = ()  # the empty word of modes: the identity, sorting before every Generator


def _contraction(x, y) -> int:
    """[X, Y] = delta_{i,j} delta_{m+n,0} m for modes x = (i, m), y = (j, n)."""
    return x[1] if x[0] == y[0] and x[1] + y[1] == 0 else 0


def _normal_order(x, y):
    """The product XY of modes x, y in normal order: (canonical generator, integer constant).

    XY is canonical when x <= y; otherwise XY = YX + [X, Y], one swap.
    """
    if x <= y:
        return Generator(x[0], y[0], x[1], y[1]), 0
    return Generator(y[0], x[0], y[1], x[1]), _contraction(x, y)


class LieElement(Combination):
    """A finite Q[r]-combination of canonical generators and UNIT.

    The constant of an element is its coefficient of UNIT, so all the
    arithmetic is the Combination one.
    """

    __slots__ = ()

    def _check_key(self, key):
        if key != UNIT and not key.is_canonical():
            raise ValueError(f"{key} is not in canonical form")

    @classmethod
    def from_generator(cls, gen: Generator, coeff=ONE) -> "LieElement":
        return cls({gen: coeff})

    @classmethod
    def constant(cls, value) -> "LieElement":
        return cls({UNIT: value})

    def __str__(self):
        return self._signed_sum(
            (str(key) if key != UNIT else None, self.terms[key])
            for key in sorted(self.terms, reverse=True)
        )


def canonicalize(i: int, j: int, m: int, n: int) -> LieElement:
    """Rewrite a raw quadruple v[i,j](m,n) into the canonical basis by _normal_order."""
    _validate_index(i)
    _validate_index(j)
    gen, const = _normal_order((i, m), (j, n))
    return LieElement({gen: 1, UNIT: const} if const else {gen: 1})


def _partner_modes(g: Generator) -> list:
    """The modes v_k(-x) that contract with a nonzero mode v_k(x) of g."""
    return [(k, -x) for k, x in ((g.i, g.m), (g.j, g.n)) if x]


def _contract(g: Generator, h: Generator) -> bool:
    """Whether a mode of h is among _partner_modes(g); else [g, h]_r is zero.

    The four slot pairs are tested one by one: a nonzero mode v_k(x) of g
    against each mode of h, for v_k(-x).  A pair that does not contract has
    every _contraction of _pair_bracket's closed form zero, so its bracket
    is ((), 0); check 1's sampled triples skip such pairs by this test.
    """
    (i, j, m, n), (k, l, x, y) = g, h
    return (m != 0 and (m == -x and i == k or m == -y and i == l)
            or n != 0 and (n == -x and j == k or n == -y and j == l))


@lru_cache(maxsize=None)
def _pair_bracket(g: Generator, h: Generator):
    """Deformed bracket [g, h]_r of canonical generators in closed form.

    Returns the integer form (terms, const): (generator, integer) pairs, and
    the commutator's integer constant, which the bracket scales by r.  With
    g = AB and h = CD as products of modes,

        [AB, CD] = [B,C] AD + [B,D] AC + [A,C] DB + [A,D] CB,

    each product normal-ordered by _normal_order.  A pair whose bracket is
    zero, every pair that does not contract among them, gets the one shared
    ((), 0).
    """
    a, b, c, d = (g.i, g.m), (g.j, g.n), (h.i, h.m), (h.j, h.n)
    acc: dict = {}
    const = 0
    for scalar, x, y in ((_contraction(b, c), a, d), (_contraction(b, d), a, c),
                         (_contraction(a, c), d, b), (_contraction(a, d), c, b)):
        if scalar:
            gen, shift = _normal_order(x, y)
            acc[gen] = acc.get(gen, 0) + scalar
            const += scalar * shift
    terms = tuple((gen, coeff) for gen, coeff in acc.items() if coeff)
    return (terms, const) if terms or const else ((), 0)


# _pair_bracket's closed form without its memo, for a caller that keeps its own cache of its
# pairs (suite._int_bracket_table).  Bound to the same function object, so a fault planted in
# its code reaches that cache too.
_closed_pair_bracket = _pair_bracket.__wrapped__


def _operator_parts(x):
    """The (key, coefficient) pairs of an operator.

    A Generator is a one-term operator; it is not wrapped in a LieElement.
    """
    if isinstance(x, Generator):
        if not x.is_canonical():
            raise ValueError(f"{x} is not in canonical form")
        return ((x, ONE),)
    if isinstance(x, LieElement):
        return x.terms.items()
    raise TypeError(f"expected a Generator or LieElement, got {type(x).__name__}")


def bracket_r(x, y) -> LieElement:
    """Deformed bracket: the commutator with its constant part scaled by r."""
    # constants are central and drop out
    xs = [(g, c) for g, c in _operator_parts(x) if g != UNIT]
    ys = [(g, c) for g, c in _operator_parts(y) if g != UNIT]
    acc: dict = {}
    for g1, c1 in xs:
        for g2, c2 in ys:
            coeff = c1 * c2
            terms, const = _pair_bracket(g1, g2)
            for key, ct in terms:
                add_into(acc, key, coeff * ct)
            if const:
                add_into(acc, UNIT, coeff * R * const)
    return LieElement._from_tidy(acc)


_GEN_RE = re.compile(
    r"v\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\]\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)"
)


def parse_generator_literal(text: str) -> tuple[int, int, int, int]:
    """Parse "v[i,j](m,n)" into a raw quadruple (not yet canonical)."""
    match = _GEN_RE.fullmatch(text.strip())
    if not match:
        raise ValueError(f"cannot parse generator literal {text!r}")
    return tuple(int(g) for g in match.groups())
