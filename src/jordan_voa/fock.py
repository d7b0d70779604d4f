"""The induced vacuum module, its commuting-product basis, and gradings.

States are exact linear combinations of products of lowering generators
applied to a vacuum vector.  Lowering generators commute with one another,
so a basis monomial is a sorted multiset of canonical lowering generators
(sorted by the fixed lexicographic order on (i, j, m, n)).  A generator with
a nonnegative mode acts by commuting rightward past the factors with the
deformed bracket and annihilating the vacuum.  _act_gen takes generators
only; act applies a LieElement's constant, its UNIT term, as a scalar.

Grading settles most such actions before any recursion.  v_k(0) is central
and kills the vacuum, and a positive mode v_k(x) commutes with every mode
but v_k(-x).  So a generator with a zero mode, or with a positive mode v_k(x)
that finds no v_k(-x) among the modes of the monomial's factors (both slots
of each; v[i,i](x,x) needs two), acts as zero.  Every such action returns
the one shared empty image _EMPTY, uncached; no caller may mutate it.

Degree grades a monomial by minus the sum of its modes.  The finer weight
grading counts how many times each lowering mode v_k(l) occurs among the
factors; the commuting operators h[k,l] = -(1/l) v[k,k](l,-l), l < 0, act
diagonally with those counts as eigenvalues.

One cache memoises every operator that acts monomial by monomial: the
single-generator action under (generator, monomial), and any operator
extended linearly by `apply` under (key, monomial), where the key is a
tagged tuple such as ("L", i, j, m) that can never equal a Generator.
`clear_action_cache` empties it, and `forget` drops chosen entries.
Entries are computed from immutable inputs and never mutated afterwards,
so concurrent readers are safe; at worst two threads briefly recompute
the same value.
"""

from __future__ import annotations

import gc
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterable, Mapping

from .liealg import UNIT, Generator, _operator_parts, _pair_bracket
from .scalar import ONE, R, ZERO, Combination, add_into, parse_scalar

__all__ = [
    "MIXED",
    "PBWMonomial",
    "State",
    "Weight",
    "monomial",
    "monomial_degree",
    "monomial_weight",
    "act",
    "act_word",
    "apply",
    "memo",
    "degree_of",
    "weight_of",
    "weights",
    "weight_space_basis",
    "basis_monomials",
    "clear_action_cache",
    "forget",
    "collector_paused",
]

MIXED = "mixed"

PBWMonomial = tuple  # tuple of lowering Generators, sorted ascending


def monomial(factors: Iterable[Generator], d: int | None = None) -> PBWMonomial:
    """Build a basis monomial from commuting lowering factors."""
    out = []
    for gen in factors:
        if not isinstance(gen, Generator):
            gen = Generator(*gen)
        if not gen.is_canonical():
            raise ValueError(f"{gen} is not in canonical form")
        if not gen.is_lowering():
            raise ValueError(f"{gen} is not a lowering generator")
        if gen.i < 1:
            raise ValueError(f"{gen} uses an oscillator index below 1")
        if d is not None and gen.j > d:
            raise ValueError(f"{gen} uses an oscillator index beyond d={d}")
        out.append(gen)
    return tuple(sorted(out))


def monomial_degree(mono: PBWMonomial) -> int:
    return -sum(g.m + g.n for g in mono)


def monomial_weight(mono: PBWMonomial) -> "Weight":
    counts: dict = {}
    for g in mono:
        counts[(g.i, g.m)] = counts.get((g.i, g.m), 0) + 1
        counts[(g.j, g.n)] = counts.get((g.j, g.n), 0) + 1
    return Weight(counts)


class Weight(object):
    """Finitely supported multiplicity map (k, l) -> count, l < 0."""

    __slots__ = ("_pairs",)

    def __init__(self, counts: Mapping | None = None):
        pairs = []
        if counts:
            for (k, l), count in counts.items():
                if count == 0:
                    continue
                if not (isinstance(count, int) and count > 0):
                    raise ValueError(f"weight multiplicity {count} must be a positive integer")
                if not (isinstance(k, int) and k >= 1 and isinstance(l, int) and l < 0):
                    raise ValueError(f"weight support ({k},{l}) needs k >= 1 and l < 0")
                pairs.append(((k, l), count))
        self._pairs = tuple(sorted(pairs))

    @property
    def counts(self) -> dict:
        return dict(self._pairs)

    def is_zero(self) -> bool:
        return not self._pairs

    def total_degree(self) -> int:
        return sum(-l * c for (_, l), c in self._pairs)

    def support(self) -> list:
        return [kl for kl, _ in self._pairs]

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return self._pairs == other._pairs

    def __hash__(self):
        return hash(self._pairs)

    def __str__(self):
        if not self._pairs:
            return "0"
        return " + ".join(
            (f"Lam[{k},{l}]" if c == 1 else f"{c}*Lam[{k},{l}]")
            for (k, l), c in self._pairs
        )

    def __repr__(self):
        return f"Weight({str(self)!r})"


def _is_json_term(entry) -> bool:
    """Whether entry has the shape of one to_json_obj entry."""
    if not (isinstance(entry, dict) and isinstance(entry.get("coeff"), str)):
        return False
    factors = entry.get("monomial")
    return isinstance(factors, list) and all(
        isinstance(item, list) and len(item) == 4 and all(type(v) is int for v in item)
        for item in factors
    )


class State(Combination):
    """A finite Q[r]-linear combination of basis monomials."""

    __slots__ = ()

    @classmethod
    def vacuum(cls) -> "State":
        return cls({(): ONE})

    @classmethod
    def from_monomial(cls, mono: PBWMonomial, coeff=ONE) -> "State":
        return cls({mono: coeff})

    def to_json_obj(self) -> list:
        return [
            {"monomial": [list(g) for g in mono], "coeff": str(coeff)}
            for mono, coeff in sorted(self.terms.items())
        ]

    @classmethod
    def from_json_obj(cls, obj: list, d: int | None = None) -> "State":
        """Read the to_json_obj form back; a malformed entry is a ValueError."""
        terms = {}
        for entry in obj:
            if not _is_json_term(entry):
                raise ValueError(
                    f"state entry {entry!r} is not "
                    '{"monomial": [[i, j, m, n], ...], "coeff": "<polynomial>"}'
                )
            mono = monomial([Generator(*item) for item in entry["monomial"]], d=d)
            coeff = parse_scalar(entry["coeff"])
            terms[mono] = terms.get(mono, ZERO) + coeff
        return cls(terms)

    def __str__(self):
        return self._signed_sum(
            ("*".join(map(str, mono)) or "1", coeff)
            for mono, coeff in sorted(self.terms.items())
        )


def degree_of(u: State):
    """Common degree of the support, or MIXED; the zero state has none."""
    if u.is_zero():
        raise ValueError("the zero state has no degree")
    degrees = {monomial_degree(m) for m in u.terms}
    return degrees.pop() if len(degrees) == 1 else MIXED


def weight_of(u: State):
    """Common weight of the support, or MIXED; the zero state has none."""
    if u.is_zero():
        raise ValueError("the zero state has no weight")
    weights = {monomial_weight(m) for m in u.terms}
    return weights.pop() if len(weights) == 1 else MIXED


# -- module action -----------------------------------------------------

_ACT_CACHE: dict = {}


def clear_action_cache():
    _ACT_CACHE.clear()


def forget(keys: Iterable):
    """Drop the cached values under these keys, where there are any."""
    for key in keys:
        _ACT_CACHE.pop(key, None)


@contextmanager
def collector_paused():
    """Run the block with the cyclic garbage collector off, then restore the caller's state.

    Generator and Scalar subclass tuple, which CPython never untracks, so
    every cached key and image stays tracked and each collection rescans
    them all.  Nested blocks keep the outer state; concurrent callers share
    the one switch, so an overlap can only turn it back on early.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _insert(mono: PBWMonomial, gen: Generator) -> PBWMonomial:
    pos = bisect_left(mono, gen)
    return mono[:pos] + (gen,) + mono[pos:]


_EMPTY: dict = {}  # the one image of every action that grading kills; never mutated


def _holds(mono: PBWMonomial, k: int, l: int, copies: int) -> bool:
    """Whether at least copies factor slots of mono hold the mode v_k(l)."""
    for fi, fj, fm, fn in mono:
        copies -= (fm == l and fi == k) + (fn == l and fj == k)
        if copies <= 0:
            return True
    return False


def _grading_kills(gen: Generator, mono: PBWMonomial) -> bool:
    """Whether grading alone makes gen act as zero on mono.

    It does when gen has a zero mode, or a positive mode v_k(x) with no
    v_k(-x) for it among the modes of mono's factors, both slots of each
    counted; v[i,i](x,x) needs two copies.  A lowering gen is never killed.
    """
    i, j, m, n = gen
    if not (m and n):
        return True
    copies = 2 if (i, m) == (j, n) else 1
    return (m > 0 and not _holds(mono, i, -m, copies)) or (
        n > 0 and not _holds(mono, j, -n, copies)
    )


def _act_gen(gen: Generator, mono: PBWMonomial) -> dict:
    """Action of one canonical generator on one basis monomial (memoised).

    Lowering generators multiply in; anything else is commuted rightward
    with the deformed bracket, whose integer form (terms, const) from
    _pair_bracket adds r*const times the remaining factors, and annihilates
    the vacuum.  Before any lookup or recursion, a generator that grading
    kills (_grading_kills) gets the shared empty image _EMPTY, which is not
    cached: v_k(0) is central and kills the vacuum, and a positive mode
    v_k(x) commutes past every mode but v_k(-x), so with no such partner
    left it reaches the vacuum and kills it.  The recursion keeps its own
    vacuum case, so it stays exact with the grading test switched off.
    Callers must not mutate the returned dict.
    """
    if _grading_kills(gen, mono):
        return _EMPTY
    key = (gen, mono)
    cached = _ACT_CACHE.get(key)
    if cached is not None:
        return cached
    if gen.m < 0 and gen.n < 0:
        result = {_insert(mono, gen): ONE}
    elif not mono:
        result = {}
    else:
        head = mono[0]
        rest = mono[1:]
        acc: dict = {}
        terms, const = _pair_bracket(gen, head)
        for g2, c2 in terms:
            for m2, s2 in _act_gen(g2, rest).items():
                add_into(acc, m2, s2 * c2)
        if const:
            add_into(acc, rest, R * const)
        for m2, s2 in _act_gen(gen, rest).items():
            add_into(acc, _insert(m2, head), s2)
        result = acc
    _ACT_CACHE[key] = result
    return result


def act(x, u: State) -> State:
    """Module action of an operator on a state.

    A Generator acts as a one-term operator; a LieElement acts term by
    term, its UNIT term as a scalar.  The cached per-monomial images are
    only read; an image whose combined coefficient is ONE is added unscaled.
    """
    ops = _operator_parts(x)
    acc: dict = {}
    for mono, cu in u.terms.items():
        for gen, cg in ops:
            image = {mono: ONE} if gen == UNIT else _act_gen(gen, mono)
            if image:
                _add_scaled(acc, image, cu * cg)
    return State._from_tidy(acc)


def _add_scaled(acc: dict, image: dict, coeff):
    """Add coeff times image into acc; under coefficient ONE image goes in unscaled."""
    if coeff is ONE:
        for m2, s2 in image.items():
            add_into(acc, m2, s2)
    else:
        for m2, s2 in image.items():
            add_into(acc, m2, s2 * coeff)


def memo(key, compute, *args):
    """The value cached under key, computed as compute(*args) on first use.

    A cached None reads as a miss, so compute must never return None.
    """
    value = _ACT_CACHE.get(key)
    if value is None:
        value = _ACT_CACHE[key] = compute(*args)
    return value


def apply(key, image, u: State) -> State:
    """Extend a per-monomial operator linearly over a state.

    image(mono) returns the operator's image of one basis monomial as a
    dict from monomial to nonzero Scalar; it is memoised under (key, mono),
    so key must name the operator uniquely and must not be a Generator.
    """
    acc: dict = {}
    for mono, cu in u.terms.items():
        _add_scaled(acc, memo((key, mono), image, mono), cu)
    return State._from_tidy(acc)


def act_word(xs: Iterable, u: State) -> State:
    """Compose actions right to left: the last element acts first."""
    out = u
    for x in reversed(list(xs)):
        out = act(x, out)
    return out


# -- weight space enumeration -------------------------------------------


def weights(max_degree: int, d: int = 1) -> list:
    """Every nonzero weight over oscillators 1..d of total degree <= max_degree.

    Ordered by total degree, then by text.
    """
    modes = [(k, level) for k in range(1, d + 1) for level in range(1, max_degree + 1)]
    out = []
    _collect_weights(modes, 0, {}, max_degree, out)
    return sorted(out, key=lambda w: (w.total_degree(), str(w)))


def _collect_weights(modes: list, pos: int, counts: dict, budget: int, out: list):
    """Append to out each nonzero weight that extends counts by modes[pos:] within budget.

    Module-level, as a self-calling closure would be a reference cycle.
    """
    if pos == len(modes):
        if counts:
            out.append(Weight(counts))
        return
    k, level = modes[pos]
    for count in range(budget // level + 1):
        if count:
            counts[(k, -level)] = count
        _collect_weights(modes, pos + 1, counts, budget - level * count, out)
        counts.pop((k, -level), None)


def _pairings(symbols: tuple, last: tuple = ()):
    """Each way to pair up a sorted multiset of (index, mode) symbols, once.

    Pairs come out in ascending order, none below last: a pair below the
    last one, or a partner equal to the one before it, is skipped.
    """
    if not symbols:
        yield ()
        return
    first = symbols[0]
    for pos in range(1, len(symbols)):
        pair = (first, symbols[pos])
        if pair < last or (pos > 1 and symbols[pos] == symbols[pos - 1]):
            continue
        rest = symbols[1:pos] + symbols[pos + 1 :]
        for sub in _pairings(rest, pair):
            yield (pair,) + sub


def weight_space_basis(lam: Weight, d: int | None = None) -> list:
    """All basis monomials of weight exactly lam.

    Pairs the required multiset of lowering modes v_k(l) into quadratic
    factors in every possible way, each way once.  The factors use the
    oscillators of the weight, so d = 1 gives the basis of the
    first-oscillator module; a weight with an index beyond d is a
    ValueError.
    """
    symbols = []
    for (k, l), count in sorted(lam.counts.items()):
        if d is not None and k > d:
            raise ValueError(f"weight uses oscillator index {k} beyond d={d}")
        symbols.extend([(k, l)] * count)
    if len(symbols) % 2:
        return []
    return sorted(
        tuple(sorted(Generator(k1, k2, l1, l2) for (k1, l1), (k2, l2) in pairing))
        for pairing in _pairings(tuple(symbols))
    )


def basis_monomials(max_degree: int, d: int) -> list:
    """The vacuum and every basis monomial of degree <= max_degree over d oscillators."""
    return [()] + [m for lam in weights(max_degree, d) for m in weight_space_basis(lam, d=d)]
