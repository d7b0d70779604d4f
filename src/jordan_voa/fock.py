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

The action runs on small int ids.  A basis monomial gets an id at first
sight, stored with its head (first) factor's generator id, the id of its
tail (the other factors) and its census, the count of each mode v_k(l)
among its factor slots, computed once; a generator gets an id with its
needs, the census its positive modes ask for.  _act_id runs the head/tail
recursion on ids: the grading test reads the census, and the insertion of
a factor and _pair_bracket are memoised on ids.  Its images map monomial
ids to coefficients in Z[r]: a constant is a plain int, the rest are
degree-1 Scalars with int coefficients.

Operators act on ids too: act_ids applies an operator's id form,
(generator id, coefficient) pairs, to a sum on monomial ids, {mid:
coefficient}.  act reads the id form off a Generator or LieElement
(_op_ids), the UNIT term's id being None; virops builds its mode sums and
vertex modes straight in id form, with int coefficients and no UNIT term.
act and each virops operator translate into ids once (_ids_of) and back
once (_state_of), which wraps every coefficient in a Scalar with its
integral coefficients ints and can divide the sum by one int: virops keeps
its mode sums doubled and its oracle an integer multiple, and divides
there.  Ids stay inside this module, virops, check 3's rows (suite)
and the search matrix (singular); a State keeps tuple keys, and _act_gen is
the tuple-level entry point to _act_id.

One cache memoises every operator that acts monomial by monomial: under
the int key gid << 32 | mid, the image of each generator that neither
lowers (a lowering image is a one-term dict built afresh from the memoised
insertion) nor is killed by grading; and `memo`'s entries under tuple
keys: virops' per-monomial id images under (key, mid), where the key names
the operator, such as ("L", pairs, m), its operator id forms per degree,
and singular's search systems, one ("search", weight) entry per weight.
`clear_action_cache` empties it together with the id tables and
liealg._pair_bracket's memo: nothing the engine computed survives a
clear, and an id taken before a clear means nothing after it.
`forget` drops chosen `memo` entries by key, and
_forget_images the images of chosen generators on chosen monomials.
Entries are computed from immutable inputs and never mutated afterwards,
and ids are taken under a lock, so concurrent readers are safe; at worst
two threads briefly recompute the same value.
A clear must not overlap an action in another thread.
"""

from __future__ import annotations

import gc
import threading
from bisect import bisect_left
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from typing import Iterable, Mapping

from .liealg import UNIT, Generator, _operator_parts, _pair_bracket
from .scalar import ONE, R, ZERO, Combination, Scalar, parse_scalar

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
    "memo",
    "degree_of",
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


# -- module action -----------------------------------------------------

_ACT_CACHE: dict = {}

# The id tables.  A monomial's id indexes its tuple, its head's generator id, its
# tail's id and its census; a generator's id indexes it, its needs and its
# insertions (mid -> the id of the monomial times it).  _BRACKETS holds
# _pair_bracket on ids and _SLOTS each mode's place in a census.
_ID_BITS = 32  # an action key is gid << _ID_BITS | mid; neither table gets near 2**32 ids
_MONO_ID: dict = {}
_MONOS: list = []
_HEADS: list = []
_TAILS: list = []
_CENSUS: list = []
_GEN_ID: dict = {}
_GENS: list = []
_NEEDS: list = []
_INSERTS: list = []
_BRACKETS: dict = {}
_SLOTS: dict = {}
_ID_TABLES = (_MONO_ID, _MONOS, _HEADS, _TAILS, _CENSUS, _GEN_ID, _GENS, _NEEDS, _INSERTS,
              _BRACKETS, _SLOTS)
_INTERN_LOCK = threading.Lock()


# Bound at import, so a clear empties the memo even while a caller has rebound
# this module's name _pair_bracket.
_clear_pair_brackets = _pair_bracket.cache_clear


def clear_action_cache():
    """Empty every cache of the engine: this cache, the id tables and the pair-bracket memo.

    Ids taken before a clear must not be used after it.
    """
    _ACT_CACHE.clear()
    for table in _ID_TABLES:
        table.clear()
    _clear_pair_brackets()


def forget(keys: Iterable):
    """Drop the values memo cached under these keys, where there are any."""
    for key in keys:
        _ACT_CACHE.pop(key, None)


def _forget_images(gens: Iterable, monos: Iterable):
    """Drop the cached image of each generator on each monomial, translating each once."""
    mids = [mid for mid in map(_MONO_ID.get, monos) if mid is not None]
    for gid in map(_GEN_ID.get, gens):
        if gid is not None:
            for mid in mids:
                _ACT_CACHE.pop(gid << _ID_BITS | mid, None)


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


def _slot(k: int, l: int) -> int:
    """The bit offset of the mode v_k(l)'s field in a census, taken at first sight."""
    return _SLOTS.setdefault((k, l), 2 * len(_SLOTS))


def _needs(gen: Generator):
    """What gen needs of a monomial's census to act nonzero: (offset, copies) pairs, or None.

    None for a zero mode; otherwise one pair per positive mode v_k(x): the
    offset of v_k(-x) and the copies it must fill, two for v[i,i](x,x).  A
    lowering gen needs nothing.
    """
    i, j, m, n = gen
    if not (m and n):
        return None
    copies = 2 if (i, m) == (j, n) else 1
    return tuple({_slot(k, -x): copies for k, x in ((i, m), (j, n)) if x > 0}.items())


def _census(tail: int, head: Generator) -> int:
    """The census of head times a monomial whose census is tail.

    A census is an int with one two-bit field per mode v_k(l), at _slot(k,
    l): how many factor slots hold the mode, both slots of each factor
    counted, saturating at two, as no generator needs more.
    """
    for offset in (_slot(head.i, head.m), _slot(head.j, head.n)):
        if (tail >> offset) & 3 < 2:
            tail += 1 << offset
    return tail


def _gen_id(gen: Generator) -> int:
    """The id of a canonical generator, taken at first sight."""
    gid = _GEN_ID.get(gen)
    if gid is None:
        with _INTERN_LOCK:
            gid = _GEN_ID.get(gen)
            if gid is None:
                gid = len(_GENS)
                _GENS.append(gen)
                _NEEDS.append(_needs(gen))
                _INSERTS.append({})
                _GEN_ID[gen] = gid
    return gid


def _mono_id(mono: PBWMonomial) -> int:
    """The id of a basis monomial, taken at first sight with its head, tail and census."""
    mid = _MONO_ID.get(mono)
    if mid is None:
        head = tail = None
        if mono:
            head, tail = _gen_id(mono[0]), _mono_id(mono[1:])
            mono = (_GENS[head],) + _MONOS[tail]  # the interned factors, so equal ones are shared
        with _INTERN_LOCK:
            mid = _MONO_ID.get(mono)
            if mid is None:
                mid = len(_MONOS)
                _MONOS.append(mono)
                _HEADS.append(head)
                _TAILS.append(tail)
                _CENSUS.append(_census(_CENSUS[tail], mono[0]) if mono else 0)
                _MONO_ID[mono] = mid
    return mid


def _insert_id(gid: int, mid: int) -> int:
    """The id of the monomial times the lowering generator, by bisection at first sight."""
    inserts = _INSERTS[gid]
    found = inserts.get(mid)
    if found is None:
        mono, gen = _MONOS[mid], _GENS[gid]
        pos = bisect_left(mono, gen)
        found = inserts[mid] = _mono_id(mono[:pos] + (gen,) + mono[pos:])
    return found


def _bracket_id(gid: int, hid: int):
    """_pair_bracket of two generators on ids: ((generator id, integer) pairs, const)."""
    key = gid << _ID_BITS | hid
    found = _BRACKETS.get(key)
    if found is None:
        terms, const = _pair_bracket(_GENS[gid], _GENS[hid])
        found = _BRACKETS[key] = (tuple((_gen_id(g), c) for g, c in terms), const)
    return found


_EMPTY: dict = {}  # the one image of every action that grading kills; never mutated


def _plain(coeff: Scalar):
    """A Scalar as an id coefficient: an integral constant becomes an int."""
    return coeff[0] if len(coeff) == 1 and type(coeff[0]) is int else coeff


def _add(acc: dict, mid: int, coeff):
    """Add a nonzero coeff to acc[mid] in place, dropping mid if it cancels.

    A Scalar total that comes out constant and integral is stored as an int,
    so a sum of id images stays in Z[r] with its constants plain ints.
    """
    cur = acc.get(mid)
    if cur is None:
        acc[mid] = coeff
        return
    total = cur + coeff
    if type(total) is not int and len(total) < 2:
        total = _plain(total) if total else 0
    if total:
        acc[mid] = total
    else:
        del acc[mid]


def _add_scaled(acc: dict, image: dict, coeff):
    """Add coeff times an id image into acc; under the int coefficient 1 image goes in unscaled."""
    if type(coeff) is int and coeff == 1:
        for m2, s2 in image.items():
            _add(acc, m2, s2)
    else:
        for m2, s2 in image.items():
            _add(acc, m2, s2 * coeff)


def _act_id(gid: int, mid: int) -> dict:
    """Action of one generator on one basis monomial, on ids: {monomial id: coefficient}.

    A lowering generator multiplies in: its image is a new dict {product:
    1} each call, not cached, as _insert_id already memoises the product.
    Anything else is commuted past the head factor with the deformed
    bracket, whose integer form (terms, const) from _pair_bracket adds
    r*const times the tail, and annihilates the vacuum; that image is
    memoised.  Every coefficient lies in Z + Z*r.  Before any lookup or
    recursion, a generator that grading kills gets the shared empty image
    _EMPTY, which is not cached: v_k(0) is central and kills the vacuum, and
    a positive mode v_k(x) commutes past every mode but v_k(-x), so when the
    monomial's census has fewer copies of v_k(-x) than the generator's needs
    ask, it reaches the vacuum and kills it.  The recursion keeps its own
    vacuum case, so it stays exact with a weaker grading test.  Callers must
    not mutate a memoised image or _EMPTY; a lowering image is the caller's.
    """
    needs = _NEEDS[gid]
    if needs is None:
        return _EMPTY
    if not needs:
        return {_insert_id(gid, mid): 1}
    census = _CENSUS[mid]
    for offset, copies in needs:
        if (census >> offset) & 3 < copies:
            return _EMPTY
    key = gid << _ID_BITS | mid
    cached = _ACT_CACHE.get(key)
    if cached is not None:
        return cached
    rest = _TAILS[mid]
    if rest is None:
        result = {}
    else:
        head = _HEADS[mid]
        result = {}
        terms, const = _bracket_id(gid, head)
        for g2, c2 in terms:
            for m2, s2 in _act_id(g2, rest).items():
                _add(result, m2, s2 * c2)
        if const:
            _add(result, rest, R * const)
        for m2, s2 in _act_id(gid, rest).items():
            _add(result, _insert_id(head, m2), s2)
    _ACT_CACHE[key] = result
    return result


def _op_ids(x) -> tuple:
    """An operator's id form: (generator id, coefficient) pairs, None for its UNIT term."""
    return tuple((None if gen == UNIT else _gen_id(gen), _plain(c)) for gen, c in _operator_parts(x))


def _ids_of(u: State) -> dict:
    """A state on monomial ids, its integral constants as ints: the way into act_ids."""
    return {_mono_id(mono): _plain(c) for mono, c in u.terms.items()}


def _state_of(vec: dict, divisor: int = 1) -> State:
    """The State of an id sum divided by a nonzero int: the way back, one division per term.

    Every coefficient comes back a Scalar, in its normal form.
    """
    if divisor != 1:
        vec = {mid: Fraction(c, divisor) if type(c) is int else c / divisor
               for mid, c in vec.items()}
    return State._from_tidy({_MONOS[mid]: Scalar.of(c) for mid, c in vec.items()})


def _act_gen(gen: Generator, mono: PBWMonomial) -> dict:
    """Action of one canonical generator on one basis monomial, as {monomial: Scalar}.

    The tuple-level entry point to _act_id: it interns both, and translates
    the image back to monomials, in a new dict each call; an action that
    grading kills returns the shared _EMPTY itself.
    """
    image = _act_id(_gen_id(gen), _mono_id(mono))
    if image is _EMPTY:
        return _EMPTY
    return _state_of(image).terms


def act_ids(ops, vec: dict) -> dict:
    """An operator in id form (_op_ids) applied to a sum on monomial ids, as a new id sum.

    The cached per-monomial images are only read; the UNIT term, whose id is
    None, acts as a scalar.
    """
    acc: dict = {}
    for mid, cu in vec.items():
        for gid, cg in ops:
            coeff = cu * cg
            if type(coeff) is not int:
                coeff = _plain(coeff)
            if gid is None:
                _add(acc, mid, coeff)
            else:
                image = _act_id(gid, mid)
                if image:
                    _add_scaled(acc, image, coeff)
    return acc


def act(x, u: State) -> State:
    """Module action of an operator on a state.

    A Generator acts as a one-term operator; a LieElement acts term by
    term, its UNIT term as a scalar.  The state and the operator are
    translated to ids once, act_ids sums on ids, and the sum is translated
    back to monomials once.
    """
    return _state_of(act_ids(_op_ids(x), _ids_of(u)))


def memo(key, compute, *args):
    """The value cached under key, computed as compute(*args) on first use.

    A cached None reads as a miss, so compute must never return None.
    """
    value = _ACT_CACHE.get(key)
    if value is None:
        value = _ACT_CACHE[key] = compute(*args)
    return value


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


def _pairings(kinds: list, counts: list, pairs: list, low: int = 0, high: int = 0):
    """Each way to extend pairs by pairing up the symbols left, as a tuple of all the pairs.

    counts[k] symbols of kind kinds[k] are left, none below low.  The
    smallest kind left pairs next, with a partner of kind at least high if
    it is low, so pairs come out ascending and each way once; a partner
    that occurs many times is tried once.  counts and pairs are restored
    before the next way.  Module-level, as a self-calling closure would be
    a reference cycle.
    """
    a = low
    while a < len(counts) and not counts[a]:
        a += 1
    if a == len(counts):
        yield tuple(pairs)
        return
    counts[a] -= 1
    for b in range(high if a == low else a, len(counts)):
        if counts[b]:
            counts[b] -= 1
            pairs.append((kinds[a], kinds[b]))
            yield from _pairings(kinds, counts, pairs, a, b)
            pairs.pop()
            counts[b] += 1
    counts[a] += 1


# The most factors, summed over its monomials, that weight_space_basis returns.  It refuses a
# larger basis as soon as it has enumerated one monomial too many, before building any factor.
MAX_BASIS_FACTORS = 100000


def weight_space_basis(lam: Weight, d: int | None = None) -> list:
    """All basis monomials of weight exactly lam.

    Pairs the required multiset of lowering modes v_k(l) into quadratic
    factors in every possible way, each way once.  The factors use the
    oscillators of the weight, so d = 1 gives the basis of the
    first-oscillator module.  A weight with an index beyond d, or whose
    basis holds more than MAX_BASIS_FACTORS factors in all, is a ValueError.
    """
    kinds, counts = [], []
    for (k, l), count in sorted(lam.counts.items()):
        if d is not None and k > d:
            raise ValueError(f"weight uses oscillator index {k} beyond d={d}")
        kinds.append((k, l))
        counts.append(count)
    if sum(counts) % 2:
        return []
    most = MAX_BASIS_FACTORS // max(sum(counts) // 2, 1)
    pairings = list(islice(_pairings(kinds, counts, []), most + 1))
    if len(pairings) > most:
        raise ValueError(f"the weight space has more than {most} basis monomials, "
                         f"above {MAX_BASIS_FACTORS} factors in all")
    return sorted(
        tuple(sorted(Generator(k1, k2, l1, l2) for (k1, l1), (k2, l2) in pairing))
        for pairing in pairings
    )


def basis_monomials(max_degree: int, d: int) -> list:
    """The vacuum and every basis monomial of degree <= max_degree over d oscillators."""
    return [()] + [m for lam in weights(max_degree, d) for m in weight_space_basis(lam, d=d)]
