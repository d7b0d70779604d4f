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
of each; v[i,i](x,x) needs two), acts as zero.  The test is one mask: a
monomial's census holds a two-bit thermometer field per mode, 00, 01 or 11
for none, one or two copies and more, a generator's need sets the bits its
positive modes ask for (-1 for a zero mode, 0 for a lowering generator),
and the generator acts as zero unless census & need == need.  Every
action the test kills returns the one shared empty image _EMPTY, the empty
tuple, uncached; act_ids and _action_rows, which builds check 3's rows, run
the test before calling _act_id.  The census, the needs and _EMPTY are
read nowhere outside this module.

Degree grades a monomial by minus the sum of its modes.  The finer weight
grading counts how many times each lowering mode v_k(l) occurs among the
factors; the commuting operators h[k,l] = -(1/l) v[k,k](l,-l), l < 0, act
diagonally with those counts as eigenvalues.

The action runs on small int ids.  Monomials are hash-consed: the vacuum
is id 0, and every other basis monomial is a cell (head, tail), the
generator id of its first factor and the id of the monomial of the other
factors, stored with its census, the count of each mode v_k(l) among its
factor slots up to two, and its degree.  No tuple of factors is stored, and no
table is keyed by one.  _insert_id, the product of a monomial id with a
lowering generator id, makes every id but the vacuum's, and its memo,
_INSERTS[gid][mid], is also the table of cells.  _mono_id inserts a
monomial's factors into the vacuum, and _monomial reads them back off
the chain of heads.  A generator gets an id with its need, the mask of
the census its positive modes ask for.  _act_id runs the head/tail
recursion on ids: the grading test reads the census, and each bracket
with the head factor is read from _pair_bracket's memo.  Its images pair
monomial ids with coefficients in Z[r]: a constant is a plain int, the
rest are degree-1 Scalars with int coefficients.

Operators act on ids too: act_ids applies an operator's id form,
(generator id, coefficient) pairs, to a sum on monomial ids, {mid:
coefficient}.  act reads the id form off a Generator or LieElement
(_op_ids), the UNIT term's id being None; virops builds its mode sums and
vertex modes straight in id form, with int coefficients and no UNIT term.
act and each virops operator translate into ids once (_ids_of) and back
once (_state_of), which wraps every coefficient in a Scalar with its
integral coefficients ints and can divide the sum by one int: virops keeps
its mode sums doubled and its oracle an integer multiple, and divides
there.  Ids stay inside this module, virops, checks 3, 5 and 10 (suite)
and the search matrix and the sweep's release (singular); a State keeps
tuple keys, and _act_gen is the tuple-level entry point to _act_id.

Two kinds of cache memoise every operator that acts monomial by monomial.
The image of each generator that neither lowers (a lowering image is built
afresh from the memoised insertion) nor is killed by grading is frozen
into a tuple of (monomial id, coefficient) pairs, sorted by id, so equal
images are equal tuples, and filed in its generator's table, _IMAGES[gid]:
{mid: image}.  `memo` caches everything else under tuple keys in
_ACT_CACHE: virops' per-monomial id images (dicts) under (key, mid), where
the key names the operator, such as ("L", pairs, m), its operator id forms
per degree, and singular's search systems, one ("search", weight) entry
per weight.  The brackets the recursion needs are cached once, in
liealg._pair_bracket's memo, which also serves bracket_r and check 1's
sampled triples; checks 1 and 3 keep their own table of the pairs they
read (suite._int_bracket_table), built from the uncached closed form,
liealg._closed_pair_bracket.
`clear_action_cache` empties both caches of this module together with the
id tables and _pair_bracket's memo: nothing the engine computed survives
a clear, not even the vacuum's id, and an id taken before a clear means
nothing after it.  `forget` drops chosen `memo` entries by key, and
_forget_images every cached image on chosen monomial ids, from every
generator's table: an eviction, which takes no id and needs no list of
the generators that filled the tables.  The sweep evicts each weight's
basis after its searches, and check 3 each row's monomial after the last
state that reads the row; an evicted image that a later recursion needs
is recomputed, the same, as the tables are a pure memo.  Entries are
computed from immutable inputs and never mutated afterwards (a frozen
image cannot be), and a cell is consed and filed in _INSERTS under one
lock, so concurrent readers are safe and a monomial never has two ids; at
worst two threads briefly recompute the same value.
A clear must not overlap an action in another thread.
"""

from __future__ import annotations

import gc
import threading
from collections.abc import Iterable, Mapping
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice

from .liealg import UNIT, Generator, _operator_parts, _pair_bracket
from .scalar import ONE, R, ZERO, Combination, Scalar, parse_scalar

__all__ = [
    "MIXED",
    "PBWMonomial",
    "State",
    "Weight",
    "monomial",
    "monomial_degree",
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


def monomial(factors: Iterable[Generator]) -> PBWMonomial:
    """Build a basis monomial from commuting lowering factors."""
    out = []
    for gen in factors:
        if not gen.is_canonical():
            raise ValueError(f"{gen} is not in canonical form")
        if not gen.is_lowering():
            raise ValueError(f"{gen} is not a lowering generator")
        if gen.i < 1:
            raise ValueError(f"{gen} uses an oscillator index below 1")
        out.append(gen)
    return tuple(sorted(out))


def monomial_degree(mono: PBWMonomial) -> int:
    return -sum(g.m + g.n for g in mono)


class Weight(object):
    """Finitely supported multiplicity map (k, l) -> count, l < 0; its hash is taken once."""

    __slots__ = ("_pairs", "_hash")

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
        self._hash = hash(self._pairs)

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
        return self._hash

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
    def from_json_obj(cls, obj: list) -> "State":
        """Read the to_json_obj form back; a malformed entry is a ValueError."""
        terms = {}
        for entry in obj:
            if not _is_json_term(entry):
                raise ValueError(
                    f"state entry {entry!r} is not "
                    '{"monomial": [[i, j, m, n], ...], "coeff": "<polynomial>"}'
                )
            mono = monomial([Generator(*item) for item in entry["monomial"]])
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

# The id tables.  A monomial's id indexes its head's generator id, its tail's id, its
# census and its degree; a generator's id indexes it, its need, its insertions (mid ->
# the id of the monomial times it) and its cached images (mid -> its frozen image on
# the monomial).  The vacuum, id 0, has neither head nor tail.  _SLOTS holds each
# mode's place in a census.
_HEADS: list = []
_TAILS: list = []
_CENSUS: list = []
_DEGREES: list = []
_GEN_ID: dict = {}
_GENS: list = []
_NEEDS: list = []
_INSERTS: list = []
_IMAGES: list = []
_SLOTS: dict = {}
_ID_TABLES = (_HEADS, _TAILS, _CENSUS, _DEGREES, _GEN_ID, _GENS, _NEEDS, _INSERTS, _IMAGES,
              _SLOTS)
_INTERN_LOCK = threading.Lock()


def clear_action_cache():
    """Empty every cache of the engine: memo's entries, the id tables with the cached images,
    and the pair-bracket memo.

    Ids taken before a clear must not be used after it.
    """
    _ACT_CACHE.clear()
    for table in _ID_TABLES:
        table.clear()
    _pair_bracket.cache_clear()


def forget(keys: Iterable):
    """Drop the values memo cached under these keys, where there are any."""
    for key in keys:
        _ACT_CACHE.pop(key, None)


def _forget_images(mids: list):
    """Drop every cached image on these monomial ids, from every generator's table.

    Only the tables that hold an image are walked: most hold none, as a
    lowering generator's image is never cached.  The sweep's release
    (singular._sweep_weight) and check 3's (suite) call it.
    """
    for images in filter(None, _IMAGES):
        for mid in mids:
            images.pop(mid, None)


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


def _needs(gen: Generator) -> int:
    """The mask of what gen needs of a monomial's census to act nonzero.

    The monomial passes if census & mask == mask.  A positive mode v_k(x)
    asks for the field of v_k(-x) to read 01, one copy, or 11 for
    v[i,i](x,x), which needs two.  A zero mode's mask is -1, which no
    census holds; a lowering gen's is 0, which every census holds.
    """
    i, j, m, n = gen
    if not (m and n):
        return -1
    field = 0b11 if (i, m) == (j, n) else 0b01
    return sum(field << _slot(k, -x) for k, x in dict.fromkeys(((i, m), (j, n))) if x > 0)


def _census(tail: int, head: Generator) -> int:
    """The census of head times a monomial whose census is tail.

    A census is an int with one two-bit thermometer field per mode v_k(l),
    at _slot(k, l): how many factor slots hold the mode, both slots of each
    factor counted, read 00 for none, 01 for one and 11 for two or more, as
    no generator needs more.
    """
    for offset in (_slot(head.i, head.m), _slot(head.j, head.n)):
        bit = 1 << offset
        tail |= bit | (tail & bit) << 1
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
                _IMAGES.append({})
                _GEN_ID[gen] = gid
    return gid


def _mono_id(mono: PBWMonomial) -> int:
    """The id of a basis monomial: the vacuum's, 0, with each factor inserted, the last first.

    Inserting a sorted monomial's factors right to left conses each one onto
    a tail it does not sort above.  The vacuum takes its id at first sight,
    so a clear leaves every id table empty.
    """
    if not _HEADS:
        with _INTERN_LOCK:
            if not _HEADS:
                _TAILS.append(None)
                _CENSUS.append(0)
                _DEGREES.append(0)
                _HEADS.append(None)  # last: a thread that finds _HEADS filled finds the vacuum whole
    mid = 0
    for gen in reversed(mono):
        mid = _insert_id(_gen_id(gen), mid)
    return mid


def _insert_id(gid: int, mid: int) -> int:
    """The id of the monomial times the lowering generator, consed at first sight.

    A monomial is a cell (head generator id, tail monomial id), its head
    sorting below no factor of its tail.  If the monomial is the vacuum, or
    its head does not sort below the generator, the product is the cell (gid,
    mid), consed at first sight with its census and degree.  Otherwise the
    generator goes into the tail and the head back on top.  Either way the
    product's id is memoised in _INSERTS[gid][mid], which for a cell is its
    one entry, written under the lock that takes the id, so a monomial never
    takes two ids.  Every monomial id but the vacuum's, 0, is made here.
    """
    inserts = _INSERTS[gid]
    found = inserts.get(mid)
    if found is None:
        head, gen = _HEADS[mid], _GENS[gid]
        if head is not None and _GENS[head] < gen:
            found = inserts[mid] = _insert_id(head, _insert_id(gid, _TAILS[mid]))
        else:
            with _INTERN_LOCK:
                found = inserts.get(mid)
                if found is None:
                    found = len(_HEADS)
                    _HEADS.append(gid)
                    _TAILS.append(mid)
                    _CENSUS.append(_census(_CENSUS[mid], gen))
                    _DEGREES.append(_DEGREES[mid] - gen.m - gen.n)
                    inserts[mid] = found
    return found


def _monomial(mid: int) -> PBWMonomial:
    """The basis monomial of an id, read off its chain of heads."""
    factors = []
    head = _HEADS[mid]
    while head is not None:
        factors.append(_GENS[head])
        mid = _TAILS[mid]
        head = _HEADS[mid]
    return tuple(factors)


_EMPTY: tuple = ()  # the one image of every action that grading kills


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


def _add_scaled(acc: dict, terms, coeff):
    """Add coeff times the (monomial id, coefficient) pairs terms into acc: an id image, or
    the .items() of an id sum."""
    for m2, s2 in terms:
        _add(acc, m2, s2 * coeff)


def _act_id(gid: int, mid: int) -> tuple:
    """Action of one generator on one basis monomial, on ids: ((monomial id, coefficient), ...).

    An image is a tuple of pairs sorted by monomial id, so two equal images
    are equal tuples.  A lowering generator multiplies in: its image is a
    new one-term tuple ((product, 1),) each call, not cached, as _insert_id
    already memoises the product.  Anything else is commuted past the head
    factor with the deformed bracket and annihilates the vacuum.  The
    bracket's integer form (terms, const) is read from _pair_bracket's memo,
    each term's generator taking its id by _gen_id, and const adds r*const
    times the tail.  The sum is built in a dict, frozen once (sorted if it
    has two terms or more) and cached in _IMAGES[gid].  Every coefficient
    lies in Z + Z*r.  Before any lookup or recursion, a generator that
    grading kills, census & need != need, gets the shared empty image
    _EMPTY, which is not cached: v_k(0) is central and kills the vacuum,
    and a positive mode v_k(x) commutes past every mode but v_k(-x), so
    when the monomial's census has fewer copies of v_k(-x) than the
    generator's need asks, it reaches the vacuum and kills it.  The
    recursion keeps its own vacuum case, so it stays exact with a weaker
    grading test.
    """
    need = _NEEDS[gid]
    if not need:
        return ((_insert_id(gid, mid), 1),)
    if _CENSUS[mid] & need != need:
        return _EMPTY
    images = _IMAGES[gid]
    cached = images.get(mid)
    if cached is not None:
        return cached
    rest = _TAILS[mid]
    result = {}
    if rest is not None:
        head = _HEADS[mid]
        terms, const = _pair_bracket(_GENS[gid], _GENS[head])
        for g2, c2 in terms:
            for m2, s2 in _act_id(_gen_id(g2), rest):
                _add(result, m2, s2 * c2)
        if const:
            _add(result, rest, R * const)
        for m2, s2 in _act_id(gid, rest):
            _add(result, _insert_id(head, m2), s2)
    image = images[mid] = tuple(sorted(result.items()) if len(result) > 1 else result.items())
    return image


def _op_ids(x) -> tuple:
    """An operator's id form: (generator id, coefficient) pairs, None for its UNIT term."""
    return tuple((None if gen == UNIT else _gen_id(gen), _plain(c)) for gen, c in _operator_parts(x))


def _ids_of(u: State) -> dict:
    """A state on monomial ids, its integral constants as ints: the way into act_ids."""
    return {_mono_id(mono): _plain(c) for mono, c in u.terms.items()}


def _state_of(vec: dict, divisor: int = 1) -> State:
    """The State of an id sum divided by a nonzero int: the way back, one division per term.

    Each monomial is read off its id's chain of heads (_monomial), and every
    coefficient comes back a Scalar, in its normal form.
    """
    if divisor != 1:
        vec = {mid: Fraction(c, divisor) if type(c) is int else c / divisor
               for mid, c in vec.items()}
    return State._from_tidy({_monomial(mid): Scalar.of(c) for mid, c in vec.items()})


def _act_gen(gen: Generator, mono: PBWMonomial) -> dict:
    """Action of one canonical generator on one basis monomial, as {monomial: Scalar}.

    The tuple-level entry point to _act_id: it interns both, and translates
    the image back to monomials, in a new dict each call.
    """
    return _state_of(dict(_act_id(_gen_id(gen), _mono_id(mono)))).terms


def act_ids(ops, vec: dict) -> dict:
    """An operator in id form (_op_ids) applied to a sum on monomial ids, as a new id sum.

    The cached per-monomial images are only read; the UNIT term, whose id is
    None, acts as a scalar.  The grading test runs here, once per monomial
    and generator, so _act_id is called only for the generators that pass
    it, and no coefficient is multiplied for the others.  An image that
    still comes back empty adds nothing.
    """
    acc: dict = {}
    for mid, cu in vec.items():
        census = _CENSUS[mid]
        for gid, cg in ops:
            need = 0 if gid is None else _NEEDS[gid]
            if census & need != need:
                continue
            coeff = cu * cg
            if type(coeff) is not int:
                coeff = _plain(coeff)
            if gid is None:
                _add(acc, mid, coeff)
            else:
                _add_scaled(acc, _act_id(gid, mid), coeff)
    return acc


def _action_rows(gens: list):
    """Check 3's row builder: monomial id -> its row (images, live), built afresh at each call.

    images lists the id image _act_id(g, mid) of each g in gens, by
    position; live is the ascending tuple of the positions whose image is
    nonempty.  The grading test, census & need != need, runs here first, as
    in act_ids, so _act_id is called only for the generators that pass it;
    the others get the shared _EMPTY.  A lowering generator's image is a
    new one-term tuple, uncached, at each call.  The builder keeps nothing:
    check 3 (suite.check_representation_property) holds each row only while
    a state still reads it.
    """
    gids = [_gen_id(g) for g in gens]
    needs = [_NEEDS[gid] for gid in gids]

    def row_of(mid):
        census = _CENSUS[mid]
        images = [_act_id(gid, mid) if census & need == need else _EMPTY
                  for gid, need in zip(gids, needs)]
        return images, tuple(p for p, image in enumerate(images) if image)

    return row_of


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

    Ordered by total degree, then by text.  The enumeration recurses only
    over nonzero counts: one call per weight, each adding a mode beyond
    the last one it counted.
    """
    modes = [(k, level) for level in range(1, max_degree + 1) for k in range(1, d + 1)]
    out = []
    _collect_weights(modes, 0, {}, max_degree, out)
    return sorted(out, key=lambda w: (w.total_degree(), str(w)))


def _collect_weights(modes: list, pos: int, counts: dict, budget: int, out: list):
    """Append to out each weight that extends counts by nonzero counts of modes[pos:] within budget.

    modes ascend by level, so the first one above budget ends the call.
    Module-level, as a self-calling closure would be a reference cycle.
    """
    for nxt in range(pos, len(modes)):
        k, level = modes[nxt]
        if level > budget:
            return
        for count in range(1, budget // level + 1):
            counts[(k, -level)] = count
            out.append(Weight(counts))
            _collect_weights(modes, nxt + 1, counts, budget - level * count, out)
        del counts[(k, -level)]


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


def weight_space_basis(lam: Weight) -> list:
    """All basis monomials of weight exactly lam.

    Pairs the required multiset of lowering modes v_k(l) into quadratic
    factors in every possible way, each way once.  The factors use the
    oscillators of the weight alone, so a weight on the first oscillator
    gives the basis of the first-oscillator module.  A weight whose basis
    holds more than MAX_BASIS_FACTORS factors in all is a ValueError.
    """
    kinds, counts = [], []
    for (k, l), count in sorted(lam.counts.items()):
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
    return [()] + [m for lam in weights(max_degree, d) for m in weight_space_basis(lam)]
