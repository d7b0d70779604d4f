"""One-shot regression battery over every identity the engine certifies.

Each check is exact (tolerance zero): polynomial identities are verified
symbolically in the parameter r, rational specialisations by exact
arithmetic.  `run_paper_suite` executes all checks and returns structured
results; the command-line front end renders them as a pass/fail matrix.
Checks 1 and 3 sum the deformed bracket as ints, in _pair_bracket's form,
read from a table of their pairs (_int_bracket_table) that keeps its own
copy of each; check 1's sampled triples, check 2 and the action read
_pair_bracket's memo.  Checks 3, 5 and 10 compare id sums, fock's
{monomial id: coefficient} dicts, taking each basis state's id once and
calling the id functions that fock's action and virops' public operators
wrap, so no State is built unless a failure prints one.

The engine's rules stay behind the modules that own them, and the checks
call them by name: which pairs can have a nonzero bracket (liealg._contract,
liealg._partner_modes) and the uncached closed form
(liealg._closed_pair_bracket) are liealg's, and the grading that settles
an action as zero is fock's, which builds check 3's rows (fock._action_rows).
"""

from __future__ import annotations

import itertools
import math
import random
import resource
import time
from bisect import bisect_left, bisect_right
from fractions import Fraction

from .fock import (
    State,
    _action_rows,
    _add,
    _add_scaled,
    _forget_images,
    _mono_id,
    act,
    basis_monomials,
    clear_action_cache,
    collector_paused,
)
from .liealg import (
    Generator,
    LieElement,
    _closed_pair_bracket,
    _contract,
    _pair_bracket,
    _partner_modes,
    bracket_r,
    canonical_generators,
    canonicalize,
)
from .scalar import ONE, R, ZERO, Record, Scalar, poly_exact_div
from .singular import (
    GENERIC,
    _generic_minor,
    _nullspace,
    _search_matrix,
    certification_r,
    det_power_state,
    expected_singular_pairs,
    is_singular,
    singular_sweep,
    verify_det_lemmas,
)
from .griess import build_griess_table, jordan_verify
from .virops import (
    _binomial_rows,
    _central,
    _int_det,
    _multiple,
    _probe_ids,
    _recursion_ids,
    _vertex_ids,
    act_L,
    binomial_matrix_det,
)

__all__ = ["SuiteConfig", "CheckResult", "run_check", "run_paper_suite", "ALL_CHECKS",
           "determinant_commutation", "virasoro_central_charge"]

MAX_REPORTED_FAILURES = 5


# Fixed bounds of the battery: each check runs at exactly these values.
LIE_INDEX_BOUND = 3
SAMPLE_INDEX_BOUND = 6
REP_INDEX_BOUND = 4
RECURSION_DEPTH = 4
VERTEX_INDEX_DEPTH = 3
VERTEX_MODE_BOUND = 4
DET_SIZE_BOUND = 6
DET_SHIFT_BOUND = 3
VMM_MODE_BOUND = 3
VMM_POWER_BOUND = 4
VIRASORO_INDEX_BOUND = 3
CERTIFICATION_CASES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 1))
NON_INTEGER_SWEEP = (Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3), GENERIC)
INTEGER_SWEEP = (-2, -1, 0, 1, 2, 3)

# The certification scale; smaller d and max_degree only scale the battery down.
# Below degree 2 the kernel sweep would have no basis state to search.
MIN_D, MAX_D = 2, 3
MIN_DEGREE, MAX_DEGREE = 2, 6
# Check 1 sums about 12 us per sampled triple: with 10**6 samples it takes 12 s in process on a
# 2-vCPU x86-64 host (10**5: 2.0 s), and paper-suite 15 s as a process; 10**9 would take hours.
MAX_SAMPLES = 1000000


class SuiteConfig(Record):
    """Scale of the battery; the defaults are the full certification scale."""

    def __init__(self, d: int = MAX_D, max_degree: int = MAX_DEGREE, seed: int = 0,
                 samples: int = 10000):
        self.d, self.max_degree, self.seed, self.samples = d, max_degree, seed, samples
        if not MIN_D <= self.d <= MAX_D:
            raise ValueError(f"d must be in {MIN_D}..{MAX_D}, got {self.d}")
        if not MIN_DEGREE <= self.max_degree <= MAX_DEGREE:
            raise ValueError(
                f"max_degree must be in {MIN_DEGREE}..{MAX_DEGREE}, got {self.max_degree}"
            )
        if not 0 <= self.samples <= MAX_SAMPLES:
            raise ValueError(f"samples must be in 0..{MAX_SAMPLES}, got {self.samples}")


class CheckResult(Record):
    """A check's outcome; it passes if it tested something and nothing failed."""

    def __init__(self, name: str, checked: int, details: str = "", failures: list | None = None,
                 seconds: float = 0.0, peak_mb: float = 0.0):
        self.name, self.checked, self.details = name, checked, details
        self.failures = [] if failures is None else failures
        self.seconds, self.peak_mb = seconds, peak_mb

    @property
    def passed(self) -> bool:
        return self.checked > 0 and not self.failures

    def summary_line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        line = f"{verdict}  {self.name}: {self.details}"
        for failure in self.failures[:MAX_REPORTED_FAILURES]:
            line += f"\n      - {failure}"
        return line


def _add_nested_int_bracket(acc: dict, x: Generator, y: Generator, z: Generator) -> int:
    """Add the generator part of [x, [y, z]]_r into acc; return its coefficient of r.

    Summed from _pair_bracket's integer form, the structure constants
    bracket_r scales.  The constant of [y, z] is central, so only its
    generator part w is bracketed with x.  A pair that does not contract
    (liealg._contract) is skipped before _pair_bracket is asked.  That is
    the rule _int_bracket_table applies, and it is exact: all four
    contractions of the closed form vanish for such a pair, so its bracket
    is ((), 0).  Most sampled pairs are such, and none of them is cached.
    """
    if not _contract(y, z):
        return 0
    rconst = 0
    for w, cw in _pair_bracket(y, z)[0]:
        if not _contract(x, w):
            continue
        terms, const = _pair_bracket(x, w)
        for target, ct in terms:
            acc[target] = acc.get(target, 0) + cw * ct
        rconst += cw * const
    return rconst


def _int_bracket_table(gens: list):
    """_pair_bracket over an indexed generator list, in its integer form.

    Entry (a, b) holds the (terms, const) of [gens[a], gens[b]]_r, with each
    generator in terms given by its index in gens.  Two quadratics can have
    a nonzero bracket only if they contract: a mode v_k(x), x != 0, of one
    meets v_k(-x) in the other; else all four contractions of _pair_bracket's
    closed form vanish.  So the closed form runs only for the pairs where the
    generator at b carries one of _partner_modes(gens[a]); every other
    entry is ((), 0).
    Checks 1 and 3 both read their brackets from this table, which is their
    one cache of its pairs: it calls liealg._closed_pair_bracket, the closed
    form without _pair_bracket's memo, so no entry is held in both.
    """
    index = {g: pos for pos, g in enumerate(gens)}
    holders: dict = {}  # mode -> positions of the generators carrying it
    for pos, h in enumerate(gens):
        for mode in ((h.i, h.m), (h.j, h.n)):
            holders.setdefault(mode, set()).add(pos)
    count = len(gens)
    table = [((), 0)] * (count * count)
    for a, g in enumerate(gens):
        for b in set().union(*(holders.get(mode, ()) for mode in _partner_modes(g))):
            terms, const = _closed_pair_bracket(g, gens[b])
            table[a * count + b] = (tuple((index[t], c) for t, c in terms), const)
    return table


def _jacobi_sums(table: list, count: int) -> dict:
    """The Jacobi sums of table over the triples a < b < c that have a term, in one pass.

    A triple's sum over its rotations (x, y, z) adds cw times [x, w] for each
    generator w, with coefficient cw, of [y, z]; the constant of [y, z] is
    central.  So each inner entry (y, z), each w in it and each x with [x,
    w] nonzero add cw times [x, w] to the triple, where (x, y, z) is a
    rotation of it: x < y < z, y < z < x or z < x < y.  The sums are keyed
    by ((a*count + b)*count + c)*(count + 1) + t, t the position of a
    generator of [x, w], or count for the coefficient of r in its constant,
    so keys sort by triple; a key whose sum cancels stays in with the value
    0.  A triple with no key has no term at all, whatever the table holds.
    """
    hits = [[] for _ in range(count)]  # hits[w]: the x with [x, w] nonzero, ascending
    for pos, (terms, const) in enumerate(table):
        if terms or const:
            x, w = divmod(pos, count)
            hits[w].append(x)
    width = count + 1
    sums: dict = {}
    for pos, (terms, _) in enumerate(table):
        if not terms:
            continue
        y, z = divmod(pos, count)
        for w, cw in terms:
            xs = hits[w]
            if y < z:  # x < y < z, or y < z < x
                below, above = bisect_left(xs, y), bisect_right(xs, z)
                triples = [((x * count + y) * count + z, x) for x in xs[:below]]
                triples += [((y * count + z) * count + x, x) for x in xs[above:]]
            else:  # z < x < y
                triples = [((z * count + x) * count + y, x)
                           for x in xs[bisect_right(xs, z) : bisect_left(xs, y)]]
            for triple, x in triples:
                outer_terms, outer_const = table[x * count + w]
                base = triple * width
                for target, ct in outer_terms:
                    sums[base + target] = sums.get(base + target, 0) + cw * ct
                if outer_const:
                    sums[base + count] = sums.get(base + count, 0) + cw * outer_const
    return sums


def _triples_through(a: int, b: int, c: int, count: int) -> int:
    """How many triples of range(count) come up to (a, b, c) in lexicographic order."""
    before_a = math.comb(count, 3) - math.comb(count - a, 3)
    before_b = math.comb(count - 1 - a, 2) - math.comb(count - b, 2)
    return before_a + before_b + (c - b)


def check_lie_axioms(config: SuiteConfig) -> CheckResult:
    """Antisymmetry and the Jacobi identity for the deformed bracket.

    Exhaustive over all canonical generator triples within the index bound,
    then randomly sampled over a larger bound with the generic parameter.
    Both parts sum the Jacobi identity in integer form: the exhaustive part
    from the table, the sampled part through _add_nested_int_bracket.
    The Jacobi sum of x, y, z is built from the generator parts w of the
    inner brackets [y,z], [z,x] and [x,y] (their constants are central),
    each bracketed with the remaining element, so a triple where no such
    outer bracket [x, w] is nonzero in the table has sum zero identically.
    _jacobi_sums accumulates every nonzero outer bracket into its triple in
    one pass over the table, and the triples left with a nonzero sum fail,
    in lexicographic order.  The other triples are certified without being
    summed (at d = 3, 65580 of the 2027795 get a term); every triple counts
    in the reported total, and an abort reports the place of the triple it
    stopped at.  Antisymmetry likewise compares only the pairs with a
    nonzero entry in either order and counts every pair.
    """
    failures = []
    gens = canonical_generators(LIE_INDEX_BOUND, config.d)
    count = len(gens)
    table = _int_bracket_table(gens)

    # a pair whose entries are both ((), 0) is antisymmetric; visit the others
    nonzero = set()
    for pos, (terms, const) in enumerate(table):
        if terms or const:
            x, y = divmod(pos, count)
            nonzero.add((min(x, y), max(x, y)))
    for a, b in sorted(nonzero):
        fwd_terms, fwd_const = table[a * count + b]
        rev_terms, rev_const = table[b * count + a]
        if fwd_const != -rev_const or dict(fwd_terms) != {t: -c for t, c in rev_terms}:
            failures.append(f"antisymmetry fails for {gens[a]}, {gens[b]}")
    anti_checked = count * (count + 1) // 2

    jacobi_checked = math.comb(count, 3)
    width = count + 1
    failing = sorted({key // width for key, value in _jacobi_sums(table, count).items() if value})
    for triple in failing:
        ab, c = divmod(triple, count)
        a, b = divmod(ab, count)
        failures.append(f"Jacobi fails for {gens[a]}, {gens[b]}, {gens[c]}")
        if len(failures) > MAX_REPORTED_FAILURES:
            jacobi_checked = _triples_through(a, b, c, count)
            break

    rng = random.Random(config.seed)
    wide = canonical_generators(SAMPLE_INDEX_BOUND, config.d)
    sampled = 0
    for _ in range(config.samples):
        x, y, z = (rng.choice(wide) for _ in range(3))
        acc = {}
        rconst = sum(_add_nested_int_bracket(acc, *t) for t in ((x, y, z), (y, z, x), (z, x, y)))
        sampled += 1
        if rconst or any(acc.values()):
            failures.append(f"sampled Jacobi fails for {x}, {y}, {z}")
            break
    details = (
        f"{anti_checked} antisymmetry pairs, {jacobi_checked} exhaustive triples "
        f"(bound {LIE_INDEX_BOUND}), {sampled} sampled triples "
        f"(bound {SAMPLE_INDEX_BOUND})"
    )
    checked = anti_checked + jacobi_checked + sampled
    return CheckResult("bracket-antisymmetry-jacobi", checked, details, failures)


def check_diagonal_pair_bracket(config: SuiteConfig) -> CheckResult:
    """Closed form of [v[i,i](m,n), v[i,i](-n,-m)]_r, symbolically in r."""
    failures = []
    checked = 0
    for i in (1, 2):
        for m in range(1, 6):
            for n in range(m, 6):
                lhs = bracket_r(
                    Generator(i, i, m, n), Generator(i, i, -n, -m)
                )
                mult = 2 if m == n else 1
                expected = LieElement.from_generator(
                    Generator(i, i, -m, m), Scalar.of(n * mult)
                )
                expected = expected + LieElement.from_generator(
                    Generator(i, i, -n, n), Scalar.of(m * mult)
                )
                expected = expected + LieElement.constant(R * (m * n * mult))
                checked += 1
                if lhs != expected:
                    failures.append(f"closed form fails for i={i}, m={m}, n={n}")
    return CheckResult(
        "diagonal-pair-bracket-closed-form",
        checked,
        f"{checked} (m, n) pairs with 1 <= m <= n <= 5",
        failures,
    )


def _bracket_pairs(table: list, count: int):
    """The pairs a <= b of table with a piece that acts on every u, as keys a*count + b.

    Returns the ascending keys whose r-constant is nonzero, and for each
    position p the keys whose generator part has p among its terms.
    """
    with_const = []
    through = [[] for _ in range(count)]
    for key, (terms, const) in enumerate(table):
        a, b = divmod(key, count)
        if a <= b:
            if const:
                with_const.append(key)
            for p, _ in terms:
                through[p].append(key)
    return with_const, through


def _live_pairs(count: int, u_live: tuple, x_rows: list, with_const: list, through: list) -> list:
    """The ascending keys a*count + b, a <= b, of the pairs whose sides on u can be nonzero.

    u_live holds the positions live on u, and x_rows[a] the rows of the
    monomials of x_a u.  A pair is kept if one generator is live on u and
    the other is live on some row of its image (x(y u) or y(x u) can be
    nonzero), or if [x, y] has an r-constant (with_const) or a generator
    term live on u (through).  Every other pair has both sides the zero
    dict, whatever the rows and the table hold.
    """
    keys = set(with_const)
    for p in u_live:
        keys.update(through[p])
    for a in u_live:
        base = a * count
        for _, live in x_rows[a]:
            split = bisect_left(live, a)
            keys.update([b * count + a for b in live[:split]])
            keys.update([base + b for b in live[split:]])
    return sorted(keys)


def _representation_sides(a: int, b: int, xy, mid: int, u_row: list, x_terms: list, y_terms: list):
    """x(y u) and y(x u) + [x, y] u as id images, for the generators x, y at positions a, b.

    u is the basis monomial of id mid with coefficient one and u_row lists
    its images.  x_terms and y_terms are the images x u and y u as
    (images, coefficient) pairs, one per term, images those of the term's
    monomial.  xy is the _int_bracket_table entry of [x, y]: its generator
    part as (position, coefficient) pairs, and the coefficient of r in its
    constant, which acts on u as a scalar.  Images are only read, and an
    empty one adds nothing.
    """
    terms, const = xy
    rhs: dict = {}
    for pos, c in terms:
        _add_scaled(rhs, u_row[pos], c)
    if const:
        _add(rhs, mid, R * const)
    for row, c in x_terms:
        _add_scaled(rhs, row[b], c)
    lhs: dict = {}
    for row, c in y_terms:
        _add_scaled(lhs, row[a], c)
    return lhs, rhs


def check_representation_property(config: SuiteConfig) -> CheckResult:
    """act(bracket_r(x,y), u) = act(x, act(y, u)) - act(y, act(x, u)).

    Exhaustive over canonical generator pairs within the index bound and
    every basis monomial u of bounded degree (d = 2).  Each u is one
    monomial with coefficient one, and both sides are composed from rows: a
    monomial's row, built by fock._action_rows, lists its id image
    (fock._act_id) under each generator, by position in the generator list,
    and the positions where that image is nonempty.  u reads its own row and the row of each monomial that
    some image of u reaches, so composing y after x u reads row[b] of each
    term of x u, with no lookup per pair.  [x,y] comes from
    _int_bracket_table, the table check 1 proves antisymmetric and Jacobi:
    its generator part is composed through u's row and its constant r*c
    adds r*c*u.  The two sides are id sums, compared as they stand; a
    failure prints u's State.

    Each row is built once and held only while a state still reads it.  A
    first pass builds every state's own row and records, for each
    monomial of a state's rows, the last state that reads its row.  Once
    that state is done, the row is dropped and the images cached on its
    monomial are evicted (fock._forget_images); a later recursion that
    needs one recomputes it, the same.  At the default scale 1184 rows are
    built, at most 9495 cached images are alive when a state's pairs are
    chosen and 2089 are left at the end, where all 38442 stayed alive
    while no row was released.

    Only the pairs _live_pairs keeps are composed, in (x, y) order: x(y u)
    needs x live on a row of y u, y(x u) needs y live on a row of x u, and
    [x,y] u needs an r-constant or a term live on u.  Every other pair has
    both sides the zero dict, read off the same rows and table, so it is
    counted without composing anything (at the default scale 84334 of the
    602946 pairs and states are composed), as check 1 counts the triples it
    does not sum.  Where [x,y] = 0 and x u and y u are each empty or one
    monomial with coefficient 1, the two sides are images in those
    monomials' rows, tuples sorted by monomial id, so they are compared as
    they stand, with no sum built.  An abort reports as checked the place
    of the failing pair and state in the order of all of them.
    """
    failures = []
    degree_bound = min(5, config.max_degree)
    gens = canonical_generators(REP_INDEX_BOUND, 2)
    count = len(gens)
    per_state = count * (count + 1) // 2
    table = _int_bracket_table(gens)
    with_const, through = _bracket_pairs(table, count)
    row_of = _action_rows(gens)
    zero_images = [()] * count
    monos = basis_monomials(degree_bound, 2)
    mids = [_mono_id(mono) for mono in monos]
    held = {mid: row_of(mid) for mid in mids}
    last = {}  # monomial id -> the index of the last state that reads its row
    for index, mid in enumerate(mids):
        images, live = held[mid]
        last[mid] = index
        last.update((m2, index) for a in live for m2, _ in images[a])
    for index, (mono, mid) in enumerate(zip(monos, mids)):
        u_row, u_live = held[mid]
        x_rows = [()] * count
        terms = [()] * count
        singles = [zero_images] * count  # the images of x u's one monomial, or None
        for a in u_live:
            image = u_row[a]
            for m2, _ in image:
                if m2 not in held:
                    held[m2] = row_of(m2)
            rows = x_rows[a] = [held[m2] for m2, _ in image]
            terms[a] = [(row[0], c) for row, (_, c) in zip(rows, image)]
            # an id coefficient equal to 1 is the int 1: a Scalar is a tuple
            single = len(image) == 1 and image[0][1] == 1
            singles[a] = rows[0][0] if single else None
        for key in _live_pairs(count, u_live, x_rows, with_const, through):
            a, b = divmod(key, count)
            xy = table[key]
            ua, ub = singles[a], singles[b]
            if ua is not None and ub is not None and not (xy[0] or xy[1]):
                if ub[a] == ua[b]:
                    continue
            else:
                lhs, rhs = _representation_sides(a, b, xy, mid, u_row, terms[a], terms[b])
                if lhs == rhs:
                    continue
            u = State.from_monomial(mono)
            failures.append(f"action disagrees with bracket for {gens[a]}, {gens[b]} on {u}")
            if len(failures) > MAX_REPORTED_FAILURES:
                # the pairs of the states before u, u's pairs before row a, then (a, a) .. (a, b)
                checked = index * per_state + a * count - a * (a - 1) // 2 + b - a + 1
                return CheckResult("action-respects-bracket", checked, "aborted early", failures)
        done = [m2 for m2 in held if last[m2] == index]
        for m2 in done:
            del held[m2]
        _forget_images(done)
    checked = len(monos) * per_state
    details = (
        f"{checked} generator pairs x states (index bound {REP_INDEX_BOUND}, "
        f"degree bound {degree_bound})"
    )
    return CheckResult("action-respects-bracket", checked, details, failures)


def _proportionality(a: State, b: State):
    """Exact c with a == b.scale(c), for states with polynomial coefficients."""
    if a.is_zero() or b.is_zero():
        return None
    mono = sorted(b.terms)[0]
    ca = a.coefficient(mono)
    cb = b.coefficient(mono)
    if not ca or not cb:
        return None
    try:
        ratio = poly_exact_div(ca, cb)
    except ValueError:
        return None
    return ratio if a == b.scale(ratio) else None


def _l_word(i: int, j: int, a: int, b: int) -> State:
    """L[i,i](-1)^b L[j,j](-1)^a L[i,j](-2) on the vacuum: check 4's word for a lowering pair."""
    word = act_L(i, j, -2, State.vacuum())
    for _ in range(a):
        word = act_L(j, j, -1, word)
    for _ in range(b):
        word = act_L(i, i, -1, word)
    return word


def check_lowering_recursions(config: SuiteConfig) -> CheckResult:
    """Mode recursions tying lowering pairs to words in the L operators."""
    failures = []
    vac = State.vacuum()
    checked = 0
    lo = -RECURSION_DEPTH

    for i, j in ((1, 1), (1, 2), (2, 1), (2, 2)):
        checked += 1
        if act(canonicalize(i, j, -1, -1), vac) != act_L(i, j, -2, vac).scale(2):
            failures.append(f"pair-creation base case fails for ({i},{j})")

    for i, j in ((1, 2), (2, 1)):
        for m in range(lo, 0):
            for n in range(lo, 0):
                checked += 1
                lhs = act(canonicalize(i, j, m - 1, n), vac)
                rhs = act_L(i, i, -1, act(canonicalize(i, j, m, n), vac)).scale(
                    Fraction(-1, m)
                )
                if lhs != rhs:
                    failures.append(f"first-slot recursion fails for ({i},{j},{m},{n})")

                checked += 1
                lhs = act(canonicalize(i, i, m - 1, n), vac)
                word = act_L(i, i, 0, act_L(i, j, -1, act(canonicalize(i, j, n, m), vac)))
                rhs = word.scale(Fraction(2, m * (m + n - 1)))
                if lhs != rhs:
                    failures.append(f"diagonal recursion fails for ({i},{j},{m},{n})")

    for i, j in ((1, 2), (2, 1)):
        for m in range(lo, 0):
            for n in range(lo, 0):
                checked += 1
                word = _l_word(i, j, -n - 1, -m - 1)
                if not _proportionality(act(canonicalize(i, j, m, n), vac), word):
                    failures.append(f"mixed-pair word fails for ({i},{j},{m},{n})")

        for m in range(lo, -1):
            for n in range(lo, 0):
                checked += 1
                word = act_L(i, i, 0, act_L(i, j, -1, _l_word(i, j, -m - 2, -n - 1)))
                if not _proportionality(act(canonicalize(i, i, m, n), vac), word):
                    failures.append(f"diagonal-pair word fails for ({i},{j},{m},{n})")
    details = f"{checked} recursion instances with modes in [{lo},-1]"
    return CheckResult("lowering-recursions", checked, details, failures)


def check_vertex_mode_formula(config: SuiteConfig) -> CheckResult:
    """Closed binomial vertex modes match the recursive commutator oracle.

    Both sides are compared as id sums, as check 3 compares its sides: each
    basis state takes its id once, and c(m, n) times the closed mode
    (virops._vertex_ids) must equal the oracle's integer multiple U = c(m,
    n) V (virops._recursion_ids).  A failure prints its state.
    """
    failures = []
    state_degree = min(4, config.max_degree)
    states = [(mono, _mono_id(mono)) for mono in basis_monomials(state_degree, 2)]
    lo = -VERTEX_INDEX_DEPTH
    checked = 0
    for (i, j), m, n in itertools.product(((1, 2), (2, 1)), range(lo, 0), range(lo, 0)):
        multiple = _multiple(m, n)
        for l in range(-VERTEX_MODE_BOUND, VERTEX_MODE_BOUND + 1):
            for mono, mid in states:
                checked += 1
                direct = _vertex_ids(i, j, m, n, l, {mid: 1})
                oracle = _recursion_ids(i, j, m, n, l, {mid: 1})
                if {key: multiple * c for key, c in direct.items()} != oracle:
                    failures.append(f"vertex mode mismatch at ({i},{j},{m},{n}), l={l} "
                                    f"on {State.from_monomial(mono)}")
                    if len(failures) > MAX_REPORTED_FAILURES:
                        return CheckResult("vertex-mode-binomial-formula", checked,
                                           "aborted early", failures)
    details = (
        f"{checked} mode evaluations (modes in [{lo},-1], |l| <= "
        f"{VERTEX_MODE_BOUND}, states of degree <= {state_degree})"
    )
    return CheckResult("vertex-mode-binomial-formula", checked, details, failures)


def check_binomial_determinants(config: SuiteConfig) -> CheckResult:
    """The binomial transfer matrices are invertible throughout the range.

    Each has determinant exactly (-1)^(M(M-1)/2) for every L, the sign of
    reversing M rows, so its rows reversed have determinant 1.  The
    reversed rows make the eliminator swap rows, which the matrices as
    they stand never do; each (L, M) pair counts once.
    """
    failures = []
    checked = 0
    for size in range(1, DET_SIZE_BOUND + 1):
        want = (-1) ** (size * (size - 1) // 2)
        for shift in range(-DET_SHIFT_BOUND, DET_SHIFT_BOUND + 1):
            checked += 1
            if binomial_matrix_det(shift, size) != want:
                failures.append(f"transfer matrix at L={shift}, M={size}: det is not {want}")
            if _int_det(_binomial_rows(shift, size)[::-1]) != 1:
                failures.append(f"reversed transfer matrix at L={shift}, M={size}: det is not 1")
    details = (
        f"{checked} determinants (M <= {DET_SIZE_BOUND}, "
        f"|L| <= {DET_SHIFT_BOUND})"
    )
    return CheckResult("mode-transfer-determinants", checked, details, failures)


def check_diagonal_raising_eigenvalue(config: SuiteConfig) -> CheckResult:
    """v(m,m) on v(-m,-m)^nu vacuum gives 2 m^2 nu (r + 2 nu - 2) times the rest."""
    failures = []
    checked = 0
    for m in range(1, VMM_MODE_BOUND + 1):
        lower = Generator(1, 1, -m, -m)
        for nu in range(1, VMM_POWER_BOUND + 1):
            checked += 1
            lhs = act(Generator(1, 1, m, m), State.from_monomial((lower,) * nu))
            prev = State.from_monomial((lower,) * (nu - 1))
            rhs = prev.scale(Scalar.of(2 * m * m * nu) * (R + Scalar.of(2 * nu - 2)))
            if lhs != rhs:
                failures.append(f"eigenvalue form fails for m={m}, nu={nu}")
    details = (
        f"{checked} (m, nu) pairs with m <= {VMM_MODE_BOUND}, "
        f"nu <= {VMM_POWER_BOUND}"
    )
    return CheckResult("diagonal-raising-eigenvalue", checked, details, failures)


def check_determinant_power_singular(config: SuiteConfig) -> CheckResult:
    """Determinant powers are singular at r = 1 - 2 nu + p, full index range."""
    failures = []
    checked = 0
    for p, nu in CERTIFICATION_CASES:
        r0 = certification_r(p, nu)
        state = det_power_state(p, nu)
        ok, witness = is_singular(state, r0=r0, d=2)
        checked += 1
        if not ok:
            failures.append(
                f"(p={p}, nu={nu}) fails at r={r0}: witness {witness[0]}"
            )
    details = f"{checked} determinant powers {CERTIFICATION_CASES}"
    return CheckResult("determinant-power-singular", checked, details, failures)


def _structure_checks(vector: State, p: int, nu: int, failures: list):
    """Coefficient structure of a found kernel vector.

    (p, nu) comes from expected_singular_pairs, which keeps only the pairs
    with certification_r(p, nu) equal to the searched r, so the parameter
    relation holds by construction; a filter that broke it would expect a
    kernel where the sweep finds none, and the dimension test catches that.
    """
    reference = det_power_state(p, nu)
    if _proportionality(vector, reference) is None:
        failures.append(f"kernel vector at (p={p}, nu={nu}) is not the determinant power")
        return
    anchor = tuple(
        sorted(Generator(1, 1, -q, -q) for q in range(1, p + 1) for _ in range(nu))
    )
    lead = vector.coefficient(anchor)
    if not lead:
        failures.append(f"kernel vector at (p={p}, nu={nu}) misses the anchor monomial")
        return
    normalised = vector.scale(ONE / Fraction(lead.constant_value()))
    for s in range(2, p + 1):
        for t in range(1, s):
            factors = [Generator(1, 1, -s, -t)] * 2
            factors += [Generator(1, 1, -s, -s)] * (nu - 1)
            factors += [Generator(1, 1, -t, -t)] * (nu - 1)
            for q in range(1, p + 1):
                if q not in (s, t):
                    factors += [Generator(1, 1, -q, -q)] * nu
            coeff = normalised.coefficient(tuple(sorted(factors)))
            if coeff != Scalar.of(-nu):
                failures.append(
                    f"exchange coefficient at (p={p}, nu={nu}), pair ({s},{t}) "
                    f"is {coeff}, expected {-nu}"
                )


def _minor_mismatches(lams) -> list:
    """Each weight's generic minor against a Q[r] determinant of the same rows.

    The minor comes from one integer elimination at a point (singular's
    Kronecker substitution).  The transpose of the weight's search matrix
    is eliminated here over Q[r] instead, by the nullspace builder of the
    generic kernel: its pivot columns are the first rows independent over
    Q(r), the rows the minor must have chosen, and at full column rank its
    last pivot is plus or minus their determinant.  Below full rank the
    minor must be ZERO.  Each matrix is built afresh by _search_matrix,
    which caches nothing.
    """
    failures = []
    for lam in lams:
        basis, rows = _search_matrix(lam)
        if basis:
            minor = _generic_minor(rows, len(basis))
            transpose = [[Scalar.of(x) for x in col] for col in zip(*rows)]
            free, last = _nullspace(transpose, len(rows), poly_exact_div, ONE)
            expected = last if len(rows) - len(free) == len(basis) else ZERO
            if minor not in (expected, -expected):
                failures.append(f"minor at weight {lam} is {minor}, not +-({expected})")
    return failures


def check_singular_kernel_sweep(config: SuiteConfig) -> CheckResult:
    """Kernel dimensions across all first-oscillator weights and parameter values.

    One singular_sweep runs every search, and expected_singular_pairs
    builds one map per parameter.  Non-integer and generic
    parameters must give empty kernels everywhere; integer parameters give
    one-dimensional kernels exactly at the determinant-power weights, whose
    vectors carry the predicted structure.  Each searched weight's minor
    must agree with its Q[r] determinant (_minor_mismatches).  A kernel
    vector that fails is_singular's re-certification raises
    SingularVerificationError, which run_check reports under this check's
    name, as it does for every check that raises.
    """
    r_values = (*NON_INTEGER_SWEEP, *INTEGER_SWEEP)
    reports = singular_sweep(r_values, config.max_degree)
    expected = {r0: expected_singular_pairs(r0, config.max_degree) for r0 in r_values}
    failures = _minor_mismatches(dict.fromkeys(report.weight for report in reports))
    for report in reports:
        lam, r0 = report.weight, report.r0
        pair = expected[r0].get(lam)
        if pair is None:
            if report.kernel_dim:
                failures.append(f"unexpected kernel at weight {lam}, r={r0}")
        elif report.kernel_dim != 1:
            failures.append(
                f"kernel at weight {lam}, r={r0} has dimension {report.kernel_dim}, expected 1"
            )
        else:
            _structure_checks(report.kernel_vectors[0], *pair, failures)
    details = (
        f"{len(reports)} weight-space searches over {len({rep.weight for rep in reports})} "
        f"weights (degree <= {config.max_degree})"
    )
    return CheckResult("singular-kernel-sweep", len(reports), details, failures)


def determinant_commutation(sizes) -> CheckResult:
    """Determinant commutation and eigenvalue identities for each size p, symbolically in r."""
    failures = []
    checked = 0
    for p in sizes:
        count, found = verify_det_lemmas(p)
        checked += count
        failures.extend(found)
    sizes_text = ", ".join(map(str, sizes))
    details = f"determinant sizes p in {{{sizes_text}}}, exchange modes up to p + 2"
    return CheckResult("determinant-commutation", checked, details, failures)


def check_determinant_commutation(config: SuiteConfig) -> CheckResult:
    """Check 9b: the determinant identities for p in {1, 2, 3}."""
    return determinant_commutation((1, 2, 3))


def virasoro_central_charge(d_levels, state_degree: int) -> CheckResult:
    """The diagonal mode sums close a Virasoro algebra of central charge d*r.

    For each d in d_levels, on every basis state of degree <= state_degree
    and every (m, n) with |m|, |n| <= VIRASORO_INDEX_BOUND.  Only m < n is
    probed.  The probe [L(m), L(n)] u - (m - n) L(m+n) u is odd under
    swapping m and n: its two compositions trade places and m - n changes
    sign, on the same three images.  The central term delta_{m+n,0}
    (m^3 - m)/12 d r u is odd too, since n = -m gives n^3 - n = -(m^3 - m).
    So the relation at (n, m) is the relation at (m, n) negated, and at
    m = n both sides are zero.  The mirrored and diagonal instances are
    certified without being computed and count in the reported total.

    Both sides are compared as id sums, as check 3 compares its sides: each
    basis state takes its id once, and 4 times the probe
    (virops._probe_ids) must equal r times virops._central on it.  A
    failure prints its state.
    """
    failures = []
    checked = 0
    bound = VIRASORO_INDEX_BOUND
    for d in d_levels:
        pairs = tuple((i, i) for i in range(1, d + 1))
        states = [(mono, _mono_id(mono)) for mono in basis_monomials(state_degree, d)]
        checked += (2 * bound + 1) * len(states)  # the diagonal m = n
        for m in range(-bound, bound + 1):
            for n in range(m + 1, bound + 1):
                central = _central(m, n, d)
                for mono, mid in states:
                    checked += 2  # (m, n) and its mirror (n, m)
                    if _probe_ids(pairs, m, n, {mid: 1}) != ({mid: R * central} if central else {}):
                        failures.append(f"Virasoro relation fails at ({m},{n}), d={d} "
                                        f"on {State.from_monomial(mono)}")
                        if len(failures) > MAX_REPORTED_FAILURES:
                            return CheckResult(
                                "virasoro-central-charge", checked, "aborted early", failures
                            )
    details = (
        f"{checked} probes (|m|,|n| <= {bound}, states of degree <= "
        f"{state_degree}, d in {list(d_levels)})"
    )
    return CheckResult("virasoro-central-charge", checked, details, failures)


def check_virasoro_central_charge(config: SuiteConfig) -> CheckResult:
    """Check 10: the Virasoro relation for d in 2..config.d on states of degree <= 4."""
    return virasoro_central_charge(range(2, config.d + 1), min(4, config.max_degree))


def check_griess_jordan(config: SuiteConfig) -> CheckResult:
    """Check 11: the degree-2 dimension and the isomorphism onto symmetric
    matrices, from which commutativity and the Jordan identity follow."""
    failures = []
    reports = []
    for d in range(2, config.d + 1):
        try:
            report = jordan_verify(build_griess_table(d))
            reports.append(
                f"d={d}: dim {report['dimension']}, scales "
                f"({report['diagonal_scale']}, {report['off_diagonal_scale']})"
            )
        except Exception as exc:  # GriessVerificationError and friends
            failures.append(f"d={d}: {exc}")
    return CheckResult(
        "griess-jordan-isomorphism", len(reports) + len(failures), "; ".join(reports), failures
    )


def _reports(name: str, check):
    """check, marked with the name its CheckResult reports, which run_check gives it if it raises.

    An attribute of the function, so functools.wraps carries it to a wrapper.
    """
    check.report_name = name
    return check


ALL_CHECKS = (
    ("1", _reports("bracket-antisymmetry-jacobi", check_lie_axioms)),
    ("2", _reports("diagonal-pair-bracket-closed-form", check_diagonal_pair_bracket)),
    ("3", _reports("action-respects-bracket", check_representation_property)),
    ("4", _reports("lowering-recursions", check_lowering_recursions)),
    ("5", _reports("vertex-mode-binomial-formula", check_vertex_mode_formula)),
    ("6", _reports("mode-transfer-determinants", check_binomial_determinants)),
    ("7", _reports("diagonal-raising-eigenvalue", check_diagonal_raising_eigenvalue)),
    ("8", _reports("determinant-power-singular", check_determinant_power_singular)),
    ("9", _reports("singular-kernel-sweep", check_singular_kernel_sweep)),
    ("9b", _reports("determinant-commutation", check_determinant_commutation)),
    ("10", _reports("virasoro-central-charge", check_virasoro_central_charge)),
    ("11", _reports("griess-jordan-isomorphism", check_griess_jordan)),
)
# the verify-det and virasoro-check commands run these through run_check as they stand
_reports("determinant-commutation", determinant_commutation)
_reports("virasoro-central-charge", virasoro_central_charge)


def run_check(check, *args) -> CheckResult:
    """check(*args), timed; a check that raises fails with nothing checked.

    peak_mb is the process's peak resident memory so far, read after the
    check (ru_maxrss): in a battery, the first check to show the largest
    figure set the peak.

    A raising check is reported under its report_name (see _reports), or
    under its function's name if it has none.  Checks are independent, so
    every engine cache is emptied first by one fock.clear_action_cache:
    fock's id tables, with each generator's frozen images (fock._IMAGES;
    at the default scale check 3 takes the most ids, 18440, and check 5
    leaves the most images, 7471, as check 3 releases its own), every
    memo entry (fock._ACT_CACHE: the mode-sum and recursion images of
    virops on monomial ids, the operators' id forms and singular's
    per-weight search systems) and liealg._pair_bracket's memo, the one
    cache of the brackets that the action, bracket_r and check 1's sampled
    triples read.  Checks 1 and 3 read their other brackets from a table
    (_int_bracket_table) that lives only while the check runs.  No check's images, ids or brackets
    outlive the next check.

    The check runs under fock.collector_paused.  That is safe: the caches
    are acyclic and a check makes no cyclic garbage, so reference counting
    frees all the collector would, and its rescans of every cached entry
    (a tenth of a default battery) are saved.  Concurrent callers can only
    lose that saving.
    """
    clear_action_cache()
    start = time.perf_counter()
    with collector_paused():
        try:
            result = check(*args)
        except Exception as exc:
            name = getattr(check, "report_name", check.__name__)
            result = CheckResult(name, 0, f"raised {exc!r}")
    result.seconds = time.perf_counter() - start
    result.peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    return result


def run_paper_suite(config: SuiteConfig | None = None) -> list:
    """Run every check; returns the list of CheckResults in criterion order.

    The whole battery runs in one collector pause, so each run_check empties
    the action cache before the collector resumes; resuming after every
    check would scan that check's whole cache once more.
    """
    config = config or SuiteConfig()
    with collector_paused():
        return [run_check(check, config) for _, check in ALL_CHECKS]
