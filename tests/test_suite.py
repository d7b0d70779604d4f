"""The suite's fast paths for checks 1 and 3: oracles and planted faults.

Checks 1 and 3 read one integer bracket table, built only for pairs that
share a contractible mode.  Check 1 accumulates every nonzero outer bracket
of an inner generator into its triple in one pass, and compares
antisymmetry only for pairs with a nonzero entry.  Check 3 composes through
per-monomial rows of single-generator images, and only the pairs and states
where a side can be nonzero; it counts the others without composing.  These
tests keep the plain computations each fast path replaced (the per-triple
Jacobi loop over _nontrivial_triples, the dense loop of check 3) as
references, compare the fast paths with them and with the public act and
bracket_r, and show that each check still fails when one of its inputs is
wrong, with the report the reference gives.
"""

import functools
import gc
import math
import multiprocessing
import os
import pickle
import random
import signal
import sys
import time
import types
from bisect import bisect_left, bisect_right
from itertools import combinations

import pytest

from jordan_voa import fock, suite
from jordan_voa.fock import State, act, clear_action_cache
from jordan_voa.liealg import (
    Generator,
    LieElement,
    _contraction,
    _pair_bracket,
    bracket_r,
    canonical_generators,
)
from jordan_voa.scalar import R, Scalar
from jordan_voa.suite import SuiteConfig
from test_fock import cached_actions, cached_images, on_monomials

SMALL = SuiteConfig(d=2, max_degree=2, samples=0)


# -- check 1 ---------------------------------------------------------------


def _jacobi_is_zero(x, y, z):
    total = (
        bracket_r(x, bracket_r(y, z))
        + bracket_r(y, bracket_r(z, x))
        + bracket_r(z, bracket_r(x, y))
    )
    return total.is_zero()


def _nontrivial_triples(table, count):
    """The reference: the triples a < b < c, in lexicographic order, where for
    some rotation (x, y, z) a generator w of [y, z] has [x, w] nonzero."""
    hits = [[] for _ in range(count)]  # hits[w]: the x with [x, w] nonzero, ascending
    for pos, (terms, const) in enumerate(table):
        if terms or const:
            x, w = divmod(pos, count)
            hits[w].append(x)
    found = set()
    for pos, (terms, _) in enumerate(table):
        if not terms:
            continue
        y, z = divmod(pos, count)
        for w, _ in terms:
            xs = hits[w]
            if y < z:  # x < y < z, or y < z < x
                found.update((x, y, z) for x in xs[: bisect_left(xs, y)])
                found.update((y, z, x) for x in xs[bisect_right(xs, z):])
            else:  # z < x < y
                found.update((z, x, y) for x in xs[bisect_right(xs, z) : bisect_left(xs, y)])
    return sorted(found)


def _jacobi_sum_is_zero(table, count, a, b, c):
    """The reference: the Jacobi sum of one triple, summed rotation by rotation."""
    acc: dict = {}
    rconst = 0
    for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
        for w, cw in table[y * count + z][0]:
            outer_terms, outer_const = table[x * count + w]
            for target, ct in outer_terms:
                acc[target] = acc.get(target, 0) + cw * ct
            rconst += cw * outer_const
    return not (rconst or any(acc.values()))


def _triple_of(key, count):
    """The triple (a, b, c) of a _jacobi_sums key."""
    ab, c = divmod(key // (count + 1), count)
    return (*divmod(ab, count), c)


def _summed_triples(table, count):
    """The triples _jacobi_sums gives a key, ascending."""
    return sorted({_triple_of(key, count) for key in suite._jacobi_sums(table, count)})


def _skipped_triples(bound, d):
    gens = canonical_generators(bound, d)
    count = len(gens)
    kept = set(_summed_triples(suite._int_bracket_table(gens), count))
    return gens, [t for t in combinations(range(count), 3) if t not in kept]


def _triples_with_a_term(table, count):
    """Brute force: the triples whose Jacobi sum in table has at least one term."""
    return [
        (a, b, c)
        for a, b, c in combinations(range(count), 3)
        if any(
            table[x * count + w] != ((), 0)
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b))
            for w, _ in table[y * count + z][0]
        )
    ]


def _random_table(rng, count, size):
    """A table with no Lie structure: entries over a few positions, coefficients +-1 and +-2."""
    positions = rng.sample(range(count), size)
    table = [((), 0)] * (count * count)
    for _ in range(rng.randrange(1, 3 * size)):
        y, z = rng.choice(positions), rng.choice(positions)
        terms = tuple((rng.choice(positions), rng.choice((-2, -1, 1, 2)))
                      for _ in range(rng.randrange(3)))
        table[y * count + z] = (terms, rng.choice((0, 0, 1, -1))) if terms else ((), 1)
    return table


def test_nontrivial_triples_are_those_whose_jacobi_sum_has_a_term():
    gens = canonical_generators(2, 2)
    count = len(gens)
    table = suite._int_bracket_table(gens)
    expected = _triples_with_a_term(table, count)
    assert _summed_triples(table, count) == expected == _nontrivial_triples(table, count)
    assert 0 < len(expected) < math.comb(count, 3)
    assert not any(suite._jacobi_sums(table, count).values())


def test_nontrivial_triples_need_no_lie_structure_in_the_table():
    """On random tables, with no antisymmetry or Jacobi, the same triples get a term,
    and the same of them fail as when each is summed on its own."""
    rng = random.Random(11)
    count = 10
    failing = 0
    for _ in range(20):
        table = [
            (tuple((rng.randrange(count), 1) for _ in range(rng.randrange(1, 3))), 0)
            if rng.random() < 0.1
            else ((), rng.choice((0, 0, 0, 1)))
            for _ in range(count * count)
        ]
        triples = _triples_with_a_term(table, count)
        assert _summed_triples(table, count) == triples == _nontrivial_triples(table, count)
        sums = suite._jacobi_sums(table, count)
        expected = [t for t in triples if not _jacobi_sum_is_zero(table, count, *t)]
        assert sorted({_triple_of(key, count) for key, value in sums.items() if value}) == expected
        failing += len(expected)
    assert failing


def test_every_skipped_triple_satisfies_jacobi_through_the_public_bracket():
    gens, skipped = _skipped_triples(1, 2)
    assert skipped
    for a, b, c in skipped:
        assert _jacobi_is_zero(gens[a], gens[b], gens[c]), (gens[a], gens[b], gens[c])
    gens, skipped = _skipped_triples(2, 2)
    for a, b, c in random.Random(7).sample(skipped, 500):
        assert _jacobi_is_zero(gens[a], gens[b], gens[c]), (gens[a], gens[b], gens[c])


@pytest.fixture(
    scope="module",
    params=[(suite.LIE_INDEX_BOUND, 3), (suite.REP_INDEX_BOUND, 2)],
    ids=["check-1", "check-3"],
)
def dense_table(request):
    """A check's generators and their table, every ordered pair through _pair_bracket."""
    gens = canonical_generators(*request.param)
    index = {g: pos for pos, g in enumerate(gens)}
    table = []
    for g in gens:
        for h in gens:
            terms, const = _pair_bracket(g, h)
            table.append((tuple((index[t], c) for t, c in terms), const))
    return gens, table


def test_sparse_bracket_table_equals_the_dense_build(dense_table):
    gens, table = dense_table
    assert suite._int_bracket_table(gens) == table


def _assert_only_action_fails(res):
    assert not res.passed
    assert res.failures and all(f.startswith("action disagrees") for f in res.failures)


def test_a_partner_filter_on_first_modes_misses_brackets(plant, dense_table):
    plant("partner-modes-read-only-the-first-slot")
    gens, table = dense_table
    assert suite._int_bracket_table(gens) != table


def test_a_partner_filter_on_first_modes_fails_check_3(plant):
    plant("partner-modes-read-only-the-first-slot")
    _assert_only_action_fails(suite.check_representation_property(SMALL))


def test_triples_through_is_the_lexicographic_position():
    for count in range(3, 9):
        for pos, (a, b, c) in enumerate(combinations(range(count), 3)):
            assert suite._triples_through(a, b, c, count) == pos + 1


def _corrupt_bracket_table(monkeypatch, pick):
    """Replace [x, y] and [y, x] by a wrong but antisymmetric pair of entries.

    pick(table, count) returns (x, y, terms, const) for the new entry (x, y);
    antisymmetry still holds, so only the Jacobi sums can see the change.
    """
    original = suite._int_bracket_table

    def corrupted(gens):
        table = original(gens)
        count = len(gens)
        x, y, terms, const = pick(table, count)
        table[x * count + y] = (terms, const)
        table[y * count + x] = (tuple((t, -c) for t, c in terms), -const)
        return table

    monkeypatch.setattr(suite, "_int_bracket_table", corrupted)


def _first_pair(table, count, nonempty):
    return next(
        (x, y)
        for x in range(count)
        for y in range(x + 1, count)
        if bool(table[x * count + y][0]) == nonempty
    )


def _assert_only_jacobi_fails(res):
    assert not res.passed
    assert res.failures and all(f.startswith("Jacobi fails") for f in res.failures)


def test_check_1_fails_when_a_nonempty_bracket_entry_is_wrong(monkeypatch):
    def pick(table, count):
        x, y = _first_pair(table, count, nonempty=True)
        terms, const = table[x * count + y]
        (t, c), *rest = terms
        return x, y, ((t, c + 1), *rest), const

    _corrupt_bracket_table(monkeypatch, pick)
    _assert_only_jacobi_fails(suite.check_lie_axioms(SMALL))


def test_check_1_fails_when_an_empty_bracket_entry_is_made_nonempty(monkeypatch):
    def pick(table, count):
        x, y = _first_pair(table, count, nonempty=False)
        return x, y, ((x, 1),), table[x * count + y][1]

    _corrupt_bracket_table(monkeypatch, pick)
    _assert_only_jacobi_fails(suite.check_lie_axioms(SMALL))


def test_check_1_reports_each_antisymmetry_failure_once_in_pair_order(monkeypatch):
    original = suite._int_bracket_table

    def corrupted(gens):
        table = original(gens)
        count = len(gens)
        table[5 * count + 2] = (table[5 * count + 2][0], table[5 * count + 2][1] + 1)
        table[3 * count + 3] = ((3, 1),), 0
        return table

    monkeypatch.setattr(suite, "_int_bracket_table", corrupted)
    res = suite.check_lie_axioms(SMALL)
    gens = canonical_generators(suite.LIE_INDEX_BOUND, SMALL.d)
    assert [f for f in res.failures if f.startswith("antisymmetry")] == [
        f"antisymmetry fails for {gens[2]}, {gens[5]}",
        f"antisymmetry fails for {gens[3]}, {gens[3]}",
    ]
    assert res.details.startswith(f"{math.comb(len(gens) + 1, 2)} antisymmetry pairs")


def test_check_1_stops_early_and_counts_the_triples_it_reached(monkeypatch):
    def pick(table, count):
        x, y = _first_pair(table, count, nonempty=False)
        return x, y, ((x, 1),), table[x * count + y][1]

    _corrupt_bracket_table(monkeypatch, pick)
    res = suite.check_lie_axioms(SMALL)
    assert len(res.failures) == suite.MAX_REPORTED_FAILURES + 1
    total = math.comb(len(canonical_generators(suite.LIE_INDEX_BOUND, SMALL.d)), 3)
    reached = int(res.details.split(" exhaustive triples")[0].split()[-1])
    assert 0 < reached < total


def _reference_exhaustive_part(table, gens):
    """The reference: check 1's antisymmetry pairs, then its per-triple Jacobi loop over
    _nontrivial_triples, as (failures, jacobi_checked)."""
    count = len(gens)
    failures = []
    for a in range(count):
        for b in range(a, count):
            (fwd_terms, fwd_const), (rev_terms, rev_const) = table[a * count + b], table[b * count + a]
            if fwd_const != -rev_const or dict(fwd_terms) != {t: -c for t, c in rev_terms}:
                failures.append(f"antisymmetry fails for {gens[a]}, {gens[b]}")
    for a, b, c in _nontrivial_triples(table, count):
        if not _jacobi_sum_is_zero(table, count, a, b, c):
            failures.append(f"Jacobi fails for {gens[a]}, {gens[b]}, {gens[c]}")
            if len(failures) > suite.MAX_REPORTED_FAILURES:
                return failures, suite._triples_through(a, b, c, count)
    return failures, math.comb(count, 3)


def _antisymmetric_but(table, count, rng, broken):
    """table with entry (z, y) = -(y, z) for y < z and a zero diagonal, then `broken`
    entries given a wrong constant."""
    for y in range(count):
        table[y * count + y] = ((), 0)
        for z in range(y + 1, count):
            terms, const = table[y * count + z]
            table[z * count + y] = (tuple((t, -c) for t, c in terms), -const)
    for pos in rng.sample(range(count * count), broken):
        terms, const = table[pos]
        table[pos] = (terms, const + 1)
    return table


def test_check_1_reports_what_the_per_triple_loop_reports_on_random_tables(monkeypatch):
    """With antisymmetry failures first, the one-pass sums fail the same triples in the
    same order, and an abort counts the same triples, as the per-triple loop."""
    gens = canonical_generators(suite.LIE_INDEX_BOUND, SMALL.d)
    count = len(gens)
    rng = random.Random(3)
    table = None
    monkeypatch.setattr(suite, "_int_bracket_table", lambda g: table)
    seen = set()
    for _ in range(40):
        broken = rng.randrange(4)
        table = _antisymmetric_but(_random_table(rng, count, rng.randrange(3, 12)), count, rng, broken)
        res = suite.check_lie_axioms(SMALL)
        failures, jacobi_checked = _reference_exhaustive_part(table, gens)
        assert res.failures == failures
        anti_checked = math.comb(count + 1, 2)
        assert res.details == (
            f"{anti_checked} antisymmetry pairs, {jacobi_checked} exhaustive triples "
            f"(bound {suite.LIE_INDEX_BOUND}), 0 sampled triples (bound {suite.SAMPLE_INDEX_BOUND})"
        )
        assert res.checked == anti_checked + jacobi_checked
        sums = suite._jacobi_sums(table, count)
        assert sorted({_triple_of(key, count) for key, value in sums.items() if value}) == [
            t for t in _nontrivial_triples(table, count) if not _jacobi_sum_is_zero(table, count, *t)
        ]
        anti = sum(f.startswith("antisymmetry") for f in failures)
        seen.add((anti > 0, len(failures) > anti, jacobi_checked < math.comb(count, 3)))
    # (antisymmetry fails, Jacobi fails, aborted): aborts with and without antisymmetry
    # failures before the Jacobi ones, and runs that fail without aborting
    assert {(True, True, True), (False, True, True), (True, True, False), (False, True, False)} <= seen


def test_nested_int_bracket_is_the_public_nested_bracket():
    """The sampled part's integer form of [x, [y, z]] is bracket_r(x, bracket_r(y, z))."""
    wide = canonical_generators(suite.SAMPLE_INDEX_BOUND, 3)
    rng = random.Random(5)
    nonzero = 0
    for _ in range(300):
        x, y, z = (rng.choice(wide) for _ in range(3))
        acc = {}
        rconst = suite._add_nested_int_bracket(acc, x, y, z)
        expected = bracket_r(x, bracket_r(y, z))
        got = LieElement({t: Scalar.of(c) for t, c in acc.items()}) + LieElement.constant(R * rconst)
        assert got == expected, (x, y, z)
        nonzero += not expected.is_zero()
    assert nonzero


def _modes_contract(g, h):
    """The reference: some mode of g and some mode of h have a nonzero commutator."""
    modes = ((g.i, g.m), (g.j, g.n)), ((h.i, h.m), (h.j, h.n))
    return any(_contraction(a, b) for a in modes[0] for b in modes[1])


def test_check_1_asks_only_for_brackets_of_pairs_that_contract(monkeypatch):
    config = SuiteConfig(d=2, max_degree=2, samples=200)
    expected = suite.check_lie_axioms(config).summary_line()
    asked = []

    def spy(g, h):
        asked.append((g, h))
        return _pair_bracket(g, h)

    # the table asks the uncached closed form, the sampled triples the memo: spy on both
    monkeypatch.setattr(suite, "_pair_bracket", spy)
    monkeypatch.setattr(suite, "_closed_pair_bracket", spy)
    assert suite.check_lie_axioms(config).summary_line() == expected
    assert asked and all(_modes_contract(g, h) for g, h in asked)
    with_samples = len(asked)
    asked.clear()
    suite.check_lie_axioms(SuiteConfig(d=2, max_degree=2, samples=0))
    assert 0 < len(asked) < with_samples  # the spy saw both the table's pairs and the samples'


def test_the_bracket_table_adds_no_entry_to_the_pair_bracket_memo():
    """Checks 1 and 3 cache their pairs in the table alone, not also in _pair_bracket's memo."""
    table = suite._int_bracket_table(canonical_generators(2, 2))
    assert any(terms for terms, _ in table)
    assert _pair_bracket.cache_info().currsize == 0


def test_only_the_samples_see_a_fault_beyond_the_exhaustive_bound(plant):
    """Check 1's table stops at |m| = 3, its sampled triples at 6."""
    plant("pair-bracket-doubles-its-terms-from-mode-4")
    assert suite.check_lie_axioms(SMALL).passed
    res = suite.check_lie_axioms(SuiteConfig(d=2, max_degree=2))
    assert not res.passed
    assert [f.split(" fails")[0] for f in res.failures] == ["sampled Jacobi"]


# -- check 3 ---------------------------------------------------------------


def _reference_check_3(config):
    """The reference: check 3's dense loop, every pair composed on every state from the id
    images, with the same failures, abort and count as the check."""
    degree_bound = min(5, config.max_degree)
    gens = canonical_generators(suite.REP_INDEX_BOUND, 2)
    count = len(gens)
    gids = [fock._gen_id(g) for g in gens]
    table = suite._int_bracket_table(gens)
    rows: dict = {}

    def row_of(mid):
        if mid not in rows:
            rows[mid] = [fock._act_id(g, mid) for g in gids]
        return rows[mid]

    failures = []
    checked = 0
    for mono in fock.basis_monomials(degree_bound, 2):
        mid = fock._mono_id(mono)
        u_row = row_of(mid)
        for a in range(count):
            for b in range(a, count):
                checked += 1
                terms, const = table[a * count + b]
                rhs: dict = {}
                for pos, c in terms:
                    fock._add_scaled(rhs, u_row[pos], c)
                if const:
                    fock._add(rhs, mid, R * const)
                for m2, c in u_row[a]:
                    fock._add_scaled(rhs, row_of(m2)[b], c)
                lhs: dict = {}
                for m2, c in u_row[b]:
                    fock._add_scaled(lhs, row_of(m2)[a], c)
                if lhs != rhs:
                    u = State.from_monomial(mono)
                    failures.append(
                        f"action disagrees with bracket for {gens[a]}, {gens[b]} on {u}"
                    )
                    if len(failures) > suite.MAX_REPORTED_FAILURES:
                        return suite.CheckResult(
                            "action-respects-bracket", checked, "aborted early", failures
                        )
    details = (
        f"{checked} generator pairs x states (index bound {suite.REP_INDEX_BOUND}, "
        f"degree bound {degree_bound})"
    )
    return suite.CheckResult("action-respects-bracket", checked, details, failures)


def _assert_only_action_fails_as_the_reference_does(config, aborted):
    res = suite.check_representation_property(config)
    _assert_only_action_fails(res)
    ref = _reference_check_3(config)
    assert (res.checked, res.details, res.failures) == (ref.checked, ref.details, ref.failures)
    assert (res.details == "aborted early") == aborted
    return res


def test_representation_sides_match_the_state_action():
    gens = canonical_generators(2, 2)
    count = len(gens)
    table = suite._int_bracket_table(gens)
    row_of = suite._action_rows(gens)  # builds each row afresh: it keeps none
    for mono in fock.basis_monomials(4, 2):  # degree 4 has two-factor monomials
        u = State.from_monomial(mono)
        mid = fock._mono_id(mono)
        u_row, u_live = row_of(mid)
        assert row_of(mid) == (u_row, u_live) and row_of(mid)[0] is not u_row
        assert u_live == tuple(p for p, g in enumerate(gens) if not act(g, u).is_zero())
        terms = [[(row_of(m2)[0], c) for m2, c in image] for image in u_row]
        for a, x in enumerate(gens):
            for b in range(a, count):
                y = gens[b]
                xy = bracket_r(x, y)
                lhs, rhs = suite._representation_sides(
                    a, b, table[a * count + b], mid, u_row, terms[a], terms[b]
                )
                assert on_monomials(lhs) == act(x, act(y, u)).terms, (x, y, mono)
                assert on_monomials(rhs) == (act(y, act(x, u)) + act(xy, u)).terms, (x, y, mono)


@pytest.fixture
def composed_pairs(monkeypatch):
    """The pairs (a, b) check 3 composes at SMALL scale, one list per state in its order."""
    seen = []
    original = suite._live_pairs
    count = len(canonical_generators(suite.REP_INDEX_BOUND, 2))

    def spy(*args):
        keys = original(*args)
        seen.append([divmod(key, count) for key in keys])
        return keys

    monkeypatch.setattr(suite, "_live_pairs", spy)
    res = suite.check_representation_property(SMALL)
    assert res.passed
    return res, seen


def _pairs_with_a_nonzero_piece(gens, mono, brackets):
    """Brute force through act and bracket_r: the pairs a <= b where y is nonzero on a
    monomial of x u, or x on one of y u, or [x, y] has an r-constant or a term nonzero on u."""
    u = State.from_monomial(mono)
    images = [act(g, u) for g in gens]
    live = {g for g, image in zip(gens, images) if not image.is_zero()}
    reach = [
        {h for m2 in image.terms for h in gens if not act(h, State.from_monomial(m2)).is_zero()}
        for image in images
    ]
    return [
        (a, b)
        for a, x in enumerate(gens)
        for b in range(a, len(gens))
        if gens[b] in reach[a] or x in reach[b]
        or brackets[a, b].coefficient(()) or any(g in live for g in brackets[a, b].terms if g != ())
    ]


def test_check_3_composes_every_pair_with_a_nonzero_piece(composed_pairs):
    """Check 3 composes, in (x, y) order, exactly the pairs where a side can be nonzero."""
    res, seen = composed_pairs
    gens = canonical_generators(suite.REP_INDEX_BOUND, 2)
    count = len(gens)
    brackets = {(a, b): bracket_r(gens[a], gens[b]) for a in range(count) for b in range(a, count)}
    monos = fock.basis_monomials(SMALL.max_degree, 2)
    assert seen == [_pairs_with_a_nonzero_piece(gens, mono, brackets) for mono in monos]
    assert sum(map(len, seen)) < res.checked == len(monos) * math.comb(count + 1, 2)


def test_every_pair_check_3_skips_has_both_sides_zero_through_act(composed_pairs):
    _, seen = composed_pairs
    gens = canonical_generators(suite.REP_INDEX_BOUND, 2)
    count = len(gens)
    skipped = 0
    for mono, kept in zip(fock.basis_monomials(SMALL.max_degree, 2), seen):
        u = State.from_monomial(mono)
        images = [act(g, u) for g in gens]
        kept = set(kept)
        for a, x in enumerate(gens):
            for b in range(a, count):
                if (a, b) in kept:
                    continue
                y = gens[b]
                skipped += 1
                assert images[b].is_zero() or act(x, images[b]).is_zero(), (x, y, mono)
                rhs = act(bracket_r(x, y), u)
                if not images[a].is_zero():
                    rhs = rhs + act(y, images[a])
                assert rhs.is_zero(), (x, y, mono)
    assert skipped > len(seen) * math.comb(count + 1, 2) // 2


def test_check_3_fails_when_one_bracket_constant_is_wrong(monkeypatch):
    def pick(table, count):
        x, y = next(
            (x, y) for x in range(count) for y in range(x + 1, count) if table[x * count + y][1]
        )
        terms, const = table[x * count + y]
        return x, y, terms, const + 1

    _corrupt_bracket_table(monkeypatch, pick)
    _assert_only_action_fails_as_the_reference_does(SMALL, aborted=False)


@pytest.mark.parametrize("entry", [(((0, 1),), 0), ((), 1)], ids=["a-term", "a-constant"])
def test_check_3_fails_as_the_reference_when_an_empty_bracket_entry_is_made_nonempty(
    monkeypatch, entry
):
    """x and y commute and kill every state at SMALL scale, so only the wrong entry gets
    the pair composed: a term at position 0, a lowering generator, acts on every state, and
    so does an r-constant.  The pair fails on each state."""
    x, y = Generator(1, 1, 4, 4), Generator(2, 2, 4, 4)
    monos = fock.basis_monomials(SMALL.max_degree, 2)
    assert bracket_r(x, y).is_zero()
    assert all(act(g, State.from_monomial(m)).is_zero() for g in (x, y) for m in monos)
    gens = canonical_generators(suite.REP_INDEX_BOUND, 2)
    assert gens[0].is_lowering()
    _corrupt_bracket_table(monkeypatch, lambda table, count: (gens.index(x), gens.index(y), *entry))
    res = _assert_only_action_fails_as_the_reference_does(SMALL, aborted=False)
    assert res.failures == [f"action disagrees with bracket for {x}, {y} on {State.from_monomial(m)}"
                            for m in monos]


def test_check_3_builds_each_row_once_and_releases_it_after_its_last_state(monkeypatch):
    """At the default scale: 1184 rows, each built once; at most 9495 cached images alive
    when a state's pairs are chosen (38442 if nothing were released); 18440 monomial ids."""
    built, alive = [], []
    rows, pairs = suite._action_rows, suite._live_pairs

    def counted_rows(gens):
        row_of = rows(gens)

        def counted(mid):
            built.append(mid)
            return row_of(mid)

        return counted

    def counted_pairs(*args):
        alive.append(sum(map(len, fock._IMAGES)))
        return pairs(*args)

    monkeypatch.setattr(suite, "_action_rows", counted_rows)
    monkeypatch.setattr(suite, "_live_pairs", counted_pairs)
    assert suite.check_representation_property(SuiteConfig()).passed
    assert len(built) == len(set(built)) == 1184
    assert len(alive) == 41 and max(alive) <= 9495
    assert len(fock._HEADS) == 18440


def test_check_3_takes_its_brackets_from_the_table(monkeypatch):
    def no_bracket(x, y):
        raise AssertionError("check 3 called bracket_r")

    monkeypatch.setattr(suite, "bracket_r", no_bracket)
    assert suite.check_representation_property(SMALL).passed


def _act_on_ids(gen, mono):
    return fock._act_id(fock._gen_id(gen), fock._mono_id(mono))


def test_the_shared_empty_image_stays_empty_through_the_suite():
    killed = _act_on_ids(Generator(1, 1, 1, 1), ())
    assert killed is fock._EMPTY and killed == ()
    assert fock._act_gen(Generator(1, 1, 1, 1), ()) == {}
    assert all(res.passed for res in suite.run_paper_suite(SMALL))
    assert fock._EMPTY == ()
    assert _act_on_ids(Generator(1, 2, 0, -1), (Generator(1, 2, -1, -1),)) is fock._EMPTY


def _run_check_3_seeing_its_images(monkeypatch):
    """Run check 3 at SMALL scale; return it with {(gid, mid): image} for every image it caches.

    Check 3 caches images only while it builds rows, before a state's pairs are chosen, and
    releases them only after the pairs: so the images cached at each choice are all it caches."""
    cached = {}
    original = suite._live_pairs

    def spy(*args):
        cached.update(((gid, mid), image) for gid, table in enumerate(fock._IMAGES)
                      for mid, image in table.items())
        return original(*args)

    monkeypatch.setattr(suite, "_live_pairs", spy)
    res = suite.check_representation_property(SMALL)
    monkeypatch.setattr(suite, "_live_pairs", original)
    return res, cached


def test_check_3_leaves_every_cached_image_unchanged(monkeypatch):
    _, cached = _run_check_3_seeing_its_images(monkeypatch)
    snapshot = cached_images()
    assert snapshot and not fock._ACT_CACHE
    res = suite.check_representation_property(SMALL)
    assert res.passed
    assert cached_images() == snapshot
    # and every image it cached, released or left, is what a cold cache computes
    named = {(fock._GENS[gid], fock._monomial(mid)): on_monomials(image)
             for (gid, mid), image in cached.items()}
    assert len(named) > len(snapshot) and named.items() >= snapshot.items()
    clear_action_cache()
    for (gen, mono), image in named.items():
        assert fock._act_gen(gen, mono) == image, (gen, mono)


def test_every_image_check_3_caches_is_a_tuple_sorted_by_monomial_id(monkeypatch):
    """Equal images are equal tuples: what check 3 needs to compare two images as they stand."""
    res, cached = _run_check_3_seeing_its_images(monkeypatch)
    assert res.passed
    images = list(cached.values())
    assert fock._EMPTY == () and any(len(image) > 1 for image in images)
    for image in images:
        assert type(image) is tuple and all(c for _, c in image), image
        assert all(m1 < m2 for (m1, _), (m2, _) in zip(image, image[1:])), image
    as_tuples: dict = {}
    for image in images:
        as_tuples.setdefault(frozenset(image), set()).add(image)
    assert all(len(tuples) == 1 for tuples in as_tuples.values())


@pytest.mark.parametrize(
    "wrong",
    [lambda image: tuple((m, c * 2) for m, c in image), lambda image: ()],
    ids=["doubled", "emptied"],
)
def test_check_3_fails_when_one_cached_image_is_wrong(wrong):
    gen = Generator(1, 1, 1, 1)
    mono = (Generator(1, 1, -1, -1),)
    assert fock._act_gen(gen, mono)
    gid, mid = cached_actions()[(gen, mono)]
    fock._IMAGES[gid][mid] = wrong(fock._IMAGES[gid][mid])
    _assert_only_action_fails_as_the_reference_does(SMALL, aborted=True)


# -- run_check pauses the cyclic garbage collector ------------------------


def test_run_check_runs_the_check_with_the_collector_paused():
    seen = []

    def probe(config):
        seen.append(gc.isenabled())
        return suite.CheckResult("probe", 1)

    assert gc.isenabled()
    assert suite.run_check(probe, SMALL).passed
    assert seen == [False]
    assert gc.isenabled()


def test_each_check_starts_with_empty_id_tables():
    seen = []

    def probe(config):
        seen.append([len(table) for table in fock._ID_TABLES])
        act(Generator(1, 1, 1, 1), State.from_monomial((Generator(1, 1, -1, -1),)))
        return suite.CheckResult("probe", 1)

    act(Generator(1, 2, -1, -1), State.vacuum())
    assert all(res.passed for res in (suite.run_check(probe, SMALL), suite.run_check(probe, SMALL)))
    assert seen == [[0] * len(fock._ID_TABLES)] * 2
    assert all(fock._ID_TABLES[:3])  # the probe took ids, so the zeros come from clearing them


def test_each_check_starts_with_an_empty_pair_bracket_cache():
    config = SuiteConfig()
    suite.check_diagonal_pair_bracket(config)
    own = _pair_bracket.cache_info().currsize
    suite.run_check(suite.check_lie_axioms, config)
    assert _pair_bracket.cache_info().currsize > own
    suite.run_check(suite.check_diagonal_pair_bracket, config)
    assert _pair_bracket.cache_info().currsize == own


def test_run_check_restores_the_collector_when_the_check_raises():
    def broken(config):
        assert not gc.isenabled()
        raise RuntimeError("broken check")

    res = suite.run_check(broken, SMALL)
    assert not res.passed and "broken check" in res.details
    assert gc.isenabled()


def test_each_check_is_marked_with_the_name_it_reports():
    results = suite.run_paper_suite(SMALL)
    assert [res.name for res in results] == [check.report_name for _, check in suite.ALL_CHECKS]


def test_the_pool_feeds_the_longest_checks_first():
    ids = [check_id for check_id, _ in suite.ALL_CHECKS]
    longest = suite.LONGEST_CHECKS
    assert len(set(longest)) == len(longest) and set(longest) <= set(ids)
    rest = [check_id for check_id in ids if check_id not in longest]
    assert [ids[i] for i in suite._feed_order()] == [*longest, *rest]


def test_checks_outside_the_longest_are_fed_and_returned_in_criterion_order(monkeypatch):
    """Each probe reports the ids its own process ran, up to itself: a worker pulls in feed order.

    Run on pools of one and two workers."""
    ran = []

    def probe(check_id):
        def check(config):
            ran.append(check_id)
            return suite.CheckResult(f"probe-{check_id}", 1, " ".join(ran))
        return check

    ids = [f"x{k}" for k in range(6)]
    monkeypatch.setattr(suite, "ALL_CHECKS", [(check_id, probe(check_id)) for check_id in ids])
    assert suite._feed_order() == list(range(len(ids)))
    for cpus in (1, 2):
        monkeypatch.setattr(suite, "_usable_cpus", lambda: cpus)
        ran.clear()
        results = suite.run_paper_suite(SMALL)
        assert [res.name for res in results] == [f"probe-{check_id}" for check_id in ids]
        for check_id, res in zip(ids, results):
            seen = res.details.split()
            assert seen[-1] == check_id and seen == sorted(seen)


def _open_fds():
    """How many file descriptors this process holds, or None without /proc."""
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def test_the_pool_returns_results_larger_than_a_pipe_and_closes_its_pipes(monkeypatch):
    """A worker's results can fill its pipe while the parent still reads another worker's.

    Each result pipe is made just before its worker starts, so the slow
    check's worker, read first, is the only holder of its write end.  A
    signal turns a hang into a failure."""
    failures = [f"{k:05d}".ljust(100, "-") for k in range(20000)]  # over 64 KiB pickled

    def slow(config):
        time.sleep(0.2)
        return suite.CheckResult("slow", 1)

    def large(config):
        return suite.CheckResult("large", 1, failures=list(failures))

    def hang(signum, frame):
        raise TimeoutError("the pool did not return")

    monkeypatch.setattr(suite, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(suite, "ALL_CHECKS", (("slow", slow), ("large", large)))
    fds = _open_fds()
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(30)
    try:
        results = suite.run_paper_suite(SMALL)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert [(res.name, res.failures) for res in results] == [("slow", []), ("large", failures)]
    assert not results[1].passed and len(pickle.dumps(results[1])) > 65536
    assert _open_fds() == fds
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("platform, maxrss", [("linux", 5 * 1024), ("darwin", 5 * 2**20)])
def test_peak_mb_reads_ru_maxrss_in_the_platforms_unit(platform, maxrss, monkeypatch):
    """ru_maxrss is in KiB on Linux and in bytes on macOS: either way 5 MB reads 5.0."""
    usage = types.SimpleNamespace(ru_maxrss=maxrss)
    monkeypatch.setattr(sys, "platform", platform)
    monkeypatch.setattr(suite.resource, "getrusage", lambda who: usage)
    assert suite.run_check(lambda config: suite.CheckResult("probe", 1), SMALL).peak_mb == 5.0


def test_a_raising_check_keeps_its_report_name_through_a_wrapper(plant):
    @functools.wraps(suite.check_lie_axioms)
    def traced(config):
        return suite.check_lie_axioms(config)

    plant("bracket-table-raises")
    res = suite.run_check(traced, SMALL)
    assert res.summary_line() == (
        "FAIL  bracket-antisymmetry-jacobi: raised RuntimeError('broken table')")


def test_a_kernel_vector_that_fails_its_certification_fails_check_9_by_name(plant):
    plant("singularity-is-never-certified")
    res = suite.run_check(suite.check_singular_kernel_sweep, SMALL)
    assert res.name == "singular-kernel-sweep" and not res.passed
    assert res.details.startswith("raised SingularVerificationError('search produced a non-singular")


def test_check_9_builds_one_expected_map_per_parameter(monkeypatch):
    """Ten parameters, ten maps, where each report used to build its own."""
    seen = []
    real = suite.expected_singular_pairs

    def spy(r0, max_degree):
        seen.append(r0)
        return real(r0, max_degree)

    monkeypatch.setattr(suite, "expected_singular_pairs", spy)
    res = suite.run_check(suite.check_singular_kernel_sweep, SuiteConfig(max_degree=6))
    assert res.passed
    assert seen == [*suite.NON_INTEGER_SWEEP, *suite.INTEGER_SWEEP]


def test_paper_suite_empties_each_checks_cache_with_the_collector_paused(monkeypatch):
    """Each probe reports the clears it saw in its own process: a forked worker's list stays there.

    Run on pools of one and two workers."""
    seen = []

    def clear():
        seen.append(gc.isenabled())

    def probe(config):
        cleared = list(seen)
        seen.clear()
        return suite.CheckResult("probe", 1, repr(cleared))

    monkeypatch.setattr(suite, "clear_action_cache", clear)
    monkeypatch.setattr(suite, "ALL_CHECKS", [(n, probe) for n in range(3)])
    for cpus in (1, 2):
        monkeypatch.setattr(suite, "_usable_cpus", lambda: cpus)
        results = suite.run_paper_suite(SMALL)
        assert all(res.passed for res in results)
        # one clear before each check, with the collector off
        assert [res.details for res in results] == [repr([False])] * 3
        assert gc.isenabled()
