"""The suite's fast paths for checks 1 and 3: oracles and planted faults.

Checks 1 and 3 read one integer bracket table, built only for pairs that
share a contractible mode.  Check 1 sums Jacobi only over the triples where
some outer bracket of an inner generator is nonzero, and compares
antisymmetry only for pairs with a nonzero entry.  Check 3 composes through
per-monomial rows of single-generator images and counts, without composing,
each pair and state where both images and the bracket are zero.  These
tests compare each fast path with the plain computation it replaces and
show that each check still fails when one of its inputs is wrong.
"""

import math
import random
from itertools import combinations

import pytest

from jordan_voa import fock, suite
from jordan_voa.fock import State, act, clear_action_cache
from jordan_voa.liealg import UNIT, Generator, _pair_bracket, bracket_r, canonical_generators
from jordan_voa.scalar import ZERO
from jordan_voa.suite import SuiteConfig

SMALL = SuiteConfig(d=2, max_degree=2, samples=0)


@pytest.fixture(autouse=True)
def empty_action_cache():
    clear_action_cache()
    yield
    clear_action_cache()


# -- check 1 ---------------------------------------------------------------


def _jacobi_is_zero(x, y, z):
    total = (
        bracket_r(x, bracket_r(y, z))
        + bracket_r(y, bracket_r(z, x))
        + bracket_r(z, bracket_r(x, y))
    )
    return total.is_zero()


def _skipped_triples(bound, d):
    gens = canonical_generators(bound, d)
    count = len(gens)
    kept = set(suite._nontrivial_triples(suite._int_bracket_table(gens), count))
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


def test_nontrivial_triples_are_those_whose_jacobi_sum_has_a_term():
    gens = canonical_generators(2, 2)
    count = len(gens)
    table = suite._int_bracket_table(gens)
    expected = _triples_with_a_term(table, count)
    assert suite._nontrivial_triples(table, count) == expected
    assert 0 < len(expected) < math.comb(count, 3)


def test_nontrivial_triples_need_no_lie_structure_in_the_table():
    """On random tables, with no antisymmetry or Jacobi, the same scan holds."""
    rng = random.Random(11)
    count = 10
    for _ in range(20):
        table = [
            (tuple((rng.randrange(count), 1) for _ in range(rng.randrange(1, 3))), 0)
            if rng.random() < 0.1
            else ((), rng.choice((0, 0, 0, 1)))
            for _ in range(count * count)
        ]
        assert suite._nontrivial_triples(table, count) == _triples_with_a_term(table, count)


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
            bracket = dict(_pair_bracket(g, h))
            const = bracket.pop(UNIT, ZERO).coeffs.get(1, 0)
            table.append((tuple((index[t], c) for t, c in bracket.items()), const))
    return gens, table


def test_sparse_bracket_table_equals_the_dense_build(dense_table):
    gens, table = dense_table
    assert suite._int_bracket_table(gens) == table


def _assert_only_action_fails(res):
    assert not res.passed
    assert res.failures and all(f.startswith("action disagrees") for f in res.failures)


def _first_mode_partners_only(monkeypatch):
    """Make the table look for partners of each generator's first mode only."""
    monkeypatch.setattr(suite, "_partner_modes", lambda g: [(g.i, -g.m)] if g.m else [])


def test_a_partner_filter_on_first_modes_misses_brackets(monkeypatch, dense_table):
    _first_mode_partners_only(monkeypatch)
    gens, table = dense_table
    assert suite._int_bracket_table(gens) != table


def test_a_partner_filter_on_first_modes_fails_check_3(monkeypatch):
    _first_mode_partners_only(monkeypatch)
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


# -- check 3 ---------------------------------------------------------------


def test_representation_sides_match_the_state_action():
    gens = canonical_generators(2, 2)
    count = len(gens)
    table = suite._int_bracket_table(gens)
    row_of = suite._action_rows(gens)
    for mono in fock.basis_monomials(4, 2):  # degree 4 has two-factor monomials
        u = State.from_monomial(mono)
        u_row = row_of(mono)
        terms = [[(row_of(m2), c) for m2, c in image.items()] for image in u_row]
        for a, x in enumerate(gens):
            for b in range(a, count):
                y = gens[b]
                xy = bracket_r(x, y)
                lhs, rhs = suite._representation_sides(
                    a, b, table[a * count + b], mono, u_row, terms[a], terms[b]
                )
                assert lhs == act(x, act(y, u)).terms, (x, y, mono)
                assert rhs == (act(y, act(x, u)) + act(xy, u)).terms, (x, y, mono)


def test_check_3_composes_every_pair_with_a_nonzero_piece(monkeypatch):
    """Only pairs with [x,y] = 0 and both images x u, y u empty go uncomposed."""
    composed = []
    original = suite._representation_sides
    gens = canonical_generators(suite.REP_INDEX_BOUND, 2)

    def spy(a, b, xy, mono, u_row, x_terms, y_terms):
        composed.append((mono, gens[a], gens[b]))
        return original(a, b, xy, mono, u_row, x_terms, y_terms)

    monkeypatch.setattr(suite, "_representation_sides", spy)
    res = suite.check_representation_property(SMALL)
    monos = fock.basis_monomials(SMALL.max_degree, 2)
    zero_bracket = {(x, y) for a, x in enumerate(gens) for y in gens[a:] if bracket_r(x, y).is_zero()}
    expected = []
    for mono in monos:
        u = State.from_monomial(mono)
        empty = {g for g in gens if act(g, u).is_zero()}
        expected += [
            (mono, x, y)
            for a, x in enumerate(gens)
            for y in gens[a:]
            if (x, y) not in zero_bracket or x not in empty or y not in empty
        ]
    assert composed == expected
    assert len(expected) < res.checked == len(monos) * math.comb(len(gens) + 1, 2)


def test_check_3_fails_when_one_bracket_constant_is_wrong(monkeypatch):
    def pick(table, count):
        x, y = next(
            (x, y) for x in range(count) for y in range(x + 1, count) if table[x * count + y][1]
        )
        terms, const = table[x * count + y]
        return x, y, terms, const + 1

    _corrupt_bracket_table(monkeypatch, pick)
    _assert_only_action_fails(suite.check_representation_property(SMALL))


def test_check_3_takes_its_brackets_from_the_table(monkeypatch):
    def no_bracket(x, y):
        raise AssertionError("check 3 called bracket_r")

    monkeypatch.setattr(suite, "bracket_r", no_bracket)
    assert suite.check_representation_property(SMALL).passed


def test_the_shared_empty_image_stays_empty_through_the_suite():
    killed = fock._act_gen(Generator(1, 1, 1, 1), ())
    assert killed is fock._EMPTY and killed == {}
    assert all(res.passed for res in suite.run_paper_suite(SMALL))
    assert fock._EMPTY == {}
    assert fock._act_gen(Generator(1, 2, 0, -1), (Generator(1, 2, -1, -1),)) is fock._EMPTY


def test_check_3_leaves_every_cached_image_unchanged():
    suite.check_representation_property(SMALL)
    snapshot = {key: dict(image) for key, image in fock._ACT_CACHE.items()}
    assert snapshot
    res = suite.check_representation_property(SMALL)
    assert res.passed
    assert {key: dict(image) for key, image in fock._ACT_CACHE.items()} == snapshot
    # and every image is what a cold cache computes
    clear_action_cache()
    for (gen, mono), image in snapshot.items():
        assert fock._act_gen(gen, mono) == image, (gen, mono)


@pytest.mark.parametrize(
    "wrong",
    [lambda image: {m: c * 2 for m, c in image.items()}, lambda image: {}],
    ids=["doubled", "emptied"],
)
def test_check_3_fails_when_one_cached_image_is_wrong(wrong):
    gen = Generator(1, 1, 1, 1)
    mono = (Generator(1, 1, -1, -1),)
    image = fock._act_gen(gen, mono)
    assert image
    fock._ACT_CACHE[(gen, mono)] = wrong(image)
    _assert_only_action_fails(suite.check_representation_property(SMALL))
