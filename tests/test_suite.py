"""The suite's fast paths for checks 1 and 3: oracles and planted faults.

Check 1 sums the Jacobi identity only over triples with a nonempty inner
bracket, and check 3 composes cached single-generator images as dicts.
These tests compare each fast path with the plain computation it replaces
and show that each check still fails when one of its inputs is wrong.
"""

import math
import random
from itertools import combinations

import pytest

from jordan_voa import fock, suite
from jordan_voa.fock import State, act, clear_action_cache
from jordan_voa.liealg import Generator, bracket_r, canonical_generators
from jordan_voa.suite import SuiteConfig

SMALL = SuiteConfig(d=2, max_degree=2, samples=0)


@pytest.fixture(autouse=True)
def empty_action_cache():
    clear_action_cache()
    yield
    clear_action_cache()


# -- check 1 ---------------------------------------------------------------


def test_nontrivial_triples_are_the_combinations_with_a_nonempty_inner_bracket():
    gens = canonical_generators(2, 2)
    count = len(gens)
    table = suite._int_bracket_table(gens)

    def live(x, y):
        return bool(table[x * count + y][0])

    expected = [
        (a, b, c)
        for a, b, c in combinations(range(count), 3)
        if live(b, c) or live(c, a) or live(a, b)
    ]
    assert list(suite._nontrivial_triples(table, count)) == expected
    assert 0 < len(expected) < math.comb(count, 3)

    # the skipped triples satisfy Jacobi through the public bracket too
    skipped = sorted(set(combinations(range(count), 3)) - set(expected))
    for a, b, c in random.Random(7).sample(skipped, 200):
        x, y, z = gens[a], gens[b], gens[c]
        total = (
            bracket_r(x, bracket_r(y, z))
            + bracket_r(y, bracket_r(z, x))
            + bracket_r(z, bracket_r(x, y))
        )
        assert total.is_zero(), (x, y, z)


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
    gens = canonical_generators(3, 2)
    for mono in fock.basis_monomials(3, 2):
        u = State.from_monomial(mono)
        images = [fock._act_gen(g, mono) for g in gens]
        for a, x in enumerate(gens):
            for b in range(a, len(gens)):
                y = gens[b]
                xy = bracket_r(x, y)
                lhs, rhs = suite._representation_sides(
                    x, y, suite._operator_or_none(xy), mono, images[a], images[b]
                )
                assert lhs == act(x, act(y, u)).terms, (x, y, mono)
                assert rhs == (act(y, act(x, u)) + act(xy, u)).terms, (x, y, mono)


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
    res = suite.check_representation_property(SMALL)
    assert not res.passed
    assert res.failures and all(f.startswith("action disagrees") for f in res.failures)
