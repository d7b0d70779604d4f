"""Module action, gradings, and weight-space enumeration."""

import gc
import itertools
import json
import random
import sys
import threading
from bisect import bisect_left
from fractions import Fraction

import pytest

from jordan_voa import fock, singular, suite, virops
from jordan_voa.fock import (
    MIXED,
    State,
    Weight,
    act,
    act_word,
    degree_of,
    monomial,
    monomial_degree,
    basis_monomials,
    clear_action_cache,
    weight_space_basis,
    weights,
)
from jordan_voa.liealg import (UNIT, Generator, LieElement, _pair_bracket, bracket_r,
                               canonical_generators, canonicalize)
from jordan_voa.scalar import ONE, R, Scalar, add_into
from jordan_voa.singular import singular_search

VAC = State.vacuum()


def gen_elem(i, j, m, n):
    return canonicalize(i, j, m, n)


def lowering_state(*quads):
    return State.from_monomial(monomial([Generator(*q) for q in quads]))


def test_act_diagonal_annihilator_small():
    # v(1,1) on v(-1,-1)|0> gives 2r |0>
    u = lowering_state((1, 1, -1, -1))
    assert act(gen_elem(1, 1, 1, 1), u) == VAC.scale(2 * R)


def test_act_raising_kills_vacuum():
    assert act(gen_elem(1, 2, 0, 5), VAC).is_zero()


def test_act_diagonal_annihilator_power():
    # v(2,2) on v(-2,-2)^2 |0>: coefficient 2 m^2 nu (r + 2 nu - 2) with m=nu=2
    u = lowering_state((1, 1, -2, -2), (1, 1, -2, -2))
    expected = lowering_state((1, 1, -2, -2)).scale(Scalar.of(16) * (R + 2))
    assert act(gen_elem(1, 1, 2, 2), u) == expected


def test_act_word_order_and_identity():
    assert act_word([], lowering_state((1, 1, -1, -1))) == lowering_state((1, 1, -1, -1))
    assert act_word([gen_elem(1, 1, 1, 1)], lowering_state((1, 1, -1, -1))) == VAC.scale(2 * R)
    # word composition is consistent with the bracket
    a = gen_elem(1, 1, 1, 2)
    b = gen_elem(1, 1, -2, -1)
    lhs = act_word([a, b], VAC) - act_word([b, a], VAC)
    assert lhs == act(bracket_r(a, b), VAC)


def test_constants_act_as_scalars():
    from jordan_voa.liealg import LieElement

    u = lowering_state((1, 1, -1, -1))
    assert act(LieElement.constant(R + 2), u) == u.scale(R + 2)
    # v[1,1](3,-3) = v[1,1](-3,3) + 3; the generator term maps first to 6*first and kills second
    first = lowering_state((1, 1, -3, -3))
    second = lowering_state((1, 1, -2, -2), (1, 1, -1, -1))
    assert act(canonicalize(1, 1, 3, -3), first + second) == first.scale(9) + second.scale(3)


def test_state_formatting():
    u = VAC.scale(-2) - lowering_state((1, 1, -2, -1)) + lowering_state((1, 1, -1, -1)).scale(R + 1)
    assert str(u) == "-2*1 - 1*v[1,1](-2,-1) + (r + 1)*v[1,1](-1,-1)"
    assert repr(State.zero()) == "State('0')"


def test_degree_examples():
    assert degree_of(VAC) == 0
    assert degree_of(lowering_state((1, 2, -2, -1))) == 3
    assert degree_of(lowering_state((1, 1, -1, -1)) + VAC) == MIXED
    with pytest.raises(ValueError):
        degree_of(State.zero())


def test_weight_space_basis_frozen_examples():
    basis = weight_space_basis(Weight({(1, -1): 2}), d=1)
    assert basis == [monomial([Generator(1, 1, -1, -1)])]
    basis = weight_space_basis(Weight({(1, -1): 2, (1, -2): 2}), d=1)
    assert sorted(basis) == sorted(
        [
            monomial([Generator(1, 1, -1, -1), Generator(1, 1, -2, -2)]),
            monomial([Generator(1, 1, -2, -1), Generator(1, 1, -2, -1)]),
        ]
    )
    assert weight_space_basis(Weight()) == [()]
    # k mixed factors v(-2,-1) leave (28 - k)/2 of each diagonal square: 15 monomials
    basis = weight_space_basis(Weight({(1, -1): 28, (1, -2): 28}), d=1)
    assert basis == sorted(
        monomial([Generator(1, 1, -2, -1)] * k
                 + [Generator(1, 1, -1, -1), Generator(1, 1, -2, -2)] * ((28 - k) // 2))
        for k in range(0, 29, 2)
    )


def test_each_pairing_is_yielded_once():
    """Every pairing _pairings yields is a distinct basis monomial, so none is deduplicated."""
    for lam in weights(18, 1):
        kinds, counts = sorted(lam.counts), [lam.counts[kl] for kl in sorted(lam.counts)]
        pairings = sum(1 for _ in fock._pairings(kinds, counts, [])) if sum(counts) % 2 == 0 else 0
        assert pairings == len(weight_space_basis(lam, d=1)), lam


def test_weight_space_basis_odd_multiplicity_is_empty():
    assert weight_space_basis(Weight({(1, -1): 1})) == []
    assert weight_space_basis(Weight({(1, -1): 3})) == []


def test_restricted_basis_rejects_other_oscillators():
    with pytest.raises(ValueError, match="oscillator index 2 beyond d=1"):
        weight_space_basis(Weight({(2, -1): 2}), d=1)


def _lowering_generators(max_degree, d):
    out = []
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            for m in range(-max_degree + 1, 0):
                for n in range(-max_degree + 1, 0):
                    if i == j and m > n:
                        continue
                    g = Generator(i, j, m, n)
                    if -(g.m + g.n) <= max_degree:
                        out.append(g)
    return out


def _all_monomials(max_degree, d):
    gens = sorted(_lowering_generators(max_degree, d))
    out = []

    def grow(start, current, budget):
        out.append(tuple(current))
        for pos in range(start, len(gens)):
            g = gens[pos]
            if -(g.m + g.n) <= budget:
                current.append(g)
                grow(pos, current, budget + g.m + g.n)
                current.pop()

    grow(0, [], max_degree)
    return out


def test_weight_space_basis_against_enumeration_oracle():
    """Independent oracle: enumerate all monomials by degree, filter by weight."""
    d = 2
    max_degree = 4
    monomials = _all_monomials(max_degree, d)
    by_weight = {}
    for mono in monomials:
        by_weight.setdefault(monomial_weight(mono), set()).add(mono)
    for lam, expected in by_weight.items():
        assert set(weight_space_basis(lam, d=d)) == expected
    # the first-oscillator module (d = 1) against the same oracle
    for lam, expected in by_weight.items():
        restricted = {
            m for m in expected if all(g.i == 1 and g.j == 1 for g in m)
        }
        if all(k == 1 for (k, _) in lam.support()):
            assert set(weight_space_basis(lam, d=1)) == restricted
        else:
            with pytest.raises(ValueError):
                weight_space_basis(lam, d=1)


def test_diagonal_operators_act_with_weight_eigenvalues():
    """h[k,l] = -(1/l) v[k,k](l,-l) acts diagonally with the weight counts."""
    d = 2
    for mono in _all_monomials(6, d):
        u = State.from_monomial(mono)
        lam = monomial_weight(mono)
        for k in range(1, d + 1):
            for l in range(-6, 0):
                h_action = act(gen_elem(k, k, l, -l), u).scale(Fraction(-1, l))
                assert h_action == u.scale(lam.counts.get((k, l), 0)), (mono, k, l)


def monomial_weight(mono):
    """The reference weight of a basis monomial: each factor counts its two slots' modes."""
    counts: dict = {}
    for g in mono:
        counts[(g.i, g.m)] = counts.get((g.i, g.m), 0) + 1
        counts[(g.j, g.n)] = counts.get((g.j, g.n), 0) + 1
    return Weight(counts)


def _shifted(lam, deltas):
    """lam plus signed multiplicities; None if any count would go negative."""
    counts = lam.counts
    for key, delta in deltas.items():
        counts[key] = counts.get(key, 0) + delta
    return None if min(counts.values(), default=0) < 0 else Weight(counts)


def _operator_weight_shift(g):
    shift = {}
    for idx, mode in ((g.i, g.m), (g.j, g.n)):
        if mode < 0:
            shift[(idx, mode)] = shift.get((idx, mode), 0) + 1
        elif mode > 0:
            shift[(idx, -mode)] = shift.get((idx, -mode), 0) - 1
    return shift


def test_action_is_graded_by_degree_and_weight():
    rng = random.Random(11)
    monomials = _all_monomials(4, 2)
    gens = [
        Generator(i, j, m, n)
        for i in range(1, 3)
        for j in range(i, 3)
        for m in range(-3, 4)
        for n in range(-3, 4)
        if i < j or m <= n
    ]
    for _ in range(300):
        mono = rng.choice(monomials)
        g = rng.choice(gens)
        u = State.from_monomial(mono)
        image = act(g, u)
        if image.is_zero():
            continue
        assert degree_of(image) == monomial_degree(mono) - (g.m + g.n)
        expected = _shifted(monomial_weight(mono), _operator_weight_shift(g))
        assert expected is not None and {monomial_weight(m) for m in image.terms} == {expected}


def test_representation_property_small_exhaustive():
    gens = [
        Generator(i, j, m, n)
        for i in range(1, 3)
        for j in range(i, 3)
        for m in range(-2, 3)
        for n in range(-2, 3)
        if i < j or m <= n
    ]
    states = [State.from_monomial(m) for m in _all_monomials(3, 2)]
    for x, y in itertools.combinations(gens, 2):
        direct = bracket_r(x, y)
        for u in states:
            assert act(direct, u) == act(x, act(y, u)) - act(y, act(x, u))


@pytest.fixture
def cold_cache():
    """An empty action cache before and after the test, so no image leaks either way."""
    clear_action_cache()
    yield
    clear_action_cache()


def cached_actions() -> dict:
    """{(gen, mono): (gid, mid)} for every single-generator image in fock._IMAGES.

    The one place the tests read the layout of the per-generator image
    tables: _IMAGES[gid] maps a monomial id to the generator's frozen image
    on it.  memo's entries live apart, in fock._ACT_CACHE, under tuple keys:
    (operator key, monomial id) for virops' per-monomial id images, and
    tagged tuples such as ("Lop", ...) and ("search", lam) for operator id
    forms and singular's search systems.
    """
    return {
        (fock._GENS[gid], fock._monomial(mid)): (gid, mid)
        for gid, images in enumerate(fock._IMAGES)
        for mid in images
    }


def on_monomials(image) -> dict:
    """An id image, or an id sum, with its monomial ids translated back to monomials."""
    return {fock._monomial(m): c for m, c in dict(image).items()}


def cached_images() -> dict:
    """{(gen, mono): image} for every cached single-generator image, images on monomials."""
    return {name: on_monomials(fock._IMAGES[gid][mid])
            for name, (gid, mid) in cached_actions().items()}


def test_check_3_caches_no_constant_action(cold_cache):
    """Constants act as scalars in act; _act_gen, and so its cache, sees generators only."""
    assert suite.check_representation_property(suite.SuiteConfig(max_degree=2)).passed
    names = cached_actions()
    assert names and not fock._ACT_CACHE
    assert all(isinstance(gen, Generator) and gen != UNIT for gen, _ in names)


def _assert_each_id_names_one_sorted_monomial():
    """Every id reads back a sorted monomial that no other id names, whose id it is, and
    whose degree _DEGREES holds; the reading takes no new id."""
    count = len(fock._HEADS)
    assert count and all(len(t) == count for t in (fock._TAILS, fock._CENSUS, fock._DEGREES))
    monos = [fock._monomial(mid) for mid in range(count)]
    assert all(list(mono) == sorted(mono) for mono in monos)
    assert len(set(monos)) == count
    assert all(fock._mono_id(mono) == mid for mid, mono in enumerate(monos))
    assert all(fock._DEGREES[mid] == monomial_degree(mono) for mid, mono in enumerate(monos))
    assert len(fock._HEADS) == count


def test_after_check_3_each_id_names_one_sorted_monomial(cold_cache):
    assert suite.check_representation_property(suite.SuiteConfig(d=2, max_degree=2,
                                                                  samples=0)).passed
    _assert_each_id_names_one_sorted_monomial()


def test_forgetting_images_evicts_every_image_on_the_ids_and_takes_no_id(cold_cache):
    """_forget_images(mids) drops every generator's image on the ids, keeps every other image,
    and adds to no id table."""
    fock._forget_images([0])  # on empty tables: not even the vacuum takes an id
    assert not any(fock._ID_TABLES)
    assert suite.check_representation_property(suite.SuiteConfig(d=2, max_degree=2,
                                                                  samples=0)).passed
    before = cached_images()
    mids = sorted({mid for _, mid in cached_actions().values()})[::2]
    assert len({gen for (gen, mono) in before if fock._mono_id(mono) in mids}) > 1
    sizes = [len(table) for table in fock._ID_TABLES], [len(table) for table in fock._INSERTS]
    fock._forget_images(mids)
    assert ([len(table) for table in fock._ID_TABLES],
            [len(table) for table in fock._INSERTS]) == sizes
    assert cached_images() == {(gen, mono): image for (gen, mono), image in before.items()
                               if fock._mono_id(mono) not in mids}


def _insert(mono, gen):
    pos = bisect_left(mono, gen)
    return mono[:pos] + (gen,) + mono[pos:]


def _reference_act(gen, mono, memo):
    """The plain head/rest recursion on tuples, with no grading test: the oracle of _act_gen."""
    key = (gen, mono)
    if key in memo:
        return memo[key]
    if gen.m < 0 and gen.n < 0:
        result = {_insert(mono, gen): ONE}
    elif not mono:
        result = {}
    else:
        head, rest = mono[0], mono[1:]
        result = {}
        terms, const = _pair_bracket(gen, head)
        for g2, c2 in terms:
            for m2, s2 in _reference_act(g2, rest, memo).items():
                add_into(result, m2, s2 * c2)
        if const:
            add_into(result, rest, R * const)
        for m2, s2 in _reference_act(gen, rest, memo).items():
            add_into(result, _insert(m2, head), s2)
    memo[key] = result
    return result


def _reference_kills(gen, mono):
    """The grading test by scanning mono's factor slots: a zero mode, or a positive mode
    v_k(x) with fewer copies of v_k(-x) than it needs (two for v[i,i](x,x))."""
    i, j, m, n = gen
    if not (m and n):
        return True
    copies = 2 if (i, m) == (j, n) else 1

    def holds(k, l):
        slots = sum((fm == l and fi == k) + (fn == l and fj == k) for fi, fj, fm, fn in mono)
        return slots >= copies

    return (m > 0 and not holds(i, -m)) or (n > 0 and not holds(j, -n))


def _images(gens, monos):
    """Every _act_gen image of the generators on the monomials, from a cold cache."""
    clear_action_cache()
    return {(g, m): fock._act_gen(g, m) for m in monos for g in gens}


def _reference_images(gens, monos):
    memo: dict = {}
    return {(g, m): _reference_act(g, m, memo) for m in monos for g in gens}


@pytest.mark.parametrize(
    "bound, max_degree, d, pairs, settled",
    [(4, 6, 2, 15903, 10736), (3, 4, 3, 12012, 8694)],
)
def test_grading_settles_images_the_recursion_computes_as_zero(
    cold_cache, bound, max_degree, d, pairs, settled
):
    gens = canonical_generators(bound, d)
    monos = basis_monomials(max_degree, d)
    fast = _images(gens, monos)
    assert len(fast) == pairs
    # grading returns _EMPTY before any lookup, so a killed image is the one not cached
    cached = cached_actions()
    killed = [key for key in fast if not key[0].is_lowering() and key not in cached]
    assert len(killed) == settled
    assert killed == [key for key in fast if _reference_kills(*key)]
    assert fast == _reference_images(gens, monos)


def test_the_mask_test_agrees_with_a_count_of_the_modes(cold_cache):
    """census & need != need kills exactly where _reference_kills, counting the monomial's mode
    slots, does: for every generator with modes in [-4, 4] on every basis monomial of degree
    <= 6 at d = 2."""
    gens = canonical_generators(4, 2)
    needs = [fock._NEEDS[fock._gen_id(g)] for g in gens]
    for mono in basis_monomials(6, 2):
        census = fock._CENSUS[fock._mono_id(mono)]
        got = [census & need != need for need in needs]
        assert got == [_reference_kills(g, mono) for g in gens], mono


def _assert_fails_the_oracle_and_check_3():
    res = suite.check_representation_property(suite.SuiteConfig(d=2, max_degree=2, samples=0))
    assert not res.passed
    assert res.failures and all(f.startswith("action disagrees") for f in res.failures)
    gens = canonical_generators(4, 2)
    monos = basis_monomials(6, 2)
    assert _images(gens, monos) != _reference_images(gens, monos)


def _census_counting(slots):
    """A census builder that counts the slots slots(head) of each head factor, in thermometer
    fields: 01 for one copy, 11 for two or more."""

    def census(tail, head):
        for offset in slots(head):
            bit = 1 << offset
            tail |= bit | (tail & bit) << 1
        return tail

    return census


def test_a_grading_test_on_first_slots_fails_the_oracle_and_check_3(monkeypatch, cold_cache):
    monkeypatch.setattr(fock, "_census", _census_counting(lambda g: [fock._slot(g.i, g.m)]))
    _assert_fails_the_oracle_and_check_3()


def test_a_census_with_one_copy_of_a_diagonal_factor_fails_the_oracle_and_check_3(
    monkeypatch, cold_cache
):
    """A census that counts a factor's slots as a set holds one copy of v_i(-x) for
    v[i,i](-x,-x), so it kills v[i,i](x,x), which needs two."""
    monkeypatch.setattr(
        fock, "_census", _census_counting(lambda g: {fock._slot(g.i, g.m), fock._slot(g.j, g.n)})
    )
    _assert_fails_the_oracle_and_check_3()


def test_a_state_built_before_a_clear_acts_alike_after_it(cold_cache):
    """Clearing empties the id tables; a State keeps monomials, so new ids serve it."""
    u = lowering_state((1, 1, -1, -1), (1, 2, -1, -2)) + lowering_state((2, 2, -3, -1)).scale(R)
    x = gen_elem(1, 1, 1, 1) + gen_elem(1, 2, 1, 2).scale(R) + gen_elem(2, 2, -1, -1)
    x = x + LieElement.constant(R)
    before = act(x, u), act_word([x, x], u)
    ids = {mono: fock._mono_id(mono) for mono in u.terms}
    clear_action_cache()
    assert not fock._ACT_CACHE and not any(fock._ID_TABLES)
    act(gen_elem(2, 2, -2, -2), lowering_state((1, 2, -3, -1)))  # other monomials take ids first
    assert (act(x, u), act_word([x, x], u)) == before
    assert {mono: fock._mono_id(mono) for mono in u.terms} != ids


def test_one_clear_empties_every_engine_cache(cold_cache):
    """After an action, a bracket and a search, one clear leaves no cache holding anything."""
    lam = Weight({(1, -1): 2})
    act(gen_elem(1, 1, 1, 1), lowering_state((1, 1, -1, -1)))
    bracket_r(gen_elem(1, 1, 1, 2), gen_elem(1, 1, -2, -1))
    assert singular_search(lam, 0).basis_dim == 1
    assert fock._ACT_CACHE and all(fock._ID_TABLES[:3]) and _pair_bracket.cache_info().currsize
    clear_action_cache()
    assert not fock._ACT_CACHE and not any(fock._ID_TABLES)
    assert _pair_bracket.cache_info().currsize == 0
    assert not singular._MATRIX_CACHE  # the search kept its matrix in fock's memo


def _in_six_threads(run) -> list:
    """run() in 6 threads at once, with the switch interval shortened: their results in order."""
    results = {}

    def work(k):
        results[k] = run()

    threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return [results[k] for k in range(6)]


def test_threads_acting_from_a_cold_cache_share_one_id_per_monomial(cold_cache):
    """Taking an id is check-then-act on the shared tables, so it runs under a lock."""
    gens = canonical_generators(2, 2)
    states = [State.from_monomial(m) for m in basis_monomials(5, 2)]
    expected = [[act(g, u) for g in gens] for u in states]
    clear_action_cache()
    assert _in_six_threads(lambda: [[act(g, u) for g in gens] for u in states]) == [expected] * 6
    assert len(fock._GEN_ID) == len(fock._GENS)
    _assert_each_id_names_one_sorted_monomial()


def test_threads_running_mode_sums_and_the_oracle_from_a_cold_cache_agree(cold_cache):
    """The per-monomial memo entries and the operators' id forms are filled concurrently."""
    states = [State.from_monomial(m) for m in basis_monomials(4, 2)]

    def run():
        out = []
        for u in states:
            out += [virops.act_L(1, 2, m, u) for m in (-2, -1, 0, 1)]
            out += [virops.act_L(1, 1, 0, u), virops.act_L(2, 2, -1, u)]
            out += [virops.vertex_mode_by_recursion(i, j, m, n, l, u)
                    for i, j in ((1, 2), (2, 1)) for m, n in ((-1, -1), (-2, -1), (-3, -2))
                    for l in (-1, 1)]
        return out

    expected = run()
    assert any(not v.is_zero() for v in expected)
    clear_action_cache()
    assert _in_six_threads(run) == [expected] * 6


# -- coefficients on ids and at the State boundary ----------------------


def _bad_id_coefficients() -> list:
    """Cached id image coefficients that are neither an int nor a degree-1 Scalar with int
    coefficients.  The id images are the frozen single-generator images of fock._IMAGES,
    and memo's dicts: virops' per-monomial mode-sum and recursion images under (key, mid)."""
    images = [value.values() for value in fock._ACT_CACHE.values() if isinstance(value, dict)]
    images += [[c for _, c in image] for table in fock._IMAGES for image in table.values()]
    assert images
    return [
        c for image in images for c in image
        if not (type(c) is int
                or (type(c) is Scalar and len(c) == 2 and all(type(x) is int for x in c)))
    ]


def _bad_returned_coefficients(states: list) -> list:
    """Coefficients of the states that are not a Scalar with its integral coefficients ints."""
    coeffs = [c for u in states for c in u.terms.values()]
    assert coeffs
    return [
        c for c in coeffs
        if type(c) is not Scalar or any(type(x) is not int and x.denominator == 1 for x in c)
    ]


def _boundary_values() -> list:
    """What act, act_L, vertex_mode and the recursion oracle return on
    small states, some with Fraction and r coefficients."""
    states = [State.from_monomial(m) for m in basis_monomials(3, 2)]
    states += [states[-1].scale(Fraction(1, 2)) + states[-2].scale(R + Fraction(3, 2))]
    x = gen_elem(1, 1, 1, 1).scale(Fraction(1, 2)) + gen_elem(1, 2, -1, -1)
    x = x + gen_elem(2, 2, 1, 2).scale(R) + LieElement.constant(2)
    out = []
    for u in states:
        out += [act(x, u), act(gen_elem(1, 2, 2, -1), u)]
        out += [virops.act_L(i, j, m, u) for i, j in ((1, 2), (1, 1)) for m in (-1, 0, 1)]
        out += [virops.act_L(1, 1, m, u) + virops.act_L(2, 2, m, u) for m in (-2, 0, 2)]
        out += [virops.vertex_mode(1, 2, -2, -1, l, u) for l in (-1, 1)]
        out += [virops.vertex_mode_by_recursion(2, 1, -1, -3, l, u) for l in (-1, 1)]
    return out


@pytest.mark.parametrize("check", [
    suite.check_representation_property,
    suite.check_vertex_mode_formula,
    suite.check_virasoro_central_charge,
])
def test_checks_cache_id_images_in_z_r(cold_cache, check):
    """Checks 3, 5 and 10 at max_degree 2 leave every cached coefficient an int or in Z*r + Z."""
    assert check(suite.SuiteConfig(max_degree=2)).passed
    assert _bad_id_coefficients() == []


def test_every_returned_coefficient_is_a_scalar_with_int_integral_coefficients(cold_cache):
    assert _bad_returned_coefficients(_boundary_values()) == []
    assert _bad_id_coefficients() == []


def test_a_translation_back_that_skips_the_wrap_is_seen(monkeypatch, cold_cache):
    """A _state_of that leaves each constant bare: the values are equal, the types are not."""
    wrapped = fock._state_of

    def unwrapped(vec, divisor=1):
        terms = wrapped(vec, divisor).terms
        return State._from_tidy({mono: c[0] if len(c) == 1 else c for mono, c in terms.items()})

    monkeypatch.setattr(fock, "_state_of", unwrapped)
    monkeypatch.setattr(virops, "_state_of", unwrapped)
    assert _bad_returned_coefficients(_boundary_values())


def test_cross_oscillator_generators_kill_restricted_module():
    """v[1,j](m,n) with n >= 0, and any raising v[i,j] with i,j >= 2, act as
    zero on states built from the first oscillator only."""
    restricted = [
        m for m in _all_monomials(6, 1) if all(g.i == 1 and g.j == 1 for g in m)
    ]
    for mono in restricted:
        u = State.from_monomial(mono)
        for m in range(-3, 4):
            for n in range(0, 4):
                assert act(gen_elem(1, 2, m, n), u).is_zero(), (mono, m, n)
        for m in range(-3, 4):
            for n in range(-3, 4):
                if m + n > 0 or m >= 0 or n >= 0:
                    assert act(gen_elem(2, 2, min(m, n), max(m, n)), u).is_zero()


def test_module_bottom_dimensions():
    # degree 0 is one-dimensional, degree 1 empty
    assert weight_space_basis(Weight()) == [()]
    for d in (2, 3):
        degree_one = [
            weight_space_basis(Weight({(k, -1): 1}), d=d) for k in range(1, d + 1)
        ]
        assert all(basis == [] for basis in degree_one)


def test_state_json_round_trip():
    u = lowering_state((1, 1, -2, -1), (1, 2, -1, -1)).scale(R + Fraction(1, 2))
    blob = json.dumps(u.to_json_obj())
    assert State.from_json_obj(json.loads(blob)) == u


def test_monomial_validation():
    with pytest.raises(ValueError):
        monomial([Generator(1, 1, -1, 1)])  # not lowering
    with pytest.raises(ValueError):
        monomial([Generator(2, 1, -1, -1)])  # not canonical
    with pytest.raises(ValueError):
        monomial([Generator(1, 3, -1, -1)], d=2)  # index beyond d


def test_weight_validation():
    with pytest.raises(ValueError):
        Weight({(1, 1): 1})  # mode must be negative
    with pytest.raises(ValueError):
        Weight({(0, -1): 1})  # oscillator index from 1
    with pytest.raises(ValueError):
        Weight({(1, -1): -2})


def _weights_by_adding_parts(max_degree, d):
    """weights(max_degree, d) built degree by degree: each weight of degree n is one of
    degree n - level with one more mode (k, -level)."""
    by_degree = [{()}]  # degree -> the sorted tuples of modes, one entry per copy
    for n in range(1, max_degree + 1):
        by_degree.append({tuple(sorted(parts + ((k, -level),)))
                          for level in range(1, n + 1) for k in range(1, d + 1)
                          for parts in by_degree[n - level]})
    found = [Weight({kl: parts.count(kl) for kl in parts})
             for layer in by_degree[1:] for parts in layer]
    return sorted(found, key=lambda w: (w.total_degree(), str(w)))


@pytest.mark.parametrize("max_degree, d", [(18, 1), (6, 3), (5, 2)])
def test_weights_match_the_degree_by_degree_reference(max_degree, d):
    got = weights(max_degree, d)
    assert got == _weights_by_adding_parts(max_degree, d)
    assert len(set(got)) == len(got)


# -- the cyclic garbage collector ----------------------------------------


def test_weights_leave_no_cyclic_garbage():
    """A weights call frees everything by reference counting; the collector finds nothing."""
    gc.collect()
    gc.disable()
    try:
        assert len(weights(10, 2)) > 1000
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_collector_paused_restores_the_callers_state():
    assert gc.isenabled()
    with fock.collector_paused():
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        with fock.collector_paused():
            raise RuntimeError("the block failed")
    assert gc.isenabled()


def test_collector_paused_keeps_a_disabled_collector_disabled():
    gc.disable()
    try:
        with fock.collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_collector_pauses_restore_the_outer_state():
    with fock.collector_paused():
        with fock.collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()
