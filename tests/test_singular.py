"""Determinant vectors, kernel search, and singularity certification."""

import gc
import itertools
import operator
import random
from fractions import Fraction

import pytest

from jordan_voa import fock, singular
from jordan_voa.fock import (State, Weight, act, basis_monomials, degree_of, monomial,
                             monomial_degree, weight_space_basis, weights)
from jordan_voa.liealg import Generator, LieElement, bracket_r, canonical_generators, canonicalize
from jordan_voa.scalar import ONE, R, ZERO, Scalar, _poly_divmod, poly_exact_div, poly_gcd
from jordan_voa.singular import (
    GENERIC,
    _at,
    _generic_minor,
    _search_matrix,
    certification_r,
    det_power_state,
    det_state,
    expected_singular_pairs,
    is_singular,
    kernel_basis,
    kernel_basis_poly,
    multiply_lowering,
    singular_search,
    singular_sweep,
    verify_det_lemmas,
)
from test_fock import cached_actions

VAC = State.vacuum()


def gen_elem(i, j, m, n):
    return canonicalize(i, j, m, n)


def raising_generators(bound, d=1, strict=False):
    """The reference raising family: canonical generators with positive mode sum and both modes
    in [-bound, bound], in the slot order m <= n unless strict adds the reversed mixed ones."""
    return [g for g in canonical_generators(bound, d) if g.m + g.n > 0 and (strict or g.m <= g.n)]


def lowering_state(*quads):
    return State.from_monomial(monomial([Generator(*q) for q in quads]))


def test_det_state_size_one():
    assert det_state(1) == lowering_state((1, 1, -1, -1))
    assert det_state(1, ()) == State.vacuum()  # the sum over no labels is the empty product
    assert det_power_state(1, 3) == lowering_state(
        (1, 1, -1, -1), (1, 1, -1, -1), (1, 1, -1, -1)
    )


def test_det_state_size_two_cofactor_oracle():
    # 2x2 cofactor expansion with the symmetric identification v(-1,-2)=v(-2,-1)
    expected = lowering_state((1, 1, -1, -1), (1, 1, -2, -2)) - lowering_state(
        (1, 1, -2, -1), (1, 1, -2, -1)
    )
    assert det_state(2) == expected


def test_det_state_size_three_terms():
    d3 = det_state(3)
    assert len(d3.terms) == 5
    assert d3.coefficient(
        monomial(
            [Generator(1, 1, -1, -1), Generator(1, 1, -2, -2), Generator(1, 1, -3, -3)]
        )
    ) == ONE
    assert d3.coefficient(
        monomial(
            [Generator(1, 1, -2, -1), Generator(1, 1, -3, -2), Generator(1, 1, -3, -1)]
        )
    ) == Scalar.of(2)


def test_multiply_lowering_is_commutative_product():
    a = det_state(2)
    b = lowering_state((1, 1, -1, -1))
    assert multiply_lowering(a, b) == multiply_lowering(b, a)
    assert multiply_lowering(a, VAC) == a


def test_certification_r():
    assert certification_r(2, 1) == 1
    assert [certification_r(p, nu) for p, nu in ((1, 1), (1, 2), (3, 1))] == [0, -2, 2]


def test_is_singular_certification_example():
    ok, witness = is_singular(det_state(2), r0=Fraction(1))
    assert ok and witness is None


def test_is_singular_counterexample_with_witness():
    u = lowering_state((1, 1, -1, -1))
    ok, witness = is_singular(u, r0=Fraction(1))
    assert not ok
    gen, image = witness
    assert gen == Generator(1, 1, 1, 1)
    assert image == VAC.scale(2)


def test_is_singular_checks_every_mode_up_to_the_degree():
    # a mode bound below the degree used to certify this vector vacuously
    u = det_power_state(2, 1)
    ok, witness = is_singular(u, r0=Fraction(0))
    assert not ok and witness is not None
    with pytest.raises(TypeError):
        is_singular(u, r0=Fraction(0), index_bound=0)


def test_is_singular_at_matching_parameter():
    ok, _ = is_singular(lowering_state((1, 1, -1, -1)), r0=Fraction(0))
    assert ok


def test_is_singular_rejects_inhomogeneous_input():
    with pytest.raises(ValueError):
        is_singular(VAC + lowering_state((1, 1, -1, -1)), r0=Fraction(0))


def test_is_singular_reads_its_oscillators_off_the_state():
    """A family over oscillator 1 alone would certify this vacuously; the state's own
    oscillator 2 gives the witness."""
    u = State.from_monomial((Generator(2, 2, -1, -1),))
    ok, witness = is_singular(u, r0=1)
    assert not ok and witness == (Generator(2, 2, 1, 1), VAC.scale(2))
    assert is_singular(u, r0=0) == (True, None)


def test_reversed_mixed_generators_break_strict_certification():
    """The reversed-slot mixed generator v[1,2](2,-1) does not annihilate the
    size-2 determinant vector; the strict family therefore fails for p >= 2
    while the certifiable family passes.  Pins the engine-measured boundary."""
    u = det_state(2)
    ok, witness = is_singular(u, r0=Fraction(1), strict=True)
    assert not ok
    assert witness[0] == Generator(1, 2, 2, -1)
    image = act(Generator(1, 2, 2, -1), u)
    expected = lowering_state((1, 1, -1, -1), (1, 2, -2, -1)).scale(4) - lowering_state(
        (1, 1, -2, -1), (1, 2, -1, -1)
    ).scale(4)
    assert image == expected
    # size-1 determinant powers pass even the strict family
    ok, _ = is_singular(det_power_state(1, 2), r0=Fraction(-2), strict=True)
    assert ok


def test_raising_generator_families():
    default = raising_generators(2, d=2)
    strict = raising_generators(2, d=2, strict=True)
    assert Generator(1, 2, 2, -1) in strict
    assert Generator(1, 2, 2, -1) not in default
    assert all(g.m + g.n > 0 for g in strict)
    restricted = raising_generators(2, d=1)
    assert all(g.i == g.j == 1 and g.m <= g.n for g in restricted)


def test_kernel_basis_trivial_cases():
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert kernel_basis(identity) == []
    zero_map = [[0, 0, 0], [0, 0, 0]]
    assert len(kernel_basis(zero_map)) == 3
    assert len(kernel_basis([[0]])) == 1
    assert kernel_basis([], ncols=2) == [
        [Fraction(1), Fraction(0)],
        [Fraction(0), Fraction(1)],
    ]


def test_kernel_basis_small_system():
    # x + y = 0 with a redundant row
    vectors = kernel_basis([[1, 1], [2, 2]])
    assert len(vectors) == 1
    x, y = vectors[0]
    assert x + y == 0 and (x, y) != (0, 0)


def test_kernel_basis_poly_generic():
    vectors = kernel_basis_poly([[R, R * R]])
    assert len(vectors) == 1
    x, y = vectors[0]
    assert not (R * x + R * R * y)
    assert kernel_basis_poly([[ONE, R], [R, R * R]], 2)  # rank 1, kernel dim 1
    assert kernel_basis_poly([[ONE, R], [R, ONE]], 2) == []  # generically full rank


def _random_low_rank(rng, entry, zero, size):
    """A random (rows, ncols) of at most size x size, as a product of an m x k
    and a k x n factor, so its rank is at most a random k."""
    m, n = rng.randint(1, size), rng.randint(1, size)
    k = rng.randint(0, min(m, n))
    left = [[entry() for _ in range(k)] for _ in range(m)]
    right = [[entry() for _ in range(n)] for _ in range(k)]
    return [
        [sum((left[i][t] * right[t][j] for t in range(k)), zero) for j in range(n)]
        for i in range(m)
    ], n


def test_kernel_basis_matches_sympy_nullspace():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(2009)

    def entry():
        return 0 if rng.random() < 0.3 else Fraction(rng.randint(-5, 5), rng.randint(1, 4))

    for _ in range(200):
        rows, ncols = _random_low_rank(rng, entry, Fraction(0), 6)
        expected = [
            [Fraction(int(x.p), int(x.q)) for x in vec]
            for vec in sympy.Matrix(rows).nullspace()
        ]
        assert kernel_basis(rows, ncols) == expected, rows


def test_kernel_basis_poly_against_sympy_rank():
    sympy = pytest.importorskip("sympy")
    r = sympy.Symbol("r")
    rng = random.Random(1968)

    def entry():
        return Scalar([Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(rng.randint(0, 3))])

    def to_sympy(poly):
        return sum(
            (sympy.Rational(c.numerator, c.denominator) * r**k
             for k, c in enumerate(poly)),
            sympy.Integer(0),
        )

    for _ in range(60):
        rows, ncols = _random_low_rank(rng, entry, ZERO, 4)
        vectors = kernel_basis_poly(rows, ncols)
        for vec in vectors:
            assert any(vec)
            for row in rows:
                assert sum((a * b for a, b in zip(row, vec)), ZERO) == ZERO
        rank = sympy.Matrix([[to_sympy(x) for x in row] for row in rows]).rank(simplify=True)
        assert len(vectors) == ncols - rank, rows
        if vectors:
            # independent at one rational point, hence independent over Q(r)
            point = sympy.Matrix([[to_sympy(x).subs(r, sympy.Rational(7, 3)) for x in vec]
                                  for vec in vectors])
            assert point.rank() == len(vectors)


def test_singular_search_spec_examples():
    lam = Weight({(1, -1): 2})
    assert singular_search(lam, Fraction(1, 2)).kernel_dim == 0
    report = singular_search(lam, Fraction(0))
    assert report.kernel_dim == 1 and report.basis_dim == 1
    assert report.kernel_vectors[0] == lowering_state((1, 1, -1, -1))

    lam2 = Weight({(1, -1): 2, (1, -2): 2})
    report2 = singular_search(lam2, Fraction(1))
    assert report2.kernel_dim == 1 and report2.basis_dim == 2
    found = report2.kernel_vectors[0]
    reference = det_state(2)
    lead = next(iter(sorted(found.terms)))
    scale = Fraction(reference.coefficient(lead).constant_value()) / Fraction(
        found.coefficient(lead).constant_value()
    )
    assert found.scale(scale) == reference


def test_singular_search_generic_is_empty():
    for lam in (Weight({(1, -1): 2}), Weight({(1, -1): 2, (1, -2): 2})):
        assert singular_search(lam, GENERIC).kernel_dim == 0


def test_singular_search_validates_weight():
    with pytest.raises(ValueError):
        singular_search(Weight({(2, -1): 2}), Fraction(0))
    with pytest.raises(ValueError):
        singular_search(Weight(), Fraction(0))


def test_restricted_weights_enumeration():
    lams = weights(3)
    assert len(lams) == 6  # partitions of 1, 2, 3
    assert Weight({(1, -1): 1}) in lams
    assert Weight({(1, -3): 1}) in lams
    assert all(w.total_degree() <= 3 for w in lams)


def test_expected_singular_pairs():
    assert expected_singular_pairs(0, 6) == {Weight({(1, -1): 2}): (1, 1)}
    assert expected_singular_pairs(1, 6) == {
        Weight({(1, -1): 2, (1, -2): 2}): (2, 1)
    }
    assert expected_singular_pairs(-2, 6) == {Weight({(1, -1): 4}): (1, 2)}
    assert expected_singular_pairs(-1, 6) == {}
    assert expected_singular_pairs(2, 6) == {}


def test_expected_singular_pairs_off_the_integers():
    assert expected_singular_pairs(Fraction(1, 2), 6) == {}
    assert expected_singular_pairs(GENERIC, 6) == {}
    assert expected_singular_pairs(Fraction(0), 6) == expected_singular_pairs(0, 6)


def test_verify_det_lemmas():
    for p in (1, 2):
        count, failures = verify_det_lemmas(p)
        assert not failures, failures
        # p (p + 2) exchange generators on 6 basis states of degree <= 4, then 3 p eigenvalues
        assert count == p * (p + 2) * 6 + 3 * p
    with pytest.raises(ValueError):
        verify_det_lemmas(0)


def test_det_eigenvalue_identity_frozen_instance():
    # v(2,2) det|0> = 8(r-1) v(-1,-1)|0> for the size-2 determinant
    lhs = act(gen_elem(1, 1, 2, 2), det_state(2))
    assert lhs == lowering_state((1, 1, -1, -1)).scale(Scalar.of(8) * (R - 1))


def test_certification_fails_off_relation():
    for p, nu in ((1, 1), (2, 1)):
        good = 1 - 2 * nu + p
        state = det_power_state(p, nu)
        for r0 in range(-3, 4):
            ok, _ = is_singular(state, r0=Fraction(r0))
            assert ok == (r0 == good), (p, nu, r0)


def test_singular_sweep_rows():
    reports = singular_sweep([Fraction(0), Fraction(1)], 4)
    by_key = {(str(rep.r0), str(rep.weight)): rep for rep in reports}
    hit = by_key[("0", str(Weight({(1, -1): 2})))]
    assert hit.kernel_dim == 1
    assert all(
        rep.kernel_dim == 0
        for rep in reports
        if not (rep.r0 == 0 and rep.weight == Weight({(1, -1): 2}))
    )


def test_serial_sweep_searches_with_the_collector_paused(monkeypatch):
    seen = []
    real = singular.singular_search

    def search(lam, r0):
        seen.append(gc.isenabled())
        return real(lam, r0)

    monkeypatch.setattr(singular, "singular_search", search)
    assert gc.isenabled()
    assert len(singular_sweep([Fraction(0), Fraction(1)], 4)) == 2 * len(weights(4))
    assert seen and not any(seen)
    assert gc.isenabled()


def test_weight_major_sweep_reports_with_the_parameter_outside():
    """The sweep runs weight by weight but returns r outer, weights in fock.weights order."""
    r_values = [GENERIC, Fraction(1, 2), -2, 0, 1]
    expected = [singular_search(lam, r0) for r0 in r_values for lam in weights(10)]
    fock.clear_action_cache()
    assert singular_sweep(r_values, 10) == expected
    assert sum(rep.kernel_dim for rep in expected) == 3  # det^nu of size p: (1,1), (1,2), (2,1)


def test_sweep_releases_each_weights_matrix_minor_and_top_level_images():
    """Recursion images have lower degree than their parent, so a degree-12 key is top-level."""
    singular_sweep(range(-3, 4), 12)
    assert not [key for key in fock._ACT_CACHE if key[0] == "search"]
    degrees = {monomial_degree(mono) for gen, mono in cached_actions()}
    assert 12 not in degrees
    assert degrees and max(degrees) == 10  # the lower-weight images stay


def test_sweep_from_a_cold_cache_leaves_its_ids_and_images():
    """The release takes no id and evicts only the weight's own images: the ids and cached
    images a degree-12 sweep leaves are pinned."""
    singular_sweep(range(-3, 4), 12)
    assert (len(fock._HEADS), len(fock._GENS), sum(map(len, fock._IMAGES))) == (218, 65, 175)


# -- the support-driven raising family and the minor certificate ----------


def _is_search_generator(gen):
    return gen.m + gen.n == 1 or (gen.m, gen.n) == (1, 1)


def _unpruned_search_matrix(lam, keep=lambda gen: True):
    """The matrix built over every raising generator up to the degree that keep selects."""
    basis = weight_space_basis(lam)
    rows = []
    if basis:
        for gen in filter(keep, raising_generators(lam.total_degree())):
            images = [act(gen, State.from_monomial(mono)) for mono in basis]
            for target in sorted({m for img in images for m in img.terms}):
                rows.append([img.coefficient(target) for img in images])
    return basis, rows


def _unpruned_is_singular(u, r0=GENERIC, d=1, strict=False):
    for gen in raising_generators(degree_of(u), d=d, strict=strict):
        image = act(gen, u)
        if r0 != GENERIC:
            image = image.specialize(r0)
        if not image.is_zero():
            return False, (gen, image)
    return True, None


def test_pruned_search_matrix_equals_the_unpruned_build():
    """The rows are the unpruned build's for the search generators, with the full build's kernel."""
    lams = weights(12)
    assert sum(1 for lam in lams if _search_matrix(lam)[0]) == 136
    r_values = [Fraction(r) for r in range(-3, 4)] + [Fraction(1, 2), Fraction(-1, 2)]
    for lam in lams:
        basis, rows = _search_matrix(lam)
        assert (basis, rows) == _unpruned_search_matrix(lam, _is_search_generator), lam
        if not basis:
            continue
        full = _unpruned_search_matrix(lam)[1]
        assert kernel_basis_poly(rows, len(basis)) == kernel_basis_poly(full, len(basis)), lam
        for r0 in r_values:
            got = kernel_basis([[_at(c, r0) for c in row] for row in rows], len(basis))
            want = kernel_basis([[_at(c, r0) for c in row] for row in full], len(basis))
            assert got == want, (lam, r0)


def test_search_generators_are_the_filtered_raising_family():
    for lam in weights(12):
        support = lam.support()
        want = [gen for gen in singular._raising_family(support) if _is_search_generator(gen)]
        assert singular._search_generators(support) == want, lam


def test_search_generators_generate_the_raising_algebra():
    """The three bracket identities behind _search_matrix, for modes up to 8."""
    def v(m, n):
        return LieElement.from_generator(Generator(1, 1, m, n))

    identities = []
    for a in range(1, 7):
        for c in range(a + 2, 9):
            identities.append((bracket_r(v(-a, a + 1), v(-a - 1, c)), v(-a, c).scale(a + 1)))
    for b in range(2, 9):
        identities.append((bracket_r(v(1, 1), v(-1, b)), v(1, b).scale(2)))
    for a in range(2, 9):
        for b in range(a, 9):
            identities.append((bracket_r(v(-1, a), v(1, b)), -v(a, b)))
    assert len(identities) == 56
    for lhs, rhs in identities:
        assert lhs == rhs


@pytest.mark.parametrize("fault", ["search-generators-drop-v11-11", "search-generators-drop-v11-m1-2"],
                         ids=["v(1,1)", "v(-1,2)"])
def test_a_search_without_a_generator_fails_certification(plant, fault):
    """Without v(1,1) or v(-1,2) the search finds vectors that is_singular refutes."""
    plant(fault)
    with pytest.raises(singular.SingularVerificationError):
        singular_sweep(range(-3, 4), 6)


def test_pruned_is_singular_matches_the_unpruned_reference():
    """is_singular, over the oscillators it reads off the state, against the whole family over
    d = K..K+2 oscillators (strict: K+1..K+3), K the state's largest: the same verdict and
    witness at each d.  The cases are the determinant powers with p <= 4 and nu <= 2 but
    (4, 2), at r = 1 - 2 nu + p, one above and generic, every basis monomial of degree <= 4
    on 3 oscillators at r in {generic, 1, -1}, and a state with a mixed factor.  (det^2 of
    size 4, of degree 40, takes the reference 7.5 s at one r; it agrees too.)"""
    cases = []
    for p, nu in itertools.product(range(1, 5), (1, 2)):
        r_cert = certification_r(p, nu)
        if (p, nu) != (4, 2):
            cases += [(det_power_state(p, nu), r0) for r0 in (r_cert, r_cert + 1, GENERIC)]
    cases += [(State.from_monomial(mono), r0)
              for mono in basis_monomials(4, 3) for r0 in (GENERIC, 1, -1)]
    mixed = lowering_state((1, 1, -1, -1), (1, 2, -2, -1)) + lowering_state((1, 2, -4, -1))
    cases += [(mixed, Fraction(1, 2)), (mixed, GENERIC)]
    outcomes = {True: 0, False: 0}
    for u, r0 in cases:
        top = max((k for mono in u.terms for g in mono for k in (g.i, g.j)), default=0)
        for strict in (False, True):
            got = is_singular(u, r0=r0, strict=strict)
            for d in range(top + strict, top + strict + 3):
                assert got == _unpruned_is_singular(u, r0, d, strict), (u, r0, d, strict)
            outcomes[got[0]] += 1
    assert outcomes == {True: 15, False: 343}
    ok, witness = is_singular(det_state(2), r0=Fraction(1), strict=True)
    assert not ok and witness[0] == Generator(1, 2, 2, -1)


def _eliminated_search(lam, r0):
    """basis_dim, kernel_dim and normalised vectors from eliminating at r0."""
    basis, rows = _search_matrix(lam)
    if not basis:
        return 0, 0, []
    vectors = kernel_basis([[_at(c, r0) for c in row] for row in rows], len(basis))
    states = []
    for vec in vectors:
        lead = next(c for c in vec if c)
        states.append(State(dict(zip(basis, [x / lead for x in vec]))))
    return len(basis), len(states), states


def test_singular_search_matches_elimination_at_every_rational():
    r_values = [Fraction(r) for r in range(-3, 4)]
    r_values += [Fraction(-3, 2), Fraction(1, 2), Fraction(5, 2)]
    kernels = 0
    for lam in weights(10):
        for r0 in r_values:
            report = singular_search(lam, r0)
            got = (report.basis_dim, report.kernel_dim, report.kernel_vectors)
            assert got == _eliminated_search(lam, r0), (lam, r0)
            kernels += report.kernel_dim
    assert kernels == 3  # the determinant powers (1,1) at r=0, (1,2) at r=-2, (2,1) at r=1


def test_a_vanishing_minor_falls_back_to_elimination(monkeypatch):
    lam = Weight({(1, -2): 2, (1, -1): 4})
    basis, rows = _search_matrix(lam)
    assert _generic_minor(rows, len(basis)) == Scalar((-24, -16))  # -16r - 24
    calls = []

    def counting_kernel_basis(rows, ncols=None):
        calls.append(ncols)
        return kernel_basis(rows, ncols)

    monkeypatch.setattr(singular, "kernel_basis", counting_kernel_basis)
    fock.clear_action_cache()
    assert singular_search(lam, Fraction(1, 2)).kernel_dim == 0
    assert calls == []  # certified by the minor
    assert fock._ACT_CACHE[("search", lam)][2] == Scalar((-24, -16))
    report = singular_search(lam, Fraction(-3, 2))
    assert calls == [2]  # the minor vanishes at -3/2, so the matrix is eliminated
    assert (report.basis_dim, report.kernel_dim, report.kernel_vectors) == (2, 0, [])


def test_generic_minor_is_zero_below_full_rank():
    assert _generic_minor([[ONE, R], [R, R * R]], 2) == ZERO
    assert _generic_minor([], 1) == ZERO
    assert _generic_minor([[ONE, R], [R, ONE]], 2) in (ONE - R * R, R * R - ONE)


def test_a_root_at_a_fixed_point_is_no_special_case():
    rows = [[R - 1009, ZERO], [ZERO, ONE]]  # full rank over Q(r), rank 1 at r = 1009
    assert _generic_minor(rows, 2) in (R - 1009, 1009 - R)
    # the first two rows are independent over Q(r), so a third changes nothing
    assert _generic_minor(rows + [[ONE, ZERO]], 2) in (R - 1009, 1009 - R)


@pytest.mark.parametrize("ncols", [1, 2, 3, 4])
def test_the_minor_decodes_coefficients_that_reach_the_bound(ncols):
    """Determinants with |D|_1 = N**ncols, the bound X is set above, and negative leading terms."""

    def diagonal(entry):
        return [[entry if k == col else ZERO for col in range(ncols)] for k in range(ncols)]

    def power(entry):
        out = ONE
        for _ in range(ncols):
            out = out * entry
        return out

    # N = 7 on each row: one coefficient -7**ncols (negative for odd ncols), or the
    # norm spread over mixed signs, (3 - 4r)**ncols, led by (-4)**ncols
    for entry in (Scalar((0, 0, -7)), Scalar((3, -4)), Scalar((-4, 0, 3)), Scalar((-7,))):
        det = power(entry)
        assert sum(map(abs, det)) == 7 ** ncols
        assert _generic_minor(diagonal(entry), ncols) == det  # a diagonal needs no swap
    # the antidiagonal's last pivot is the determinant up to the swaps' sign
    anti = [[ONE * -7 if col == ncols - 1 - k else ZERO for col in range(ncols)]
            for k in range(ncols)]
    assert _generic_minor(anti, ncols) in (Scalar.of((-7) ** ncols), Scalar.of(-(-7) ** ncols))


def test_the_minor_is_one_integer_elimination_at_every_weight_to_degree_12(monkeypatch):
    """No Q[r] arithmetic: one elimination over Z, whose pivot columns are the minor's rows."""
    eliminations = []
    rref = singular.fraction_free_rref

    def recording(rows, ncols, exact_div):
        mat, pivots, sign = rref(rows, ncols, exact_div)
        eliminations.append((exact_div, pivots))
        return mat, pivots, sign

    def refused(*args):
        raise AssertionError("the minor ran Q[r] arithmetic")

    tall = 0
    for lam in weights(12):
        basis, rows = _search_matrix(lam)
        if not basis:
            continue
        tall += len(rows) > len(basis)
        eliminations.clear()
        with monkeypatch.context() as patch:
            patch.setattr(singular, "fraction_free_rref", recording)
            patch.setattr(singular, "_nullspace", refused)
            patch.setattr(singular, "poly_exact_div", refused)
            minor = _generic_minor(rows, len(basis))
        [(exact_div, chosen)] = eliminations
        assert exact_div is operator.floordiv and len(chosen) == len(basis)
        square = [[Scalar.of(x) for x in rows[k]] for k in chosen]
        _, det = singular._nullspace(square, len(basis), poly_exact_div, ONE)
        assert minor in (det, -det), lam
    assert tall > 100


def test_the_minor_refuses_fraction_coefficients():
    """A search matrix lies in Z[r]; a matrix with a Fraction coefficient is refused, not cleared."""
    rng = random.Random(12)
    for _ in range(20):
        ncols = rng.randint(1, 4)
        rows = [[Scalar((rng.randint(-9, 9), rng.randint(-9, 9))) for _ in range(ncols)]
                for _ in range(ncols + 1)]
        _generic_minor(rows, ncols)  # integer rows are taken
        k, col = rng.randrange(ncols + 1), rng.randrange(ncols)
        rows[k][col] += Fraction(1, rng.choice((2, 3, 7)))
        with pytest.raises(ValueError, match="integer coefficients"):
            _generic_minor(rows, ncols)


def test_a_singular_vector_at_r0_makes_the_minor_vanish_there():
    """Soundness of the certificate: a nonzero kernel at r0 forces D(r0) = 0."""
    r_values = [Fraction(r) for r in range(-3, 4)]
    r_values += [Fraction(1, 2), Fraction(-1, 2), Fraction(5, 2)]
    kernels = 0
    for lam in weights(12):
        basis, rows = _search_matrix(lam)
        if not basis:
            continue
        minor = _generic_minor(rows, len(basis))
        for r0 in r_values:
            if kernel_basis([[_at(c, r0) for c in row] for row in rows], len(basis)):
                kernels += 1
                assert minor.evaluate(r0) == 0, (lam, r0, minor)
    assert kernels == 5


def _without_integer_roots(p):
    """p divided by (r - k), with multiplicity, for each of its integer roots k."""
    lead = Fraction(p[-1])
    bound = 1 + max((abs(c / lead) for c in p[:-1]), default=0)  # Cauchy's root bound
    for k in range(-int(bound), int(bound) + 1):
        while True:
            quot, rem = _poly_divmod(p, Scalar((-k, 1)))
            if rem:
                break
            p = quot
    return p


def _two_minor_gcd(lam):
    basis, rows = _search_matrix(lam)
    return poly_gcd(_generic_minor(rows, len(basis)), _generic_minor(rows[::-1], len(basis)))


def test_only_integer_parameters_have_singular_vectors_to_degree_12():
    """The "only if" of the theorem in the restricted module, for every r in C.

    Each maximal minor is a multiple of the gcd of all of them, so a
    singular vector at r0 forces every minor, hence the gcd of two, to
    vanish at r0.  That gcd has only integer roots at every weight.
    """
    searched = 0
    for lam in weights(12):
        if not _search_matrix(lam)[0]:
            continue
        searched += 1
        common = _two_minor_gcd(lam)
        assert common, lam  # full column rank over Q(r)
        assert _without_integer_roots(common).is_constant(), (lam, common)
    assert searched == 136
    # one minor is not enough: each of these has a non-integer root
    for count in (4, 6, 8):
        lam = Weight({(1, -2): 2, (1, -1): count})
        basis, rows = _search_matrix(lam)
        assert not _without_integer_roots(_generic_minor(rows, len(basis))).is_constant()
        assert _two_minor_gcd(lam) == ONE


def test_a_zero_minor_falls_back_to_elimination_at_every_parameter(monkeypatch):
    """With every minor forced to zero, the eliminations alone give the same reports."""
    cases = [(lam, r0) for lam in weights(6) for r0 in (GENERIC, Fraction(0))]
    expected = [singular_search(lam, r0) for lam, r0 in cases]
    calls = []

    def counting(kernel):
        def wrapper(rows, ncols=None):
            calls.append(kernel.__name__)
            return kernel(rows, ncols)
        return wrapper

    monkeypatch.setattr(singular, "_generic_minor", lambda rows, ncols: ZERO)
    monkeypatch.setattr(singular, "kernel_basis", counting(kernel_basis))
    monkeypatch.setattr(singular, "kernel_basis_poly", counting(kernel_basis_poly))
    fock.clear_action_cache()
    assert [singular_search(lam, r0) for lam, r0 in cases] == expected
    searched = sum(1 for rep in expected if rep.basis_dim) // 2
    assert calls.count("kernel_basis_poly") == calls.count("kernel_basis") == searched > 0
    assert [rep.kernel_dim for rep in expected if rep.r0 == 0].count(1) == 1
