"""Determinant vectors, singularity certification, and kernel search.

The determinant vector of size p is det(v(-s,-t))_{1<=s,t<=p} expanded over
permutations of the commuting first-oscillator lowering generators; its
nu-th power applied to the vacuum is the candidate singular vector for the
parameter value r = 1 - 2*nu + p.

A homogeneous state u of degree D is certified singular when every raising
generator (mode sum positive) with both modes in [-D, D] annihilates it.
Raising generators with a mode beyond D annihilate any degree-D state for
weight reasons, so the finite check is complete.  The number of
oscillators d decides the family: d = 1 is the first-oscillator module of
the paper, where the two slot orders name the same generator; for d >= 2
the mixed index pairs i < j join it in the slot order m <= n (equivalently
a nonnegative second mode, the order that provably kills states built on
the first oscillator).  The reversed-order mixed generators v[i,j](m,n)
with m > n > -m generally do NOT annihilate determinant vectors of size
p >= 2; strict=True adds them (d >= 2) to observe the failure.

Kernel search runs over one weight space at a time: stack the actions of
the generators of the raising algebra on the weight-space basis into an
exact matrix and return its nullspace, over Q for a rational parameter
value or over Q(r) for the generic parameter.  The generators are
v(1,1) and v(-j, j+1) for j >= 1: a vector they kill is killed by their
brackets, which give every raising generator, so the nullspace is the
space of singular vectors (the identities are in _search_matrix).  A
zero nullspace needs no such argument, because the rows are a subset of
the rows of the whole raising family.  The matrix is read off the cached
per-monomial id images of fock._act_id.  Only generators that can act
nonzero on the weight space are stacked: grading forces a raising
generator to act as zero on a monomial when it has a zero mode (v_k(0)
is central and kills the vacuum) or a positive mode x on an oscillator k
whose mode -x the monomial lacks.  is_singular checks the whole family
that survives that test, and re-certifies every vector the search finds.
Both kernels come from one nullspace builder, _nullspace, and the minor
below from the same fraction-free elimination (E. H. Bareiss, Math.
Comp. 22 (1968)), scalar.fraction_free_rref: _nullspace returns the
free-column vectors, scaled by the last pivot D so that no entry is a
fraction, together with D.  Nothing is divided inexactly: over Q each row
is cleared of denominators, eliminated over Z and the vectors are divided
by D; over Q(r) the matrix is eliminated over Q[r], so the kernel vectors
are polynomial from the start and only their content is divided out.

Every search first takes a maximal minor D(r) of the weight's matrix
(ZERO below full column rank), from one integer elimination by Kronecker
substitution (L. Kronecker, 1882; J. von zur Gathen and J. Gerhard,
Modern Computer Algebra, 8.4).  The entries lie in Z[r], and the matrix
is evaluated at one power of two X, more than twice the bound N**ncols
that the rows' l1-norms (at most N each) put on the l1-norm of every
maximal minor.  A nonzero integer polynomial of l1-norm below X
cannot vanish at X, so the rank at X is the rank over Q(r): the first
ncols rows independent at X, the pivot columns of the evaluated
transpose eliminated over Z, are independent over Q(r).  The last pivot
is D(X), D being plus or minus their determinant, and its balanced
base-X digits are D's coefficients.  No point is sampled, and no
fallback is needed.

D != 0 proves a zero kernel over Q(r), and as evaluation commutes with
determinants, D(r0) != 0 proves one at r0 without specialising the
matrix.  Only where D vanishes is the matrix eliminated, over Q(r) or
over Q.  Every maximal minor is a multiple of the gcd of all of them, the
last determinantal divisor (M. Newman, Integral Matrices, 1972), so the
gcd of a few minors bounds the parameter values with a singular vector at
that weight.  A maximal minor of the generators' matrix is one of the
whole family's matrix too.

A weight's basis, matrix and minor are one memo entry of fock, under
("search", weight), so fock.clear_action_cache empties them with every
other cache.  sweep_rows runs singular_search weight by weight.  Each
weight with a nonempty basis is searched at every parameter against its
one entry; then the entry is released, and every action image cached on
the weight's basis ids is evicted, because only that weight's searches and
re-certifications can have cached one.  A weight yields one SweepRow: its
basis dimension, and a KernelReport only at the parameters where the
kernel is nonzero.  So a sweep keeps no search matrix and no report of a
zero kernel, and its memory grows only with the lower-degree images that
the recursion shares between weights, not with the number of parameters.
singular_sweep builds the parameter-major list of reports from the rows,
and the command line writes its CSV and JSON straight from them; the
Weight objects of fock.weights are passed and reported as they are.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from .fock import (
    MIXED,
    State,
    Weight,
    _act_id,
    _forget_images,
    _gen_id,
    _mono_id,
    _monomial,
    act,
    basis_monomials,
    collector_paused,
    degree_of,
    forget,
    memo,
    weight_space_basis,
    weights,
)
from .liealg import Generator
from .scalar import (ONE, R, ZERO, Record, Scalar, add_into, fraction_free_rref, poly_exact_div,
                     poly_gcd)

__all__ = [
    "KernelReport",
    "SweepRow",
    "SingularVerificationError",
    "det_state",
    "det_power_state",
    "certification_r",
    "multiply_lowering",
    "is_singular",
    "kernel_basis",
    "kernel_basis_poly",
    "singular_search",
    "expected_singular_pairs",
    "singular_sweep",
    "sweep_rows",
    "verify_det_lemmas",
]

GENERIC = "generic"


class SingularVerificationError(RuntimeError):
    """A kernel vector found by the search failed its singularity check."""


class KernelReport(Record):
    """Search result for one weight space at one parameter value."""

    def __init__(self, weight: Weight, r0, basis_dim: int, kernel_dim: int,
                 kernel_vectors: list | None = None):
        self.weight, self.r0, self.basis_dim, self.kernel_dim = weight, r0, basis_dim, kernel_dim
        self.kernel_vectors = [] if kernel_vectors is None else kernel_vectors


def det_state(p: int, indices=None) -> State:
    """Expand the determinant of (v(-s,-t)) over the given row/column labels."""
    if indices is None:
        if p < 1:
            raise ValueError("determinant size must be at least 1")
        indices = tuple(range(1, p + 1))
    else:
        indices = tuple(indices)
    acc: dict = {}
    for perm in itertools.permutations(range(len(indices))):
        sign = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))  # inversion parity
        factors = []
        for q, target in enumerate(perm):
            s, t = indices[q], indices[target]
            factors.append(Generator(1, 1, -max(s, t), -min(s, t)))
        mono = tuple(sorted(factors))
        acc[mono] = acc.get(mono, 0) + sign
    return State(acc)


def certification_r(p: int, nu: int) -> int:
    """The parameter value r = 1 - 2*nu + p at which det^nu of size p is singular."""
    return 1 - 2 * nu + p


def multiply_lowering(a: State, b: State) -> State:
    """Product of two states whose factors are all lowering (they commute)."""
    acc: dict = {}
    for ma, ca in a.terms.items():
        for mb, cb in b.terms.items():
            add_into(acc, tuple(sorted(ma + mb)), ca * cb)
    return State(acc)


def det_power_state(p: int, nu: int) -> State:
    """The nu-th power of the size-p determinant applied to the vacuum."""
    if p < 1 or nu < 1:
        raise ValueError("determinant powers need p >= 1 and nu >= 1")
    base = det_state(p)
    out = base
    for _ in range(nu - 1):
        out = multiply_lowering(out, base)
    return out


def _raising_family(support, d: int = 1, strict: bool = False) -> list:
    """The raising generators that can act nonzero on states with this support.

    support holds the lowering modes (k, l) of the states' monomials.  The
    whole family for a degree-D state is every canonical generator over d
    oscillators with positive mode sum and both modes in [-D, D], in the
    slot order m <= n (strict=True adds the reversed mixed ones, i < j and
    m > n).  The result is that family, in the same order, less every
    generator that acts as zero for grading reasons: one with a zero mode,
    and one with a positive mode x on an oscillator k where (k, -x) is not
    in the support.  A kept generator's other mode is positive too, or
    negative and above -x.  The tests keep the whole family as their
    reference (tests/test_singular.py, raising_generators).
    """
    positive: dict = {}
    for k, l in support:
        positive.setdefault(k, []).append(-l)
    out = []
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            reversed_ok = strict and i < j
            for m in positive.get(i, ()):
                out.extend(Generator(i, j, m, n) for n in positive.get(j, ())
                           if m <= n or reversed_ok)
                if reversed_ok:
                    out.extend(Generator(i, j, m, n) for n in range(1 - m, 0))
            for n in positive.get(j, ()):
                out.extend(Generator(i, j, m, n) for m in range(1 - n, 0))
    return sorted(out)


def _search_generators(support) -> list:
    """The generators of the d = 1 raising algebra that can act nonzero on this support.

    v[1,1](1,1) and v[1,1](-j, j+1) for j >= 1, each kept only where the
    support holds its partner mode (1, -1) or (1, -(j+1)).  They are the
    members of _raising_family(support) with mode sum 1 or with modes
    (1, 1), in its order.  Whatever they kill, every raising generator
    kills: see _search_matrix.
    """
    out = [Generator(1, 1, l + 1, -l) for k, l in support if k == 1 and l < -1]
    if (1, -1) in support:
        out.append(Generator(1, 1, 1, 1))
    return sorted(out)


def is_singular(u: State, r0=GENERIC, d: int = 1, strict: bool = False):
    """Certify annihilation by the raising generators; returns (ok, witness).

    The modes range over [-D, D] for the state's degree D: a smaller bound
    would leave raising generators unchecked and could certify falsely.

    The witness on failure is the first violating generator together with
    its nonzero image (specialised when r0 is rational).  The family is
    chosen by the modes (k, l) the factors of u's monomials carry, read off
    both slots of every factor.
    """
    if degree_of(u) == MIXED:
        raise ValueError("singularity is only defined for homogeneous states")
    support = {kl for mono in u.terms for g in mono for kl in ((g.i, g.m), (g.j, g.n))}
    for gen in _raising_family(support, d, strict):
        image = act(gen, u)
        if r0 != GENERIC:
            image = image.specialize(r0)
        if not image.is_zero():
            return False, (gen, image)
    return True, None


# -- exact nullspace ----------------------------------------------------


def _nullspace(rows, ncols, exact_div, one):
    """Free-column nullspace of a matrix over an integral domain, and the last pivot D.

    Vector k has D on the k-th free column, 0 on the other free columns and
    -mat[k][free] on each pivot column of the fraction-free reduced form
    (whose pivot rows all hold D on the diagonal).  D is one for a zero matrix.
    """
    if ncols is None:
        if not rows:
            raise ValueError("pass ncols explicitly for an empty row list")
        ncols = len(rows[0])
    mat, pivots, _ = fraction_free_rref(rows, ncols, exact_div)
    last = mat[0][pivots[0]] if pivots else one
    vectors = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [one - one] * ncols
        vec[free] = last
        for k, col in enumerate(pivots):
            vec[col] = -mat[k][free]
        vectors.append(vec)
    return vectors, last


def _cleared(row) -> list:
    """A row of ints and Fractions times the lcm of its denominators: ints.

    Integer elimination divides with floordiv, which is exact only on ints.
    """
    scale = math.lcm(*(x.denominator for x in row))
    return [x.numerator * (scale // x.denominator) for x in row]


def kernel_basis(rows, ncols: int | None = None) -> list:
    """Exact rational nullspace of a rectangular matrix of ints and Fractions.

    Vector k has coefficient 1 on the k-th free column and 0 on the other
    free columns: the reduced-row-echelon basis.
    """
    vectors, last = _nullspace([_cleared(row) for row in rows], ncols, operator.floordiv, 1)
    return [[Fraction(x, last) for x in vec] for vec in vectors]


def kernel_basis_poly(rows, ncols: int | None = None) -> list:
    """Nullspace over the field Q(r), returned as vectors of polynomials.

    Elimination runs fraction-free over Q[r].  Each vector is divided by its
    polynomial content, so the entries are coprime elements of Q[r], and
    scaled so that its entry on its free column is monic.
    """
    poly_rows = [[Scalar.of(x) for x in row] for row in rows]
    vectors, last = _nullspace(poly_rows, ncols, poly_exact_div, ONE)
    basis = []
    for vec in vectors:
        content = ZERO
        for entry in vec:
            content = poly_gcd(content, entry)
        content = content * last[-1]
        basis.append([poly_exact_div(entry, content) for entry in vec])
    return basis


# -- weight-space search --------------------------------------------------

# Never filled: the search matrices live in fock's memo.  The benchmark's
# traced pass still reads the name.
_MATRIX_CACHE: dict = {}


def _search_matrix(lam: Weight):
    """Symbolic matrix of the raising algebra's generators on the first-oscillator weight space.

    The rows stack the images of _search_generators(lam.support()), not of
    the whole _raising_family, and the kernel is the same.  A zero kernel
    needs no argument: these rows are a subset of the full family's rows,
    so each maximal minor here is a maximal minor of the full matrix too.
    A nonzero kernel is no larger either, because the kept generators and
    the ones acting as zero on the weight space generate the d = 1 raising
    algebra up to the generators with a zero mode, which act as zero:

        [v(-a, a+1), v(-a-1, c)] = (a+1) v(-a, c)    for c >= a+2,
        [v(1,1), v(-1, b)]       = 2 v(1, b)          for b >= 2,
        [v(-1, a), v(1, b)]      = -v(a, b)           for 2 <= a <= b.

    Induction on c - a gives every v(-a, c) from the first; the other two
    then give every v(a, b) with 0 < a <= b.  Brackets of positive-degree
    elements carry no r-constant, so a vector killed by the generators is
    killed by their brackets at every parameter value: the two kernels are
    one subspace, with one reduced-echelon basis.  singular_search still
    re-certifies each kernel vector against the whole family by is_singular.
    The images are read as id images (fock._act_id); each generator's rows
    are its targets, sorted by monomial, and each row is filled straight
    from the images' (target, coefficient) pairs, one column per basis
    monomial.  The entries are kept as the images hold them, ints and
    Scalars with int coefficients (Z + Z r): _at specialises either, and
    the elimination over Q[r] takes an int as a constant polynomial.
    Nothing is cached here; singular_search memoises the matrix with its
    minor (_search_system).
    """
    basis = weight_space_basis(lam, d=1)
    rows = []
    if basis:
        mids = [_mono_id(mono) for mono in basis]
        for gen in _search_generators(lam.support()):
            gid = _gen_id(gen)
            targets: dict = {}  # monomial id -> its row, filled column by column
            for col, mid in enumerate(mids):
                for target, c in _act_id(gid, mid):
                    row = targets.get(target)
                    if row is None:
                        row = targets[target] = [0] * len(mids)
                    row[col] = c
            rows += [targets[target] for target in sorted(targets, key=_monomial)]
    return basis, rows


def _at(entry, r0):
    """A matrix entry, an int or a Scalar, at the parameter value r0."""
    return entry if type(entry) is int else entry.evaluate(r0)


def _balanced_digits(value: int, bits: int) -> Scalar:
    """The integer polynomial p with p(X) = value, X = 2**bits, and coefficients in (-X/2, X/2]."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    coeffs = []
    while value:
        digit = value & mask
        if digit > half:
            digit -= mask + 1
        coeffs.append(digit)
        value = (value - digit) >> bits
    return Scalar(coeffs)


def _generic_minor(rows, ncols: int) -> Scalar:
    """A maximal minor of a matrix of ints and Scalars over Z; ZERO below full column rank.

    Every coefficient must be an int (a search matrix's are, its entries
    lying in Z + Z r); any other raises ValueError.  One integer
    elimination gives the minor, by Kronecker substitution.  N is the
    largest row l1-norm (the sum of the absolute values of a row's
    coefficients) and X = 2**b with b = bitlen(N**ncols) + 1.  The
    transpose of the matrix at r = X is eliminated over Z; its pivot
    columns are the first ncols rows independent at X, and its last pivot
    D(X) is, up to sign, their determinant at X.

    The l1-norm is subadditive and submultiplicative, so every maximal
    minor M has |M|_1 <= N**ncols < X/2.  A nonzero integer polynomial with
    |M|_1 < X cannot vanish at X (its top term outweighs the rest), so the
    rank at X is the rank over Q(r): the rows chosen at X are independent
    over Q(r), and fewer than ncols of them means no maximal minor is
    nonzero.  Every coefficient of D lies in (-X/2, X/2], so D's
    coefficients are the balanced base-X digits of D(X), and D is, up to
    sign, the determinant of the chosen rows.
    """
    norm = 0
    for row in rows:
        size = sum(abs(entry) if type(entry) is int else sum(map(abs, entry)) for entry in row)
        if type(size) is not int:  # only a Fraction coefficient makes the sum a Fraction
            raise ValueError("the generic minor takes integer coefficients only")
        norm = max(norm, size)
    bits = (norm ** ncols).bit_length() + 1
    at_x = [[_at(entry, 1 << bits) for entry in row] for row in rows]
    mat, chosen, _ = fraction_free_rref(list(zip(*at_x)), len(rows), operator.floordiv)
    if len(chosen) < ncols:
        return ZERO
    return _balanced_digits(mat[0][chosen[0]], bits)


def _search_system(lam: Weight):
    """(basis, rows, minor) of one weight: _search_matrix and its _generic_minor.

    The minor is None for an empty basis.
    """
    basis, rows = _search_matrix(lam)
    return basis, rows, _generic_minor(rows, len(basis)) if basis else None


def singular_search(lam: Weight, r0) -> KernelReport:
    """Exact kernel of the stacked raising actions on one weight space.

    r0 is an int, a Fraction or GENERIC, and the report carries it as
    given.  The weight must be nonzero and supported on the first
    oscillator (weight_space_basis raises ValueError otherwise).  The
    kernel is zero, with no elimination at r0, wherever the weight's
    generic maximal minor does not vanish at r0, or as a polynomial for
    generic r.  The basis, matrix and minor are one memo entry per weight,
    ("search", lam), read once per search; _generic_minor takes the minor
    from one integer elimination at a point where no minor vanishes unless
    it is zero.  Kernel vectors are normalised to coefficient 1 (leading
    coefficient 1 for generic r) on their lexicographically smallest
    monomial, and each is re-certified through is_singular before being
    returned.
    """
    if lam.is_zero():
        raise ValueError("the search needs a nonzero weight")
    basis, rows, minor = memo(("search", lam), _search_system, lam)
    if not basis:
        return KernelReport(lam, r0, 0, 0, [])
    if r0 != GENERIC:
        minor = minor.evaluate(r0)
    if minor:
        return KernelReport(lam, r0, len(basis), 0, [])
    if r0 == GENERIC:
        vectors = kernel_basis_poly(rows, len(basis))
    else:
        vectors = kernel_basis([[_at(c, r0) for c in row] for row in rows], len(basis))
    states = []
    for vec in vectors:
        vec = [Scalar.of(entry) for entry in vec]
        lead = next(c for c in vec if c)[-1]
        state = State({mono: entry / lead for mono, entry in zip(basis, vec)})
        ok, witness = is_singular(state, r0=r0, d=1)
        if not ok:
            raise SingularVerificationError(
                f"search produced a non-singular vector at weight {lam}: witness {witness[0]}"
            )
        states.append(state)
    return KernelReport(lam, r0, len(basis), len(states), states)


def expected_singular_pairs(r0, max_degree: int) -> dict:
    """Map weight -> (p, nu) for determinant powers certified at integer r0.

    r0 may be an int, a Fraction or GENERIC; the map is empty unless r0 is
    an integer, since r = 1 - 2*nu + p always is.
    """
    out = {}
    for p in range(1, max_degree + 1):
        for nu in range(1, max_degree + 1):
            if certification_r(p, nu) != r0:
                continue
            degree = nu * p * (p + 1)
            if degree > max_degree:
                continue
            lam = Weight({(1, -q): 2 * nu for q in range(1, p + 1)})
            out[lam] = (p, nu)
    return out


class SweepRow(Record):
    """One weight of a sweep: its basis dimension, and its nonzero kernels by parameter position.

    kernels maps the position of a parameter in the sweep's list to the
    KernelReport of the search there; every other position found a zero
    kernel.
    """

    def __init__(self, weight: Weight, basis_dim: int, kernels: dict):
        self.weight, self.basis_dim, self.kernels = weight, basis_dim, kernels


def _sweep_weight(lam: Weight, r_values: list) -> SweepRow:
    """singular_search on one weight at each parameter, then release the weight's entries.

    The weight's ("search", lam) entry is taken first, and every search
    reads it.  A weight with an empty basis (797 of the degree-18 sweep's
    1596) has an empty kernel everywhere and runs no search.  The row keeps
    only the reports of nonzero kernels.  Then the entry, holding the
    basis, the matrix and the minor, is dropped, and so is every action
    image cached on the basis's monomial ids (fock._forget_images).  Only
    this weight's searches and re-certifications can have cached one:
    fock.weights runs by degree, and a weight's recursion caches images
    only on its own basis and on monomials of lower degree.  Only the
    recursion of a later weight could read an evicted image again, and
    seldom does (the degree-18 sweep over r = -3..3 recomputes 5 % more
    images).  The lower-degree images stay cached, because later weights
    reuse them: dropping those too costs the same sweep about 25 % more
    time for 2 MB less peak.  The search took the basis's ids, so _mono_id
    only looks them up here; the ids stay until clear_action_cache (the
    degree-18 sweep takes 2170 monomial ids).
    """
    basis = memo(("search", lam), _search_system, lam)[0]
    kernels = {}
    if basis:
        for pos, r0 in enumerate(r_values):
            report = singular_search(lam, r0)
            if report.kernel_dim:
                kernels[pos] = report
        _forget_images([_mono_id(mono) for mono in basis])
    forget([("search", lam)])
    return SweepRow(lam, len(basis), kernels)


def sweep_rows(r_values: list, max_degree: int) -> list:
    """One SweepRow per first-oscillator weight of fock.weights, searched at every parameter.

    The loop is weight-major: each weight is one _sweep_weight call, which
    releases the weight's entries before the next weight, so r_values is
    read once per weight and must be a sequence.  A row's kernels are keyed
    by position in r_values.  A row holds a report only where the kernel is
    nonzero, so the rows' size does not grow with the number of parameters
    beyond those kernels.

    The search runs under fock.collector_paused.  That is safe: fock's
    caches are acyclic and a search makes no cyclic garbage, so the
    collector's rescans of every cached entry would free nothing.
    Concurrent callers can only lose that saving.
    """
    with collector_paused():
        return [_sweep_weight(lam, r_values) for lam in weights(max_degree)]


def singular_sweep(r_values, max_degree: int) -> list:
    """Run the kernel search over every first-oscillator weight for each parameter.

    The reports are built from sweep_rows and returned parameter first: r
    in the given order outside, weights in fock.weights order inside.  A
    zero kernel's report is made here, equal to the one singular_search
    returns; the Weight objects of fock.weights are reported as they are.
    """
    r_values = list(r_values)
    rows = sweep_rows(r_values, max_degree)
    return [row.kernels.get(pos) or KernelReport(row.weight, r0, row.basis_dim, 0, [])
            for pos, r0 in enumerate(r_values) for row in rows]


# -- determinant commutation identities -----------------------------------


def verify_det_lemmas(p: int) -> tuple:
    """Check the determinant commutation and eigenvalue identities.

    (a) v(-m, n) commutes with multiplication by the determinant for
        1 <= m <= p, 0 <= n <= p + 2, n != m, applied to every
        first-oscillator basis state of degree <= 4.
    (b) On u = det^nu1 applied to the vacuum (so the diagonal eigenvalue
        coefficient is alpha = 2*nu1),

        v(m,m) det u = 2 m^2 (2 alpha + r - p + 1) det^(m-minor) u
                       + det v(m,m) u

        symbolically in r, for 1 <= m <= p and nu1 <= 2.

    Returns (count, failures): how many identities were tested, and each failure.
    """
    failures = []
    count = 0
    det = det_state(p)
    spanning = basis_monomials(4, 1)
    for m in range(1, p + 1):
        for n in range(0, p + 3):
            if n == m:
                continue
            gen_elem = Generator(1, 1, -m, n)
            for mono in spanning:
                u = State.from_monomial(mono)
                lhs = act(gen_elem, multiply_lowering(det, u))
                rhs = multiply_lowering(det, act(gen_elem, u))
                count += 1
                if lhs != rhs:
                    failures.append(f"commutation fails for {gen_elem} on {u}")
    for nu1 in range(0, 3):
        u = State.vacuum() if nu1 == 0 else det_power_state(p, nu1)
        alpha = 2 * nu1
        for m in range(1, p + 1):
            minor = det_state(p, indices=[q for q in range(1, p + 1) if q != m])
            lhs = act(Generator(1, 1, m, m), multiply_lowering(det, u))
            scale = Scalar.of(2 * m * m) * (R + Scalar.of(2 * alpha - p + 1))
            rhs = multiply_lowering(minor, u).scale(scale) + multiply_lowering(
                det, act(Generator(1, 1, m, m), u)
            )
            count += 1
            if lhs != rhs:
                failures.append(f"eigenvalue identity fails for m={m}, nu1={nu1}")
    return count, failures
