"""Degree-2 structure constants and the symmetric-matrix Jordan check.

The degree-2 component is spanned by the states w[i,j] = (1/2) v[i,j](-1,-1)
applied to the vacuum, one for each unordered index pair.  The product of
two of them is the zero-mode sum L[i,j](0) applied to the partner, which
lands back in the span of the w basis with structure constants that are
rational and independent of r.

The resulting algebra is isomorphic to the Jordan algebra of d x d
symmetric matrices under A . B = (AB + BA)/2; the verifier exhibits the
isomorphism through a diagonal rescaling of the natural basis
(w[i,i] -> c_diag E_ii, w[i,j] -> c_off (E_ij + E_ji)).  With both scales
nonzero this map is a linear bijection onto Sym_d, so once it carries every
ordered basis product to the matrix product, the table algebra is
isomorphic to (Sym_d, .) and is therefore commutative and satisfies the
Jordan identity; neither is checked separately.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .fock import State, basis_monomials
from .liealg import Generator, _validate_index
from .scalar import add_into
from .virops import act_L

__all__ = [
    "GriessVerificationError",
    "GriessTable",
    "omega",
    "griess_product",
    "build_griess_table",
    "jordan_verify",
]

HALF = Fraction(1, 2)


class GriessVerificationError(RuntimeError):
    """A structural property guaranteed by the construction failed to verify."""


def omega(i: int, j: int) -> State:
    """Basis vector of the degree-2 component for the index pair {i, j}."""
    i, j = min(i, j), max(i, j)
    return State.from_monomial((Generator(i, j, -1, -1),), HALF)


def griess_product(i: int, j: int, k: int, l: int, d: int) -> State:
    """The degree-2 product w[i,j] . w[k,l] (zero mode of the first factor)."""
    for idx in (i, j, k, l):
        _validate_index(idx, d)
    return act_L(i, j, 0, omega(k, l))


class GriessTable:
    """Structure constants of the degree-2 algebra over the w basis."""

    def __init__(self, d: int):
        self.d = d
        self.basis = [(i, j) for i in range(1, d + 1) for j in range(i, d + 1)]
        self.index = {pair: pos for pos, pair in enumerate(self.basis)}
        self.products: dict = {}

    def to_json_obj(self) -> dict:
        return {
            "d": self.d,
            "basis": [list(p) for p in self.basis],
            "products": [
                {
                    "left": list(left),
                    "right": list(right),
                    "coords": [str(c) for c in vec],
                }
                for (left, right), vec in sorted(self.products.items())
            ],
        }


def _omega_coordinates(state: State, index: dict) -> list:
    """Express a degree-2 state over the w basis; error if it leaves the span.

    index maps each pair (i, j) of the basis to its position.
    """
    coords = [Fraction(0)] * len(index)
    for mono, coeff in state.terms.items():
        if len(mono) != 1 or mono[0].m != -1 or mono[0].n != -1:
            raise GriessVerificationError(
                f"degree-2 product leaves the quadratic span: monomial {mono}"
            )
        if not coeff.is_constant():
            raise GriessVerificationError(
                f"degree-2 structure constant depends on r: {coeff}"
            )
        pair = (mono[0].i, mono[0].j)
        coords[index[pair]] = Fraction(coeff.constant_value()) * 2
    return coords


def build_griess_table(d: int) -> GriessTable:
    """Compute all pairwise products and express them over the w basis."""
    table = GriessTable(d)
    for left in table.basis:
        for right in table.basis:
            product = griess_product(left[0], left[1], right[0], right[1], d)
            table.products[(left, right)] = tuple(_omega_coordinates(product, table.index))
    return table


def _sym_image(pair, c_diag, c_off) -> dict:
    """The sparse matrix {(row, col): entry} of w[pair]: c_diag E_ii, or c_off (E_ij + E_ji)."""
    i, j = pair
    return {(i, i): c_diag} if i == j else {(i, j): c_off, (j, i): c_off}


def _jordan(a: dict, b: dict) -> dict:
    """The Jordan product (ab + ba)/2 of two sparse matrices, zero entries dropped."""
    out: dict = {}
    for x, y in ((a, b), (b, a)):
        for (row, mid), u in x.items():
            for (mid2, col), v in y.items():
                if mid == mid2:
                    add_into(out, (row, col), u * v)
    return {key: value * HALF for key, value in out.items()}


def _exact_sqrt(q: Fraction):
    """The rational square root of q in normal form, an int when integral, or None."""
    if q < 0:
        return None
    num = isqrt(q.numerator)
    den = isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den) if den > 1 else num
    return None


def jordan_verify(table: GriessTable) -> dict:
    """Verify a built table's degree-2 dimension and its isomorphism onto symmetric matrices.

    The rescaling w[i,i] -> c_diag E_ii, w[i,j] -> c_off (E_ij + E_ji) with
    c_diag and c_off nonzero is a linear bijection onto Sym_d.  If it maps
    the product of every ordered basis pair to the Jordan product of the
    images, the table algebra is isomorphic to (Sym_d, .), which is
    commutative and satisfies the Jordan identity; the report's
    "commutative" and "jordan_identity" entries follow from that.

    Returns a report with the scaling factors found.  Raises
    GriessVerificationError if any structural property fails, since the
    construction guarantees all of them.
    """
    d = table.d
    dim = len(table.basis)

    degree_two = len(basis_monomials(2, d)) - 1  # less the vacuum; degree 1 is empty
    if degree_two != dim:
        raise GriessVerificationError(
            f"degree-2 dimension {degree_two} != d(d+1)/2 = {dim}"
        )

    # Diagonal scale: w[1,1].w[1,1] = gamma w[1,1] forces c_diag = gamma.
    first = table.index[(1, 1)]
    gamma = table.products[((1, 1), (1, 1))][first]
    if not gamma:
        raise GriessVerificationError("diagonal square has no diagonal component")
    c_diag = gamma.numerator if gamma.denominator == 1 else gamma  # normal form, as in Q[r]
    # Off-diagonal scale: w[1,2].w[1,2] = beta (w[1,1]+w[2,2]) forces
    # c_off^2 = beta * c_diag.  For d = 1 there is no off-diagonal element.
    c_off = None
    if d > 1:
        beta = table.products[((1, 2), (1, 2))][first]
        c_off = _exact_sqrt(beta * c_diag)
        if c_off is None or not c_off:
            raise GriessVerificationError("no rational off-diagonal scaling exists")

    images = {pair: _sym_image(pair, c_diag, c_off) for pair in table.basis}
    for (left, right), coords in table.products.items():
        actual: dict = {}
        for pos, entry in enumerate(coords):
            if entry:
                for key, value in images[table.basis[pos]].items():
                    add_into(actual, key, entry * value)
        if actual != _jordan(images[left], images[right]):
            raise GriessVerificationError(
                f"isomorphism fails on the pair {left}, {right}"
            )

    return {
        "d": d,
        "dimension": dim,
        "commutative": True,
        "jordan_identity": True,
        "diagonal_scale": c_diag,
        "off_diagonal_scale": c_off,
        "isomorphic_to_symmetric_matrices": True,
    }
