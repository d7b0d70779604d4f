"""Exact arithmetic in Q[r], polynomials in the deformation parameter r.

Every structure constant the engine produces is a polynomial in r with
rational coefficients, so identities are certified once for a generic
parameter and specialised to rational values only when asked.  All
arithmetic is arbitrary-precision and exact; no floating point is used
anywhere in the package.  The module also holds the package's one sparse
linear-combination type, Combination, which states and Lie elements are
built on, its one exact eliminator, fraction_free_rref, behind the
kernels over Q and Q(r) and the transfer determinants, and Record, the one
base of the plain records (singular.KernelReport, SuiteConfig and
suite.CheckResult), here as the lowest module both of theirs import.
SuiteConfig, the battery's scale, and its bounds live beside Record, not in
suite: the command-line parser reads them without loading the battery.

Scalar's constructor is the one place that sets the normal form (no
trailing zeros, an integral coefficient an int); only an int polynomial
times a nonzero int, a product already in normal form, skips it.
"""

from __future__ import annotations

import re
from fractions import Fraction

__all__ = [
    "Scalar",
    "ZERO",
    "ONE",
    "R",
    "Combination",
    "add_into",
    "parse_scalar",
    "poly_exact_div",
    "poly_gcd",
    "fraction_free_rref",
]


class Scalar(tuple):
    """A polynomial in r, stored densely by ascending degree.

    The constructor sets the one normal form: trailing zero coefficients
    are stripped, so the zero polynomial is the empty tuple, and every
    coefficient is an int when integral and a Fraction otherwise.  Equal
    polynomials are equal tuples, with equal hashes and text.  Instances
    are immutable and safe to share between threads.

    Comparison with a bare int or Fraction treats it as a constant
    polynomial (hashes differ across types; never mix them as dict keys).
    """

    __slots__ = ()

    def __new__(cls, coeffs=()):
        coeffs = tuple(coeffs)
        end = len(coeffs)
        while end and not coeffs[end - 1]:
            end -= 1
        coeffs = coeffs[:end]
        if Fraction in map(type, coeffs):
            coeffs = [c.numerator if type(c) is Fraction and c.denominator == 1 else c
                      for c in coeffs]
        return tuple.__new__(cls, coeffs)

    @classmethod
    def of(cls, value) -> "Scalar":
        if isinstance(value, Scalar):
            return value
        if isinstance(value, (int, Fraction)):
            return cls((value,))
        raise TypeError(f"cannot interpret {value!r} as an element of Q[r]")

    @property
    def coeffs(self) -> dict:
        """Finitely supported map degree -> coefficient (zeros omitted)."""
        return {k: c for k, c in enumerate(self) if c}

    def is_constant(self) -> bool:
        return len(self) <= 1

    def constant_value(self):
        if len(self) > 1:
            raise ValueError(f"{self} is not constant in r")
        return self[0] if self else 0

    # -- ring operations ------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar):
            if isinstance(other, (int, Fraction)):
                other = Scalar((other,))
            else:
                return NotImplemented
        a, b = (self, other) if len(self) >= len(other) else (other, self)
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Scalar(out)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return Scalar([-c for c in self])

    def __mul__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            if type(other) is int and other and Fraction not in map(type, self):
                # an int polynomial times a nonzero int: no zero to strip, no Fraction to normalise
                return tuple.__new__(Scalar, [c * other for c in self])
            other = Scalar((other,))
        if not self or not other:
            return ZERO
        out = [0] * (len(self) + len(other) - 1)
        for k, c in enumerate(self):
            if c:
                for k2, c2 in enumerate(other):
                    out[k + k2] += c * c2
        return Scalar(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division of a polynomial by zero")
            return Scalar([Fraction(c, other) for c in self])
        return NotImplemented

    def __eq__(self, other):
        if isinstance(other, tuple):
            return tuple.__eq__(self, other)
        if isinstance(other, (int, Fraction)):
            return tuple.__eq__(self, Scalar((other,)))
        return NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__

    # -- evaluation and text ---------------------------------------------

    def evaluate(self, r0):
        """Specialise the parameter: compute self(r0) exactly.

        An integral r0 (an int, or a Fraction with denominator 1) keeps int
        arithmetic, so the value is an int when every coefficient is.  Any
        other value is a Fraction, save 0 for the zero polynomial.
        """
        if not isinstance(r0, int):
            r0 = Fraction(r0)
            if r0.denominator == 1:
                r0 = r0.numerator
        acc = 0
        for c in reversed(self):
            acc = acc * r0 + c
        return acc

    def __str__(self):
        if not self:
            return "0"
        pieces = []
        for k in range(len(self) - 1, -1, -1):
            c = self[k]
            if not c:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                power = "r" if k == 1 else f"r^{k}"
                body = power if mag == 1 else f"{mag}*{power}"
            if not pieces:
                pieces.append(f"-{body}" if c < 0 else body)
            else:
                pieces.append(f" - {body}" if c < 0 else f" + {body}")
        return "".join(pieces)

    def __repr__(self):
        return f"Scalar({str(self)!r})"


ZERO = Scalar()
ONE = Scalar((1,))
R = Scalar((0, 1))


class Record:
    """A plain record of the fields its __init__ sets: a configuration, a result or a report.

    Two records are equal when they are of one class and their fields are
    equal, and a record prints as Name(field=value, ...).  Defining __eq__
    leaves __hash__ None, in every subclass too: a record's fields may be
    changed, so it is not hashable.
    """

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{k}={v!r}' for k, v in vars(self).items())})"


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


def add_into(acc: dict, key, coeff: Scalar):
    """Add a nonzero coeff to acc[key] in place, dropping the key if it cancels."""
    cur = acc.get(key)
    if cur is None:
        acc[key] = coeff
    else:
        total = cur + coeff
        if total:
            acc[key] = total
        else:
            del acc[key]


class Combination:
    """A finite Q[r]-linear combination: terms maps each key to a nonzero Scalar.

    Subclasses name the keys (basis monomials, canonical generators) and add
    what is specific to them, their text included; every operation here
    returns an instance of
    the operand's own class.  Instances are never mutated once returned.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        tidy = {}
        if terms:
            for key, coeff in terms.items():
                coeff = Scalar.of(coeff)
                if coeff:
                    self._check_key(key)
                    tidy[key] = coeff
        self.terms = tidy

    def _check_key(self, key):
        """Reject a key that is not a basis element; subclasses override."""

    @classmethod
    def _from_tidy(cls, terms: dict):
        """Wrap a dict whose coefficients are already nonzero Scalars."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def zero(cls):
        return cls()

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key) -> Scalar:
        return self.terms.get(key, ZERO)

    def scale(self, factor):
        factor = Scalar.of(factor)
        if not factor:
            return self._from_tidy({})
        return self._from_tidy({k: c * factor for k, c in self.terms.items()})

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        acc = dict(self.terms)
        for key, coeff in other.terms.items():
            add_into(acc, key, coeff)
        return self._from_tidy(acc)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self + (-other)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def specialize(self, r0):
        """Evaluate every coefficient at a rational parameter value."""
        return self._from_tidy({
            k: Scalar.of(value)
            for k, c in self.terms.items()
            if (value := c.evaluate(r0))
        })

    @staticmethod
    def _signed_sum(items) -> str:
        """Print (body, coeff) pairs as a signed sum; a None body prints the bare coeff."""
        out = ""
        for body, coeff in items:
            text = str(coeff)
            if len(coeff.coeffs) > 1:
                text = f"({text})"
            if body is None:
                piece = text
            elif coeff == ONE:
                piece = body
            else:
                piece = f"{text}*{body}"
            if not out:
                out = piece
            elif piece.startswith("-"):
                out += f" - {piece[1:]}"
            else:
                out += f" + {piece}"
        return out or "0"

    def __repr__(self):
        return f"{type(self).__name__}({str(self)!r})"


# The highest power of r a literal may name; parse_scalar allocates one slot per power.  A
# coefficient r^1000 on an act-L state costs 0.01 s on a 2-vCPU x86-64 host.
MAX_LITERAL_POWER = 1000
_TERM_RE = re.compile(r"(-?)(?:(\d+(?:/0*[1-9]\d*)?)\*?)?(r(?:\^(\d+))?)?$")


def parse_scalar(text: str) -> Scalar:
    """Parse textual polynomials such as "3/2*r^2 - 1", "2*r", "-7/3"."""
    squeezed = text.replace(" ", "")
    if not squeezed:
        raise ValueError("empty polynomial literal")
    tokens = [t for t in squeezed.replace("-", "+-").split("+") if t]
    if not tokens:
        raise ValueError(f"cannot parse polynomial literal {text!r}")
    coeffs: dict[int, Fraction] = {}
    for token in tokens:
        match = _TERM_RE.fullmatch(token)
        if not match or (match.group(2) is None and match.group(3) is None):
            raise ValueError(f"cannot parse polynomial literal {text!r}")
        sign = -1 if match.group(1) else 1
        coeff = Fraction(match.group(2)) if match.group(2) else Fraction(1)
        if match.group(3) is None:
            degree = 0
        elif match.group(4) is None:
            degree = 1
        else:
            degree = int(match.group(4))
            if degree > MAX_LITERAL_POWER:
                raise ValueError(f"power r^{degree} in {text!r} is above r^{MAX_LITERAL_POWER}")
        coeffs[degree] = coeffs.get(degree, Fraction(0)) + sign * coeff
    return Scalar(coeffs.get(degree, 0) for degree in range(max(coeffs) + 1))


def _poly_divmod(a: Scalar, b: Scalar):
    """Quotient and remainder of a by a nonzero b in Q[r].

    Every step divides in Fraction; Scalar's normal form turns each
    integral coefficient of the results back into an int.
    """
    rem = list(a)
    quot = [0] * max(len(a) - len(b) + 1, 0)
    lead = b[-1]
    for k in range(len(rem) - len(b), -1, -1):
        top = rem[k + len(b) - 1]
        if not top:
            continue
        factor = Fraction(top) / lead
        quot[k] = factor
        for t, c in enumerate(b):
            rem[k + t] -= factor * c
    return Scalar(quot), Scalar(rem)


def poly_exact_div(a: Scalar, b: Scalar) -> Scalar:
    """Divide a by b in Q[r], requiring a zero remainder."""
    a = Scalar.of(a)
    b = Scalar.of(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    quot, rem = _poly_divmod(a, b)
    if rem:
        raise ValueError(f"{a} is not divisible by {b} in Q[r]")
    return quot


def poly_gcd(a: Scalar, b: Scalar) -> Scalar:
    """Monic greatest common divisor in Q[r] (ZERO if both are zero)."""
    a = Scalar.of(a)
    b = Scalar.of(b)
    while b:
        a, b = b, _poly_divmod(a, b)[1]
    return a / a[-1] if a else ZERO


def fraction_free_rref(rows, ncols: int, exact_div):
    """Fraction-free Gauss-Jordan elimination over an integral domain.

    Bareiss's scheme (Math. Comp. 22 (1968) 565-578) carried through to
    reduced form: pivoting on column col updates every other row to
    (piv*x - c*y) / prev, where piv is the new pivot, c the row's entry in
    column col, y the pivot row's entry, and prev the previous pivot (1 at
    the start, where the division is exact too); a row with 0 in column col
    skips the c*y products.  Every entry stays a minor of the input, so
    exact_div(a, b) only ever divides exactly.  Returns (mat, pivots, sign):
    every pivot row k holds the same value D, the last pivot, in column
    pivots[k] and 0 in the other pivot columns; rows beyond len(pivots) are
    zero; sign is the parity of the row swaps, so a square matrix of full
    rank has determinant sign * D.
    """
    mat = [list(row) for row in rows]
    pivots = []
    sign = 1
    prev = 1
    for col in range(ncols):
        rank = len(pivots)
        pivot_row = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            mat[rank], mat[pivot_row] = mat[pivot_row], mat[rank]
            sign = -sign
        prow = mat[rank]
        piv = prow[col]
        for r, row in enumerate(mat):
            if r == rank:
                continue
            c = row[col]
            if c:
                row = [piv * x - c * y for x, y in zip(row, prow)]
            else:
                row = [piv * x for x in row]
            mat[r] = [exact_div(x, prev) if x else x for x in row]
        pivots.append(col)
        prev = piv
    return mat, pivots, sign
