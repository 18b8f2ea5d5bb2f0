"""Exact scalars and polynomials for momentum-space spin-1/2 hamiltonians.

Three layers, all immutable and exact:

* ``ComplexRational``: a Gaussian rational ``re + im*i`` stored as an
  integer pair over a common positive denominator, so each arithmetic
  operation needs a single gcd reduction.  Matrix entries are these.
* ``MultiPoly``: sparse polynomial in the four real variables
  ``(p1, p2, p3, m)`` with rational coefficients, stored as nonzero
  integers over one positive denominator that shares no factor with all of
  them.  That form is canonical, so polynomial equality is a structural
  comparison.
* ``EPoly``: polynomial in the energy variable ``E`` whose coefficients
  are ``MultiPoly`` values.

Every polynomial here is real: P(E) = det(E - h(p)) of a Hermitian h(p)
has real coefficients, and so have its derivatives and the residuals read
off it.  ``MultiPoly`` and ``EPoly`` are canonical containers with a
trusted ``_make``, not a polynomial ring.  The kernels in ``symmat`` and
``reduce_at_dispersion`` compute in integers and hand over their results
through ``MultiPoly._make`` as a term map of integers and its denominator;
no per-term scalar is built.  The containers add value semantics, a
validating constructor for outside input, the formal derivative in E and
``MultiPoly.__mul__``, which no kernel calls and the benchmark traces by
name.

``reduce_at_dispersion`` computes the remainder of an ``EPoly`` modulo
``E^2 - (p1^2 + p2^2 + p3^2 + m^2)`` and returns it split as
``Q = A + E*B``.  The positive root of ``p.p + m^2`` is not a polynomial
in ``(p1, p2, p3, m)``, so demanding ``Q = 0`` at that energy *for all
momenta* is equivalent to ``A == 0`` and ``B == 0``.  Every dispersion
check in this package bottoms out in that split.

The reduction runs on integers: it brings the coefficients of the
``EPoly`` to one denominator D, the lcm of their denominators, folds each
``E^k`` (k >= 2) into ``s*E^(k-2)`` as integer sums, and hands A and B
over D.  That is exact because reduction modulo a monic divisor with
integer coefficients is Z-linear: the remainder of D*q is D times the
remainder of q.

Text rendering follows the grammar documented in README.md: terms in
descending graded-lexicographic order, variable order ``(p1, p2, p3, m)``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterator, Mapping, NamedTuple, Sequence, Union

__all__ = [
    "ComplexRational",
    "MultiPoly",
    "EPoly",
    "ReducedPair",
    "VARIABLES",
    "Monomial",
    "Scalar",
    "as_scalar",
    "reduce_at_dispersion",
    "render_fraction",
    "render_scalar",
    "render_multipoly",
    "render_epoly",
]

VARIABLES = ("p1", "p2", "p3", "m")

Monomial = tuple[int, int, int, int]
Scalar = Union[int, Fraction, "ComplexRational"]


class _Validated:
    """First base of a record whose ``__new__`` checks its ``NamedTuple`` fields.

    namedtuple's own ``_make``, which ``_replace`` calls, would build the
    tuple directly and skip the checks; this one goes through ``__new__``.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class ComplexRational:
    """Exact Gaussian rational ``re + im*i``.

    Stored as integers ``(a, b, d)`` with value ``(a + b*i)/d``, where
    ``d > 0`` and ``gcd(a, b, d) == 1``.  ``re`` and ``im`` are ints or
    Fractions; anything else, a float or a string too, raises ``TypeError``.
    Instances are immutable and hashable; conjugation is an involution.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"cannot interpret {part!r} as an exact scalar")
        re = Fraction(re)
        im = Fraction(im)
        d = re.denominator * im.denominator // gcd(re.denominator, im.denominator)
        self._init_ints(
            re.numerator * (d // re.denominator),
            im.numerator * (d // im.denominator),
            d,
        )

    def _init_ints(self, a: int, b: int, d: int) -> None:
        g = gcd(a, b, d)
        if g > 1:
            a //= g
            b //= g
            d //= g
        self._a = a
        self._b = b
        self._d = d

    @classmethod
    def _from_ints(cls, a: int, b: int, d: int) -> "ComplexRational":
        self = object.__new__(cls)
        self._init_ints(a, b, d)
        return self

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @property
    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    @property
    def is_real(self) -> bool:
        return self._b == 0

    def conj(self) -> "ComplexRational":
        # (a, -b, d) is as reduced as (a, b, d): no gcd to take
        out = object.__new__(ComplexRational)
        out._a, out._b, out._d = self._a, -self._b, self._d
        return out

    def __add__(self, other: Scalar) -> "ComplexRational":
        o = _as_cr(other)
        if o is None:
            return NotImplemented
        return ComplexRational._from_ints(
            self._a * o._d + o._a * self._d,
            self._b * o._d + o._b * self._d,
            self._d * o._d,
        )

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> "ComplexRational":
        o = _as_cr(other)
        if o is None:
            return NotImplemented
        return ComplexRational._from_ints(
            self._a * o._d - o._a * self._d,
            self._b * o._d - o._b * self._d,
            self._d * o._d,
        )

    def __rsub__(self, other: Scalar) -> "ComplexRational":
        o = _as_cr(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: Scalar) -> "ComplexRational":
        o = _as_cr(other)
        if o is None:
            return NotImplemented
        return ComplexRational._from_ints(
            self._a * o._a - self._b * o._b,
            self._a * o._b + self._b * o._a,
            self._d * o._d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "ComplexRational":
        o = _as_cr(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero scalar")
        return ComplexRational._from_ints(
            (self._a * o._a + self._b * o._b) * o._d,
            (self._b * o._a - self._a * o._b) * o._d,
            self._d * (o._a * o._a + o._b * o._b),
        )

    def __rtruediv__(self, other: Scalar) -> "ComplexRational":
        o = _as_cr(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self) -> "ComplexRational":
        return ComplexRational._from_ints(-self._a, -self._b, self._d)

    def __pow__(self, power: int) -> "ComplexRational":
        if power < 0:
            raise ValueError("negative powers are not supported")
        out = _CR_ONE
        base = self
        k = power
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        o = _as_cr(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        return render_scalar(self)

    def __repr__(self) -> str:
        return f"ComplexRational({self.re}, {self.im})"


def _as_cr(value: object) -> ComplexRational | None:
    if isinstance(value, ComplexRational):
        return value
    if isinstance(value, (int, Fraction)):
        return ComplexRational(value)
    return None


def as_scalar(value: Scalar) -> ComplexRational:
    """Coerce an int, Fraction, or ComplexRational into a ComplexRational."""
    cr = _as_cr(value)
    if cr is None:
        raise TypeError(f"cannot interpret {value!r} as an exact scalar")
    return cr


_CR_ZERO = ComplexRational(0)
_CR_ONE = ComplexRational(1)


def _grlex_key(mono: Monomial) -> tuple[int, Monomial]:
    return (mono[0] + mono[1] + mono[2] + mono[3], mono)


class MultiPoly:
    """Sparse exact polynomial in ``(p1, p2, p3, m)`` with rational coefficients.

    ``_terms`` maps exponent 4-tuples to nonzero ints and ``_d > 0`` is their
    common denominator: the coefficient of a monomial is its value over
    ``_d``.  The gcd of ``_d`` and every value is 1, so the form is canonical;
    the zero polynomial has an empty term map and ``_d == 1``.
    """

    __slots__ = ("_terms", "_d")

    def __init__(self, terms: Mapping[Sequence[int], int | Fraction] | None = None):
        data: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                key = tuple(mono)
                if len(key) != 4 or any((not isinstance(e, int)) or e < 0 for e in key):
                    raise ValueError(f"bad monomial {mono!r}: need 4 nonnegative ints")
                if not isinstance(coeff, (int, Fraction)):
                    raise TypeError(f"cannot interpret {coeff!r} as a rational coefficient")
                if coeff:
                    data[key] = Fraction(coeff)
        # canonical as it stands: each prime power of d is the full power of
        # that prime in the (reduced) denominator of some coefficient
        d = lcm(*(c.denominator for c in data.values()))
        self._terms = {mono: c.numerator * (d // c.denominator) for mono, c in data.items()}
        self._d = d

    @classmethod
    def _make(cls, terms: dict[Monomial, int], d: int = 1) -> "MultiPoly":
        """Trusted path: ``terms`` maps monomials to nonzero ints over the denominator ``d > 0``."""
        g = gcd(d, *terms.values())
        if g > 1:
            terms = {mono: v // g for mono, v in terms.items()}
            d //= g
        self = object.__new__(cls)
        self._terms = terms
        self._d = d
        return self

    @classmethod
    def constant(cls, value: int | Fraction) -> "MultiPoly":
        return cls({(0, 0, 0, 0): value})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, mono: Sequence[int]) -> Fraction:
        return Fraction(self._terms.get(tuple(mono), 0), self._d)

    def terms(self) -> Iterator[tuple[Monomial, Fraction]]:
        """Terms in descending graded-lexicographic order."""
        d = self._d
        ordered = sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)
        return iter([(mono, Fraction(v, d)) for mono, v in ordered])

    def num_terms(self) -> int:
        return len(self._terms)

    def __mul__(self, other: "MultiPoly | int | Fraction") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = MultiPoly.constant(other)
        out: dict[Monomial, int] = {}
        get = out.get
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                out[mono] = get(mono, 0) + c1 * c2
        return MultiPoly._make({mono: v for mono, v in out.items() if v}, self._d * other._d)

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._d == other._d and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self._d, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        return render_multipoly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({render_multipoly(self)!r})"


class EPoly:
    """Polynomial in the energy variable E with MultiPoly coefficients.

    ``coeffs[k]`` is the coefficient of ``E^k``; the leading stored
    coefficient is nonzero and the zero polynomial stores nothing.  int and
    Fraction coefficients are coerced by ``MultiPoly.constant``; other
    scalars raise its ``TypeError``.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[MultiPoly | int | Fraction]):
        polys = [c if isinstance(c, MultiPoly) else MultiPoly.constant(c) for c in coeffs]
        while polys and polys[-1].is_zero:
            polys.pop()
        self._coeffs = tuple(polys)

    @property
    def coeffs(self) -> tuple[MultiPoly, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree in E; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def coeff(self, k: int) -> MultiPoly:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return MultiPoly._make({})

    def derivative(self) -> "EPoly":
        """Formal derivative with respect to E; k*c multiplies c's integers by k over c's denominator."""
        return EPoly(
            [
                MultiPoly._make({mono: v * k for mono, v in poly._terms.items()}, poly._d)
                for k, poly in enumerate(self._coeffs[1:], 1)
            ]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __str__(self) -> str:
        return render_epoly(self)

    def __repr__(self) -> str:
        return f"EPoly({render_epoly(self)!r})"


class ReducedPair(NamedTuple):
    """Remainder of an energy polynomial modulo the dispersion relation.

    The reduced value at the positive energy is ``even_part + E_p * odd_part``;
    both parts are polynomials in (p1, p2, p3, m) only.
    """

    even_part: MultiPoly
    odd_part: MultiPoly


def reduce_at_dispersion(q: EPoly) -> ReducedPair:
    """Remainder of q modulo E^2 - s, split as A + E*B, in integers.

    s is the squared energy p1^2 + p2^2 + p3^2 + m^2.  The coefficients of
    q are brought once to integers over D, the lcm of their denominators.
    Each term t*E^k with k >= 2 is then folded into t*s*E^(k-2), from the
    top power down, which adds t at each of the four monomial shifts of s:
    p1^2, p2^2, p3^2 and m^2.  A and B are handed over as integers over D.
    This is exact because the divisor is monic with integer coefficients,
    so the remainder of D*q is D times the remainder of q, and its
    coefficients are integers.
    """
    coeffs = q.coeffs
    denom = lcm(*(poly._d for poly in coeffs))
    rem = [{mono: v * (denom // poly._d) for mono, v in poly._terms.items()} for poly in coeffs]
    for k in range(len(rem) - 1, 1, -1):
        low = rem[k - 2]
        get = low.get
        for (e1, e2, e3, e4), v in rem[k].items():
            for mono in ((e1 + 2, e2, e3, e4), (e1, e2 + 2, e3, e4), (e1, e2, e3 + 2, e4), (e1, e2, e3, e4 + 2)):
                low[mono] = get(mono, 0) + v
    even, odd = (MultiPoly._make({mono: v for mono, v in part.items() if v}, denom) for part in (rem + [{}, {}])[:2])
    return ReducedPair(even, odd)


# ---------------------------------------------------------------------------
# rendering (grammar documented in README.md)
# ---------------------------------------------------------------------------


def render_fraction(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def render_scalar(z: ComplexRational) -> str:
    re, im = z.re, z.im
    if im == 0:
        return render_fraction(re)
    if re == 0:
        if im == 1:
            return "i"
        if im == -1:
            return "-i"
        return f"{render_fraction(im)}*i"
    sign = "+" if im > 0 else "-"
    return f"{render_fraction(re)}{sign}{render_fraction(abs(im))}*i"


def _power(name: str, e: int) -> list[str]:
    """The factor list of name^e: empty for e = 0."""
    return [] if e == 0 else [name if e == 1 else f"{name}^{e}"]


def _derivative_name(j: int) -> str:
    """P with j primes: the name of the j-th derivative of P(E) in E."""
    return "P" + "'" * j


def _monomial_factors(mono: Monomial) -> list[str]:
    return [factor for name, e in zip(VARIABLES, mono) for factor in _power(name, e)]


def _term_sign_body(coeff: Fraction, factors: list[str]) -> tuple[bool, str]:
    """Render coeff times the factors as (is_negative, body), the sign removed."""
    mag = abs(coeff)
    if factors and mag == 1:
        return coeff < 0, "*".join(factors)
    return coeff < 0, "*".join([render_fraction(mag)] + factors)


def _join_terms(terms: list[tuple[bool, str]]) -> str:
    if not terms:
        return "0"
    negative, body = terms[0]
    out = f"-{body}" if negative else body
    for negative, body in terms[1:]:
        out += f" - {body}" if negative else f" + {body}"
    return out


def _times_factors(terms: list[tuple[Fraction, list[str]]], factors: list[str]) -> list[tuple[bool, str]]:
    """Signed terms of (sum of coeff*term_factors) times factors.

    A single term absorbs the factors; a longer sum is parenthesized.  With
    no factors these are just the signed terms.
    """
    if len(terms) <= 1 or not factors:
        return [_term_sign_body(coeff, term + factors) for coeff, term in terms]
    sum_body = _join_terms([_term_sign_body(coeff, term) for coeff, term in terms])
    return [(False, "*".join([f"({sum_body})"] + factors))]


def render_multipoly(p: MultiPoly) -> str:
    return _join_terms([_term_sign_body(coeff, _monomial_factors(mono)) for mono, coeff in p.terms()])


def render_epoly(q: EPoly) -> str:
    rendered: list[tuple[bool, str]] = []
    for k in range(q.degree, -1, -1):
        terms = [(coeff, _monomial_factors(mono)) for mono, coeff in q.coeff(k).terms()]
        rendered.extend(_times_factors(terms, _power("E", k)))
    return _join_terms(rendered)
