"""Exact scalars and polynomials for momentum-space spin-1/2 hamiltonians.

Three layers, all immutable and exact:

* ``ComplexRational``: a Gaussian rational ``re + im*i`` stored as an
  integer pair over a common positive denominator, so each arithmetic
  operation needs a single gcd reduction.
* ``MultiPoly``: sparse polynomial in the four real variables
  ``(p1, p2, p3, m)`` with ``ComplexRational`` coefficients.  Zero
  coefficients are never stored, so polynomial equality is a structural
  comparison of canonical forms.
* ``EPoly``: polynomial in the energy variable ``E`` whose coefficients
  are ``MultiPoly`` values.

``reduce_at_dispersion`` computes the remainder of an ``EPoly`` modulo
``E^2 - (p1^2 + p2^2 + p3^2 + m^2)`` and returns it split as
``Q = A + E*B``.  The positive root of ``p.p + m^2`` is not a polynomial
in ``(p1, p2, p3, m)``, so demanding ``Q = 0`` at that energy *for all
momenta* is equivalent to ``A == 0`` and ``B == 0``.  Every dispersion
check in this package bottoms out in that split.

The reduction runs on Gaussian integers, in the idiom of the ``symmat``
and ``clifford`` kernels: it clears the coefficients of the ``EPoly`` once
over D, the lcm of their denominators, folds each ``E^k`` (k >= 2) into
``s*E^(k-2)`` as integer sums, and rebuilds only A and B over D.  That is
exact because reduction modulo a monic divisor with integer coefficients
is Z[i]-linear: the remainder of D*q is D times the remainder of q.

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
    "P1",
    "P2",
    "P3",
    "MASS",
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


class ComplexRational:
    """Exact Gaussian rational ``re + im*i``.

    Stored as integers ``(a, b, d)`` with value ``(a + b*i)/d``, where
    ``d > 0`` and ``gcd(a, b, d) == 1``.  Instances are immutable and
    hashable; conjugation is an involution and ``abs2`` is a nonnegative
    ``Fraction`` that vanishes only for zero.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: int | Fraction = 0, im: int | Fraction = 0):
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
        return ComplexRational._from_ints(self._a, -self._b, self._d)

    def abs2(self) -> Fraction:
        """Squared modulus, an exact nonnegative rational."""
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

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
    """Sparse exact polynomial in ``(p1, p2, p3, m)``.

    Terms map exponent 4-tuples to nonzero ``ComplexRational``
    coefficients; the zero polynomial has an empty term map.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Sequence[int], Scalar] | None = None):
        data: dict[Monomial, ComplexRational] = {}
        if terms:
            for mono, coeff in terms.items():
                key = tuple(mono)
                if len(key) != 4 or any((not isinstance(e, int)) or e < 0 for e in key):
                    raise ValueError(f"bad monomial {mono!r}: need 4 nonnegative ints")
                c = as_scalar(coeff)
                if c:
                    data[key] = c
        self._terms = data

    @classmethod
    def _make(cls, terms: dict[Monomial, ComplexRational]) -> "MultiPoly":
        # trusted path: terms already canonical (no zero coefficients)
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def zero(cls) -> "MultiPoly":
        return cls._make({})

    @classmethod
    def constant(cls, value: Scalar) -> "MultiPoly":
        c = as_scalar(value)
        return cls._make({(0, 0, 0, 0): c} if c else {})

    @classmethod
    def variable(cls, name: str) -> "MultiPoly":
        idx = VARIABLES.index(name)
        mono = tuple(1 if i == idx else 0 for i in range(4))
        return cls._make({mono: _CR_ONE})

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, mono: Sequence[int]) -> ComplexRational:
        return self._terms.get(tuple(mono), _CR_ZERO)

    def terms(self) -> Iterator[tuple[Monomial, ComplexRational]]:
        """Terms in descending graded-lexicographic order."""
        return iter(sorted(self._terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True))

    def num_terms(self) -> int:
        return len(self._terms)

    def conj(self) -> "MultiPoly":
        return MultiPoly._make({m: c.conj() for m, c in self._terms.items()})

    def is_real(self) -> bool:
        return all(c.is_real for c in self._terms.values())

    def at_zero_mass(self) -> "MultiPoly":
        """Drop every term with a positive power of m."""
        return MultiPoly._make({m: c for m, c in self._terms.items() if m[3] == 0})

    def __add__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            cr = _as_cr(other)
            if cr is None:
                return NotImplemented
            other = MultiPoly.constant(cr)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            prev = out.get(mono)
            acc = coeff if prev is None else prev + coeff
            if acc:
                out[mono] = acc
            elif prev is not None:
                del out[mono]
        return MultiPoly._make(out)

    __radd__ = __add__

    def __sub__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            cr = _as_cr(other)
            if cr is None:
                return NotImplemented
            other = MultiPoly.constant(cr)
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "MultiPoly":
        cr = _as_cr(other)
        if cr is None:
            return NotImplemented
        return MultiPoly.constant(cr) - self

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, MultiPoly):
            out: dict[Monomial, ComplexRational] = {}
            for m1, c1 in self._terms.items():
                for m2, c2 in other._terms.items():
                    mono = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                    c = c1 * c2
                    prev = out.get(mono)
                    acc = c if prev is None else prev + c
                    if acc:
                        out[mono] = acc
                    elif prev is not None:
                        del out[mono]
            return MultiPoly._make(out)
        cr = _as_cr(other)
        if cr is None:
            return NotImplemented
        if cr.is_zero:
            return MultiPoly.zero()
        return MultiPoly._make({m: c * cr for m, c in self._terms.items()})

    __rmul__ = __mul__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make({m: -c for m, c in self._terms.items()})

    def __pow__(self, power: int) -> "MultiPoly":
        if power < 0:
            raise ValueError("negative powers are not supported")
        out = MultiPoly.constant(1)
        for _ in range(power):
            out = out * self
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MultiPoly):
            return self._terms == other._terms
        cr = _as_cr(other)
        if cr is None:
            return NotImplemented
        return self == MultiPoly.constant(cr)

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __str__(self) -> str:
        return render_multipoly(self)

    def __repr__(self) -> str:
        return f"MultiPoly({render_multipoly(self)!r})"


P1 = MultiPoly.variable("p1")
P2 = MultiPoly.variable("p2")
P3 = MultiPoly.variable("p3")
MASS = MultiPoly.variable("m")


class EPoly:
    """Polynomial in the energy variable E with MultiPoly coefficients.

    ``coeffs[k]`` is the coefficient of ``E^k``; the leading stored
    coefficient is nonzero and the zero polynomial stores nothing.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Sequence[MultiPoly | Scalar]):
        polys = [c if isinstance(c, MultiPoly) else MultiPoly.constant(c) for c in coeffs]
        while polys and polys[-1].is_zero:
            polys.pop()
        self._coeffs = tuple(polys)

    @classmethod
    def zero(cls) -> "EPoly":
        return cls(())

    @property
    def coeffs(self) -> tuple[MultiPoly, ...]:
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree in E; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    def coeff(self, k: int) -> MultiPoly:
        if 0 <= k < len(self._coeffs):
            return self._coeffs[k]
        return MultiPoly.zero()

    def derivative(self) -> "EPoly":
        """Formal derivative with respect to E; each k*c is built from c's integers."""
        make = ComplexRational._from_ints
        return EPoly(
            [
                MultiPoly._make({mono: make(c._a * k, c._b * k, c._d) for mono, c in poly._terms.items()})
                for k, poly in enumerate(self._coeffs[1:], 1)
            ]
        )

    def __add__(self, other: "EPoly") -> "EPoly":
        if not isinstance(other, EPoly):
            return NotImplemented
        size = max(len(self._coeffs), len(other._coeffs))
        return EPoly([self.coeff(k) + other.coeff(k) for k in range(size)])

    def __sub__(self, other: "EPoly") -> "EPoly":
        if not isinstance(other, EPoly):
            return NotImplemented
        size = max(len(self._coeffs), len(other._coeffs))
        return EPoly([self.coeff(k) - other.coeff(k) for k in range(size)])

    def __mul__(self, other: "EPoly | MultiPoly | Scalar") -> "EPoly":
        if isinstance(other, EPoly):
            if self.is_zero or other.is_zero:
                return EPoly.zero()
            out = [MultiPoly.zero()] * (len(self._coeffs) + len(other._coeffs) - 1)
            for i, a in enumerate(self._coeffs):
                if a.is_zero:
                    continue
                for j, b in enumerate(other._coeffs):
                    if not b.is_zero:
                        out[i + j] = out[i + j] + a * b
            return EPoly(out)
        if isinstance(other, MultiPoly) or _as_cr(other) is not None:
            return EPoly([c * other for c in self._coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "EPoly":
        return EPoly([-c for c in self._coeffs])

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

    @property
    def is_zero(self) -> bool:
        return self.even_part.is_zero and self.odd_part.is_zero


def reduce_at_dispersion(q: EPoly, massless: bool = False) -> ReducedPair:
    """Remainder of q modulo E^2 - s, split as A + E*B, in Gaussian integers.

    s is the squared energy p1^2 + p2^2 + p3^2 + m^2, or p1^2 + p2^2 + p3^2
    when ``massless`` freezes m to zero.  The coefficients of q are cleared
    once to Gaussian integers over D, the lcm of their denominators.  Each
    term t*E^k with k >= 2 is then folded into t*s*E^(k-2), from the top
    power down, which adds t at each of the monomial shifts of s: p1^2,
    p2^2, p3^2 and, unless ``massless``, m^2.  Only A and B are rebuilt as
    exact scalars, over D.  This is exact because the divisor is monic with
    integer coefficients, so the remainder of D*q is D times the remainder
    of q, and its coefficients are Gaussian integers.
    """
    coeffs = q.coeffs
    denom = lcm(*(c._d for poly in coeffs for c in poly._terms.values()))
    rem = [
        {mono: (c._a * (denom // c._d), c._b * (denom // c._d)) for mono, c in poly._terms.items()}
        for poly in coeffs
    ]
    for k in range(len(rem) - 1, 1, -1):
        low = rem[k - 2]
        get = low.get
        for (e1, e2, e3, e4), (re, im) in rem[k].items():
            shifted = [(e1 + 2, e2, e3, e4), (e1, e2 + 2, e3, e4), (e1, e2, e3 + 2, e4)]
            if not massless:
                shifted.append((e1, e2, e3, e4 + 2))
            for mono in shifted:
                prev = get(mono)
                low[mono] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    make = ComplexRational._from_ints
    even, odd = (
        MultiPoly._make({mono: make(re, im, denom) for mono, (re, im) in part.items() if re or im})
        for part in (rem + [{}, {}])[:2]
    )
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


def _monomial_factors(mono: Monomial) -> list[str]:
    return [factor for name, e in zip(VARIABLES, mono) for factor in _power(name, e)]


def _term_sign_body(coeff: Scalar, factors: list[str]) -> tuple[bool, str]:
    """Render coeff times the factors as (is_negative, body), any extractable sign removed."""
    coeff = as_scalar(coeff)
    re, im = coeff.re, coeff.im
    if im == 0:
        negative = re < 0
        mag = abs(re)
        if factors and mag == 1:
            return negative, "*".join(factors)
        return negative, "*".join([render_fraction(mag)] + factors)
    if re == 0:
        negative = im < 0
        mag = abs(im)
        head = "i" if mag == 1 else f"{render_fraction(mag)}*i"
        return negative, "*".join([head] + factors)
    # mixed complex coefficient: keep both signs inside parentheses
    return False, "*".join([f"({render_scalar(coeff)})"] + factors)


def _join_terms(terms: list[tuple[bool, str]]) -> str:
    if not terms:
        return "0"
    negative, body = terms[0]
    out = f"-{body}" if negative else body
    for negative, body in terms[1:]:
        out += f" - {body}" if negative else f" + {body}"
    return out


def _times_factors(terms: list[tuple[Scalar, list[str]]], factors: list[str]) -> list[tuple[bool, str]]:
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
