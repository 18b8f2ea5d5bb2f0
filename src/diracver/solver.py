"""The (n, r) solver: which dimensions admit r positive-energy plane waves.

For a monic degree-n energy polynomial with unknown coefficients
``c_0 .. c_{n-1}``, demanding that ``E_p = +sqrt(s)`` (``s = p.p + m^2``)
be a root of multiplicity r for every momentum splits each derivative
condition into an even and an odd part in ``E_p``, giving ``2r`` linear
equations in the c_k.  Each equation carries one energy dimension: c_k has
dimension n - k and s has dimension 2, so every coefficient and constant is
a single monomial in s.  Scaling the unknowns and equations by those powers
of s turns the system into one with rational entries, and exact
Gauss-Jordan elimination over the rationals then either

* solves them, each forced coefficient getting its power of s back from
  its dimension (:class:`ForcedCoefficientSolution`), or
* exhibits a nonzero monomial in s that the system forces to vanish
  identically (:class:`InfeasibilityCertificate`), an impossibility proof
  for that (n, r) pair.

Every solution is substituted back into the conditions in exact Q[s]
arithmetic before it is returned.  No matrix set enters: this module needs
only ``algebra``, and ``dispersion.check_dispersion`` applies the same
even/odd reduction to the characteristic polynomial of a concrete set.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
from typing import NamedTuple, Sequence, Union

from .algebra import _Validated, _derivative_name, _join_terms, _power, _term_sign_body, _times_factors

__all__ = [
    "SPoly",
    "DegeneracyRequirement",
    "Assignment",
    "ForcedCoefficientSolution",
    "InfeasibilityCertificate",
    "solve_forced_coefficients",
    "factorized_spectrum",
    "render_spoly",
    "render_solution",
    "render_certificate",
]


_ZERO = Fraction(0)


def _exact(x: object) -> Fraction:
    """An int or Fraction as a Fraction; anything else raises ``TypeError``, as ``as_scalar`` does."""
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise TypeError(f"cannot interpret {x!r} as an exact scalar")


class SPoly:
    """Univariate polynomial in the formal symbol s, with Fraction coefficients.

    s stands for the squared positive energy p1^2 + p2^2 + p3^2 + m^2.
    Coefficients and scalar factors must be int or Fraction; a float, or an
    int added to an SPoly, raises ``TypeError``.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs: Sequence[int | Fraction] = ()):
        c = [_exact(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self._c = tuple(c)

    @classmethod
    def _make(cls, coeffs: list[Fraction]) -> "SPoly":
        # trusted path: entries already Fractions; trailing zeros are trimmed here
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self = object.__new__(cls)
        self._c = tuple(coeffs)
        return self

    @classmethod
    def zero(cls) -> "SPoly":
        return cls(())

    @classmethod
    def one(cls) -> "SPoly":
        return cls((1,))

    @classmethod
    def monomial(cls, power: int, coeff: int | Fraction = 1) -> "SPoly":
        return cls._make([_ZERO] * power + [_exact(coeff)])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self._c

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, k: int) -> Fraction:
        return self._c[k] if 0 <= k < len(self._c) else _ZERO

    def __add__(self, other: "SPoly") -> "SPoly":
        if not isinstance(other, SPoly):
            return NotImplemented
        a, b = self._c, other._c
        if len(a) < len(b):
            a, b = b, a
        return SPoly._make([x + y for x, y in zip(a, b)] + list(a[len(b):]))

    def __mul__(self, other: "SPoly | int | Fraction") -> "SPoly":
        if isinstance(other, (int, Fraction)):
            return SPoly._make([x * other for x in self._c])
        if not isinstance(other, SPoly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return SPoly.zero()
        out = [_ZERO] * (len(self._c) + len(other._c) - 1)
        for i, a in enumerate(self._c):
            if a:
                for j, b in enumerate(other._c):
                    out[i + j] += a * b
        return SPoly._make(out)

    __rmul__ = __mul__

    def __neg__(self) -> "SPoly":
        return SPoly._make([-x for x in self._c])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SPoly):
            return NotImplemented
        return self._c == other._c

    def __hash__(self) -> int:
        return hash(self._c)

    def __bool__(self) -> bool:
        return bool(self._c)

    def __str__(self) -> str:
        return render_spoly(self)

    def __repr__(self) -> str:
        return f"SPoly({render_spoly(self)!r})"


class _DegeneracyRequirementFields(NamedTuple):
    n: int
    r: int


class DegeneracyRequirement(_Validated, _DegeneracyRequirementFields):
    """Demand r linearly independent positive-energy plane waves in dimension n."""

    __slots__ = ()

    def __new__(cls, n: int, r: int) -> "DegeneracyRequirement":
        if not 1 <= n <= 4:
            raise ValueError(f"dimension {n} outside the supported range 1..4")
        if r < 1:
            raise ValueError("multiplicity must be at least 1")
        if r > n:
            raise ValueError(f"multiplicity {r} exceeds the polynomial degree {n}")
        return super().__new__(cls, n, r)


class _Condition(NamedTuple):
    """One linear condition: sum_k coeffs[k]*c_k + const = 0, with provenance."""

    coeffs: tuple[SPoly, ...]
    const: SPoly
    derivative_order: int
    parity: str  # "even" or "odd"

    @property
    def origin(self) -> str:
        return f"the {self.parity} part of {_derivative_name(self.derivative_order)} at E = E_p"


def multiplicity_conditions(req: DegeneracyRequirement) -> list[_Condition]:
    """The 2r even/odd conditions on c_0..c_{n-1} from P, P', ..., P^(r-1) at E_p.

    Term k of P^(j) is perm(k, j)*E^(k-j); at E = E_p = sqrt(s) it is
    perm(k, j)*s^((k-j)//2) in the part of the parity of k - j.
    """
    n, r = req.n, req.r
    zero = SPoly.zero()
    rows: list[_Condition] = []
    for j in range(r):
        for odd, parity in enumerate(("even", "odd")):
            terms = {k: SPoly.monomial((k - j) // 2, perm(k, j)) for k in range(j + odd, n + 1, 2)}
            coeffs = tuple(terms.get(k, zero) for k in range(n))
            rows.append(_Condition(coeffs, terms.get(n, zero), j, parity))
    return rows


class Assignment(NamedTuple):
    """Value of one forced coefficient: a polynomial in s plus terms in free c_j."""

    constant: SPoly
    linear: tuple[tuple[int, SPoly], ...] = ()

    def render(self) -> str:
        pieces = [_term_sign_body(coeff, factors) for coeff, factors in _spoly_terms(self.constant)]
        for j, poly in self.linear:
            pieces.extend(_times_factors(_spoly_terms(poly), [f"c{j}"]))
        return _join_terms(pieces)


class ForcedCoefficientSolution(NamedTuple):
    """Forced characteristic-polynomial coefficients for a feasible (n, r)."""

    requirement: DegeneracyRequirement
    assignments: dict[int, Assignment]
    free: frozenset[int]

    @property
    def is_complete(self) -> bool:
        return not self.free

    def constants(self) -> dict[int, SPoly]:
        """Coefficient values as polynomials in s; only valid for complete solutions."""
        if not self.is_complete:
            raise ValueError("solution has free coefficients")
        return {k: a.constant for k, a in self.assignments.items()}


class _InfeasibilityCertificateFields(NamedTuple):
    requirement: DegeneracyRequirement
    witness: SPoly
    narrative: str


class InfeasibilityCertificate(_Validated, _InfeasibilityCertificateFields):
    """Proof that no matrix set of dimension n meets the multiplicity demand.

    ``witness`` is a nonzero polynomial in s that the linear conditions force
    to vanish identically.
    """

    __slots__ = ()

    def __new__(
        cls, requirement: DegeneracyRequirement, witness: SPoly, narrative: str
    ) -> "InfeasibilityCertificate":
        if witness.is_zero:
            raise ValueError("certificate witness must be a nonzero polynomial")
        return super().__new__(cls, requirement, witness, narrative)


SolveResult = Union[ForcedCoefficientSolution, InfeasibilityCertificate]


def solve_forced_coefficients(req: DegeneracyRequirement) -> SolveResult:
    """Solve the 2r multiplicity conditions for c_0..c_{n-1}, or certify failure.

    Every term of a condition has one energy dimension: c_k has dimension
    n - k and s has dimension 2.  Substituting c_k = s^((n-k)/2)*y_k and
    dividing each condition by s to half its dimension leaves a system in
    y with rational entries and the zero pattern of the original, so
    Gauss-Jordan elimination over the rationals (s = 1), pivots chosen
    lowest-index unknown first, takes the same pivots and reaches the same
    reduced form as elimination over the rational functions of s.  Each
    result then gets its power of s back from its dimension.  A condition
    term that is not a single monomial of its dimension, or a nonzero
    result of odd or negative dimension, raises ``RuntimeError``.
    """
    n = req.n
    conditions = multiplicity_conditions(req)
    dims = [n - cond.derivative_order - (cond.parity == "odd") for cond in conditions]
    # row i: the coefficients of y_0..y_{n-1}, then the right-hand side
    rows = [
        [_monomial_value(x, d - (n - k)) for k, x in enumerate(cond.coeffs)]
        + [-_monomial_value(cond.const, d)]
        for cond, d in zip(conditions, dims)
    ]

    pivot_row_of: dict[int, int] = {}
    consumed = [False] * len(rows)
    for col in range(n):
        pivot_idx = next((i for i, row in enumerate(rows) if not consumed[i] and row[col]), None)
        if pivot_idx is None:
            continue
        consumed[pivot_idx] = True
        pivot_row_of[col] = pivot_idx
        pivot = rows[pivot_idx]
        for i, row in enumerate(rows):
            if i != pivot_idx and row[col]:
                factor = row[col] / pivot[col]
                rows[i] = [a - factor * b if b else a for a, b in zip(row, pivot)]

    for i, row in enumerate(rows):
        if not consumed[i] and row[n] and not any(row[:n]):
            # 0 = rhs: a nonzero monomial in s is forced to vanish
            witness = _with_power_of_s(Fraction(abs(row[n].numerator)), dims[i])
            return InfeasibilityCertificate(req, witness, _contradiction_narrative(conditions[i], witness))

    free = frozenset(range(n)) - pivot_row_of.keys()
    assignments: dict[int, Assignment] = {}
    for col in sorted(pivot_row_of):
        row = rows[pivot_row_of[col]]
        assignments[col] = Assignment(
            _with_power_of_s(row[n] / row[col], n - col),
            tuple((j, _with_power_of_s(-row[j] / row[col], j - col)) for j in sorted(free) if row[j]),
        )

    solution = ForcedCoefficientSolution(req, assignments, free)
    residuals = _residuals(conditions, solution)
    if residuals:
        raise RuntimeError(f"internal solver error: back-substitution residuals {residuals}")
    return solution


def _monomial_value(x: SPoly, dimension: int) -> Fraction:
    """The coefficient of x, which must be zero or a single monomial of the given dimension."""
    power = dimension // 2
    if x and (dimension % 2 or dimension < 0 or x.degree != power or any(x.coeffs[:power])):
        raise RuntimeError(
            f"internal solver error: {x} is not a monomial of energy dimension {dimension}"
        )
    return x.coeff(power)


def _with_power_of_s(value: Fraction, dimension: int) -> SPoly:
    """value*s^(dimension/2); a nonzero value needs an even, nonnegative dimension."""
    if not value:
        return SPoly.zero()
    if dimension % 2 or dimension < 0:
        raise RuntimeError(
            f"internal solver error: {value} has energy dimension {dimension}, "
            "which is not a power of s"
        )
    return SPoly.monomial(dimension // 2, value)


def _contradiction_narrative(cond: _Condition, witness: SPoly) -> str:
    if witness.degree >= 1:
        return (
            f"{cond.origin} reduces to {render_spoly(witness)} = 0, "
            "which forces E_p = 0 for all momenta"
        )
    return (
        f"{cond.origin} reduces to {render_spoly(witness)} = 0, "
        "and a nonzero constant cannot vanish"
    )


def _residuals(conditions: list[_Condition], sol: ForcedCoefficientSolution) -> list[str]:
    problems: list[str] = []
    for cond in conditions:
        const = cond.const
        linear: dict[int, SPoly] = {}
        for k, coeff in enumerate(cond.coeffs):
            if coeff.is_zero:
                continue
            if k in sol.assignments:
                a = sol.assignments[k]
                const = const + coeff * a.constant
                for j, lin in a.linear:
                    linear[j] = linear.get(j, SPoly.zero()) + coeff * lin
            else:
                linear[k] = linear.get(k, SPoly.zero()) + coeff
        if not const.is_zero:
            problems.append(f"{cond.origin}: residual {render_spoly(const)}")
        for j, poly in sorted(linear.items()):
            if not poly.is_zero:
                problems.append(f"{cond.origin}: residual ({render_spoly(poly)})*c{j}")
    return problems


def factorized_spectrum(sol: ForcedCoefficientSolution) -> str:
    """Verify that the forced coefficients give exactly (E^2 - s)^r and render it.

    Only complete solutions with n = 2r factor this way; anything else is
    rejected, as is any tampered solution that fails the exact identity.
    """
    req = sol.requirement
    if not sol.is_complete:
        raise ValueError("incomplete solution: free coefficients remain")
    if req.n != 2 * req.r:
        raise ValueError(f"(n={req.n}, r={req.r}) does not factor as a power of (E^2 - s)")
    constants = sol.constants()
    coeffs = [constants.get(k, SPoly.zero()) for k in range(req.n)] + [SPoly.one()]

    # (E^2 - s)^r = sum_j C(r, j) (-s)^(r-j) E^(2j), with no odd powers of E
    r = req.r
    target = [SPoly.zero()] * (2 * r + 1)
    for j in range(r + 1):
        target[2 * j] = SPoly.monomial(r - j, (-1) ** (r - j) * comb(r, j))

    for k, (got, want) in enumerate(zip(coeffs, target)):
        if got != want:
            raise ValueError(
                f"factorization mismatch at E^{k}: got {render_spoly(got)}, "
                f"expected {render_spoly(want)}"
            )
    if req.r == 1:
        return "(E - E_p)*(E + E_p)"
    return f"(E - E_p)^{req.r}*(E + E_p)^{req.r}"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _spoly_terms(p: SPoly) -> list[tuple[Fraction, list[str]]]:
    """(coefficient, factors) pairs of p, highest power of s first."""
    return [(p.coeff(k), _power("s", k)) for k in range(p.degree, -1, -1) if p.coeff(k)]


def render_spoly(p: SPoly) -> str:
    return _join_terms([_term_sign_body(coeff, factors) for coeff, factors in _spoly_terms(p)])


def render_solution(sol: ForcedCoefficientSolution) -> list[str]:
    """One line per forced coefficient, highest index first, then any free ones."""
    lines = []
    for k in range(sol.requirement.n - 1, -1, -1):
        if k in sol.assignments:
            lines.append(f"c{k} = {sol.assignments[k].render()}")
    if sol.free:
        lines.append("free: " + ", ".join(f"c{j}" for j in sorted(sol.free)))
    return lines


def render_certificate(cert: InfeasibilityCertificate) -> list[str]:
    req = cert.requirement
    return [
        f"infeasible: n = {req.n}, multiplicity {req.r}",
        f"forced: {render_spoly(cert.witness)} = 0 for all momenta",
        f"note: {cert.narrative}",
    ]
