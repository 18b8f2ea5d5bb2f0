"""The (n, r) solver: which dimensions admit r positive-energy plane waves.

For a monic degree-n energy polynomial with unknown coefficients
``c_0 .. c_{n-1}``, demanding that ``E_p = +sqrt(s)`` (``s = p.p + m^2``)
be a root of multiplicity r for every momentum splits each derivative
condition into an even and an odd part in ``E_p``, giving ``2r`` linear
equations in the c_k.  Each equation carries one energy dimension: c_k has
dimension n - k and s has dimension 2, so every coefficient and constant is
a single monomial in s.  The solver therefore writes the equations directly
with integer entries, in the unknowns ``y_k = c_k / s^((n-k)/2)``, and
fraction-free Gauss-Jordan elimination over the integers then either

* solves them for the y_k (:class:`ForcedCoefficientSolution`), or
* exhibits a nonzero monomial in s that the system forces to vanish
  identically (:class:`InfeasibilityCertificate`), an impossibility proof
  for that (n, r) pair, with the integer multipliers of the equations
  that combine to it.

Every result is a rational; the power of s that carries it is fixed by its
energy dimension, which must be even and nonnegative.  Both outcomes are
checked on the un-eliminated equations before they are returned: a solution
by substitution, a certificate by the Fredholm alternative.
No matrix set enters: this module needs only ``algebra``, and
``dispersion.check_dispersion`` applies the same even/odd reduction to the
characteristic polynomial of a concrete set.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, gcd, lcm, perm
from typing import NamedTuple, Union

from .algebra import _Validated, _derivative_name, _join_terms, _power, _term_sign_body

__all__ = [
    "DegeneracyRequirement",
    "Assignment",
    "ForcedCoefficientSolution",
    "InfeasibilityCertificate",
    "solve_forced_coefficients",
    "factorized_spectrum",
    "render_solution",
    "render_certificate",
]


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


class Assignment(NamedTuple):
    """Value of one forced coefficient in y: y_k = constant + sum of q*y_j over free j.

    In c this is c_k = constant*s^((n-k)/2) + sum of q*s^((j-k)/2)*c_j.
    """

    constant: Fraction
    linear: tuple[tuple[int, Fraction], ...] = ()


class ForcedCoefficientSolution(NamedTuple):
    """Forced characteristic-polynomial coefficients for a feasible (n, r)."""

    requirement: DegeneracyRequirement
    assignments: dict[int, Assignment]
    free: frozenset[int]

    @property
    def is_complete(self) -> bool:
        return not self.free

    def constants(self) -> dict[int, Fraction]:
        """The values y_k = c_k / s^((n-k)/2); only valid for complete solutions."""
        if not self.is_complete:
            raise ValueError("solution has free coefficients")
        return {k: a.constant for k, a in self.assignments.items()}


class _InfeasibilityCertificateFields(NamedTuple):
    requirement: DegeneracyRequirement
    witness: Fraction
    power: int
    narrative: str
    multipliers: tuple[tuple[str, int], ...]


class InfeasibilityCertificate(_Validated, _InfeasibilityCertificateFields):
    """Proof that no matrix set of dimension n meets the multiplicity demand.

    The linear conditions force the nonzero monomial ``witness*s^power`` to
    vanish identically: it is, up to sign, the sum of each named condition
    times its nonzero integer multiplier.
    """

    __slots__ = ()

    def __new__(
        cls, requirement: DegeneracyRequirement, witness: Fraction, power: int, narrative: str,
        multipliers: tuple[tuple[str, int], ...],
    ) -> "InfeasibilityCertificate":
        if not witness:
            raise ValueError("certificate witness must be nonzero")
        if not multipliers or not all(coefficient for _, coefficient in multipliers):
            raise ValueError("certificate multipliers must be nonempty and nonzero")
        return super().__new__(cls, requirement, witness, power, narrative, multipliers)


SolveResult = Union[ForcedCoefficientSolution, InfeasibilityCertificate]


def solve_forced_coefficients(req: DegeneracyRequirement) -> SolveResult:
    """Solve the 2r multiplicity conditions for c_0..c_{n-1}, or certify failure.

    Term k of P^(j) is perm(k, j)*E^(k-j); at E = E_p = sqrt(s) it is
    perm(k, j)*s^((k-j)//2), in the part of the parity of k - j.  Every
    term of a condition has one energy dimension: c_k has dimension n - k
    and s has dimension 2.  Substituting c_k = s^((n-k)/2)*y_k and dividing
    each condition by s to half its dimension leaves a system in y with
    integer entries: row (j, parity q) has perm(k, j) at y_k for
    k = j+q, j+q+2, ... < n, the k = n term moves to the right-hand side
    with its sign flipped, and its dimension is n - j - q.  It has the zero
    pattern of the system in c, so Gauss-Jordan elimination, pivots chosen
    lowest-index unknown first, takes the same pivots and reaches the same
    reduced form as elimination over the rational functions of s.  It is
    fraction-free (Bareiss): a row becomes pivot[col]*row - row[col]*pivot
    divided by its content, a multiple of the row over the rationals, and
    carries its multipliers over the un-eliminated rows as extra columns.
    The result is returned in y.  A nonzero value of odd or negative
    dimension, a certificate whose multipliers fail their check, or a
    solution that leaves a residual in the un-eliminated rows, raises
    ``RuntimeError``.
    """
    n = req.n
    origins, dims, system = _y_system(req)
    m = len(system)
    # row i = sum of multiplier k times un-eliminated row k; it starts as row i itself
    rows = [row + [0] * i + [1] + [0] * (m - 1 - i) for i, row in enumerate(system)]

    pivot_row_of: dict[int, int] = {}
    for col in range(n):
        pivot_idx = next((i for i, row in enumerate(rows) if row[col] and i not in pivot_row_of.values()), None)
        if pivot_idx is None:
            continue
        pivot_row_of[col] = pivot_idx
        pivot = rows[pivot_idx]
        p = pivot[col]
        for i, row in enumerate(rows):
            f = row[col]
            if f and i != pivot_idx:
                row = [p * a - f * b for a, b in zip(row, pivot)]
                g = gcd(*row)
                rows[i] = [x // g for x in row] if g > 1 else row

    for i, row in enumerate(rows):
        if row[n] and not any(row[:n]):
            # 0 = rhs: a nonzero monomial in s is forced to vanish
            power = _certified_power(system, dims, row)
            witness = Fraction(abs(row[n]))
            multipliers = tuple((origins[k], x) for k, x in enumerate(row[n + 1 :]) if x)
            narrative = _contradiction_narrative(origins[i], witness, power)
            return InfeasibilityCertificate(req, witness, power, narrative, multipliers)

    free = frozenset(range(n)) - pivot_row_of.keys()
    assignments: dict[int, Assignment] = {}
    for col, i in pivot_row_of.items():
        row = rows[i]
        constant = Fraction(row[n], row[col])
        _power_of_s(constant, n - col)
        linear = tuple((j, Fraction(-row[j], row[col])) for j in sorted(free) if row[j])
        for j, q in linear:
            _power_of_s(q, j - col)
        assignments[col] = Assignment(constant, linear)

    solution = ForcedCoefficientSolution(req, assignments, free)
    residuals = _residuals(origins, system, solution)
    if residuals:
        raise RuntimeError(f"internal solver error: back-substitution residuals {residuals}")
    return solution


def _y_system(req: DegeneracyRequirement) -> tuple[list[str], list[int], list[list[int]]]:
    """The 2r conditions in y: their origins, their energy dimensions, and rows of
    the integer coefficients of y_0..y_{n-1} followed by the right-hand side."""
    n = req.n
    origins: list[str] = []
    dims: list[int] = []
    rows: list[list[int]] = []
    for j in range(req.r):
        for odd, parity in enumerate(("even", "odd")):
            row = [0] * (n + 1)
            for k in range(j + odd, n + 1, 2):
                row[k] = perm(k, j)
            row[n] = -row[n]
            origins.append(f"the {parity} part of {_derivative_name(j)} at E = E_p")
            dims.append(n - j - odd)
            rows.append(row)
    return origins, dims, rows


def _certified_power(system: list[list[int]], dims: list[int], row: list[int]) -> int:
    """The power of s that a row reduced to 0 = rhs forces to vanish.

    Its multipliers, the columns after the right-hand side, must give the row
    from the un-eliminated rows (0 at every unknown, the same right-hand
    side) and combine rows of one energy dimension, which fixes the power.
    """
    n = len(system[0]) - 1
    used = [(k, x) for k, x in enumerate(row[n + 1 :]) if x]
    for col in range(n + 1):
        total = sum(x * system[k][col] for k, x in used)
        if total != row[col]:
            where = "the right-hand side" if col == n else f"y{col}"
            raise RuntimeError(
                f"internal solver error: the certificate's multipliers give {total} at {where}, not {row[col]}"
            )
    dimensions = sorted({dims[k] for k, _ in used})
    if len(dimensions) > 1:
        raise RuntimeError(f"internal solver error: the certificate combines energy dimensions {dimensions}")
    return _power_of_s(abs(row[n]), dimensions[0])


def _power_of_s(value: Fraction, dimension: int) -> int:
    """The power of s that carries value at this energy dimension: value*s^(dimension/2).

    A nonzero value needs an even, nonnegative dimension.
    """
    if value and (dimension % 2 or dimension < 0):
        raise RuntimeError(
            f"internal solver error: {value} has energy dimension {dimension}, "
            "which is not a power of s"
        )
    return dimension // 2


def _contradiction_narrative(origin: str, witness: Fraction, power: int) -> str:
    if power >= 1:
        consequence = "which forces E_p = 0 for all momenta"
    else:
        consequence = "and a nonzero constant cannot vanish"
    return f"{origin} reduces to {_render_monomial(witness, power)} = 0, {consequence}"


def _residuals(origins: list[str], system: list[list[int]], sol: ForcedCoefficientSolution) -> list[str]:
    """What is left of each un-eliminated row in y once the solution is
    substituted: the constant part and the part of each free y_j.  The sums
    run in integers, scaled by the lcm of the solution's denominators."""
    n = sol.requirement.n
    scale = lcm(*(x.denominator for a in sol.assignments.values() for x in (a.constant, *(q for _, q in a.linear))))
    scaled = [
        (k, a.constant.numerator * (scale // a.constant.denominator),
         [(j, q.numerator * (scale // q.denominator)) for j, q in a.linear])
        for k, a in sol.assignments.items()
    ]
    problems: list[str] = []
    for origin, row in zip(origins, system):
        const = -row[n] * scale
        linear = {j: row[j] * scale for j in sorted(sol.free)}
        for k, c, terms in scaled:
            if row[k]:
                const += row[k] * c
                for j, q in terms:
                    linear[j] += row[k] * q
        if const:
            problems.append(f"{origin}: residual {Fraction(const, scale)}")
        problems.extend(f"{origin}: residual ({Fraction(x, scale)})*c{j}" for j, x in linear.items() if x)
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
    y = {**sol.constants(), req.n: 1}

    # (E^2 - s)^r = sum_j C(r, j) (-s)^(r-j) E^(2j), with no odd powers of E:
    # the coefficient of E^(2j) is y_2j*s^(r-j)
    r = req.r
    for k in range(req.n + 1):
        want = 0 if k % 2 else (-1) ** (r - k // 2) * comb(r, k // 2)
        if y.get(k, 0) != want:
            raise ValueError(f"factorization mismatch at E^{k}: got y{k} = {y.get(k, 0)}, expected {want}")
    if req.r == 1:
        return "(E - E_p)*(E + E_p)"
    return f"(E - E_p)^{req.r}*(E + E_p)^{req.r}"


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _render_monomial(value: Fraction, power: int) -> str:
    return _join_terms([_term_sign_body(value, _power("s", power))])


def _s_term(value: Fraction, dimension: int, *factors: str) -> tuple[bool, str]:
    """value*s^(dimension/2) times the factors, as a signed term."""
    return _term_sign_body(value, _power("s", _power_of_s(value, dimension)) + list(factors))


def render_solution(sol: ForcedCoefficientSolution) -> list[str]:
    """One line per forced coefficient in c, highest index first, then any free ones."""
    n = sol.requirement.n
    lines = []
    for k in range(n - 1, -1, -1):
        if k in sol.assignments:
            a = sol.assignments[k]
            pieces = [_s_term(a.constant, n - k)] if a.constant else []
            pieces += [_s_term(q, j - k, f"c{j}") for j, q in a.linear]
            lines.append(f"c{k} = {_join_terms(pieces)}")
    if sol.free:
        lines.append("free: " + ", ".join(f"c{j}" for j in sorted(sol.free)))
    return lines


def render_certificate(cert: InfeasibilityCertificate) -> list[str]:
    req = cert.requirement
    return [
        f"infeasible: n = {req.n}, multiplicity {req.r}",
        f"forced: {_render_monomial(cert.witness, cert.power)} = 0 for all momenta",
        f"note: {cert.narrative}",
    ]
