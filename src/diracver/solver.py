"""The (n, r) solver: which dimensions admit r positive-energy plane waves.

For a monic degree-n energy polynomial with unknown coefficients
``c_0 .. c_{n-1}``, demanding that ``E_p = +sqrt(s)`` (``s = p.p + m^2``)
be a root of multiplicity r for every momentum splits each derivative
condition into an even and an odd part in ``E_p``, giving ``2r`` linear
equations in the c_k.  Each equation carries one energy dimension: c_k has
dimension n - k and s has dimension 2, so every coefficient and constant is
a single monomial in s.  The solver therefore writes the equations directly
with rational entries, in the unknowns ``y_k = c_k / s^((n-k)/2)``, and
exact Gauss-Jordan elimination over the rationals then either

* solves them for the y_k (:class:`ForcedCoefficientSolution`), or
* exhibits a nonzero monomial in s that the system forces to vanish
  identically (:class:`InfeasibilityCertificate`), an impossibility proof
  for that (n, r) pair.

Every result is a rational; the power of s that carries it is fixed by its
energy dimension, which must be even and nonnegative.  Every solution is
substituted into the un-eliminated equations in y before it is returned.
No matrix set enters: this module needs only ``algebra``, and
``dispersion.check_dispersion`` applies the same even/odd reduction to the
characteristic polynomial of a concrete set.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, perm
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


_ZERO = Fraction(0)


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


class InfeasibilityCertificate(_Validated, _InfeasibilityCertificateFields):
    """Proof that no matrix set of dimension n meets the multiplicity demand.

    The linear conditions force the nonzero monomial ``witness*s^power`` to
    vanish identically.
    """

    __slots__ = ()

    def __new__(
        cls, requirement: DegeneracyRequirement, witness: Fraction, power: int, narrative: str
    ) -> "InfeasibilityCertificate":
        if not witness:
            raise ValueError("certificate witness must be nonzero")
        return super().__new__(cls, requirement, witness, power, narrative)


SolveResult = Union[ForcedCoefficientSolution, InfeasibilityCertificate]


def solve_forced_coefficients(req: DegeneracyRequirement) -> SolveResult:
    """Solve the 2r multiplicity conditions for c_0..c_{n-1}, or certify failure.

    Term k of P^(j) is perm(k, j)*E^(k-j); at E = E_p = sqrt(s) it is
    perm(k, j)*s^((k-j)//2), in the part of the parity of k - j.  Every
    term of a condition has one energy dimension: c_k has dimension n - k
    and s has dimension 2.  Substituting c_k = s^((n-k)/2)*y_k and dividing
    each condition by s to half its dimension leaves a system in y with
    rational entries: row (j, parity q) has perm(k, j) at y_k for
    k = j+q, j+q+2, ... < n, the k = n term moves to the right-hand side
    with its sign flipped, and its dimension is n - j - q.  It has the zero
    pattern of the system in c, so Gauss-Jordan elimination over the
    rationals, pivots chosen lowest-index unknown first, takes the same
    pivots and reaches the same reduced form as elimination over the
    rational functions of s.  The result is returned in y.  A nonzero value
    of odd or negative dimension, or a solution that leaves a residual in
    the un-eliminated rows, raises ``RuntimeError``.
    """
    n = req.n
    origins, dims, system = _y_system(req)
    rows = list(system)  # elimination replaces whole rows and never edits one

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
            witness = Fraction(abs(row[n].numerator))
            power = _power_of_s(witness, dims[i])
            narrative = _contradiction_narrative(origins[i], witness, power)
            return InfeasibilityCertificate(req, witness, power, narrative)

    free = frozenset(range(n)) - pivot_row_of.keys()
    assignments: dict[int, Assignment] = {}
    for col in sorted(pivot_row_of):
        row = rows[pivot_row_of[col]]
        constant = row[n] / row[col]
        _power_of_s(constant, n - col)
        linear = tuple((j, -row[j] / row[col]) for j in sorted(free) if row[j])
        for j, q in linear:
            _power_of_s(q, j - col)
        assignments[col] = Assignment(constant, linear)

    solution = ForcedCoefficientSolution(req, assignments, free)
    residuals = _residuals(origins, system, solution)
    if residuals:
        raise RuntimeError(f"internal solver error: back-substitution residuals {residuals}")
    return solution


def _y_system(req: DegeneracyRequirement) -> tuple[list[str], list[int], list[list[Fraction]]]:
    """The 2r conditions in y: their origins, their energy dimensions, and rows of
    the coefficients of y_0..y_{n-1} followed by the right-hand side."""
    n = req.n
    origins: list[str] = []
    dims: list[int] = []
    rows: list[list[Fraction]] = []
    for j in range(req.r):
        for odd, parity in enumerate(("even", "odd")):
            row = [_ZERO] * (n + 1)
            for k in range(j + odd, n + 1, 2):
                row[k] = Fraction(perm(k, j))
            row[n] = -row[n]
            origins.append(f"the {parity} part of {_derivative_name(j)} at E = E_p")
            dims.append(n - j - odd)
            rows.append(row)
    return origins, dims, rows


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


def _residuals(origins: list[str], system: list[list[Fraction]], sol: ForcedCoefficientSolution) -> list[str]:
    """What is left of each un-eliminated row in y once the solution is
    substituted: the constant part and the part of each free y_j."""
    n = sol.requirement.n
    problems: list[str] = []
    for origin, row in zip(origins, system):
        const = -row[n]
        linear = {j: row[j] for j in sorted(sol.free)}
        for k, a in sol.assignments.items():
            if row[k]:
                const += row[k] * a.constant
                for j, q in a.linear:
                    linear[j] += row[k] * q
        if const:
            problems.append(f"{origin}: residual {const}")
        problems.extend(f"{origin}: residual ({x})*c{j}" for j, x in linear.items() if x)
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
