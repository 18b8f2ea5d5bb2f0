"""Anticommutation audits, beta canonicalization, and standard matrix sets.

For a four-dimensional Hermitian set the dispersion demand (two positive
energy plane waves for every momentum) is equivalent to the Clifford
relations

    alpha_i alpha_j + alpha_j alpha_i = 2 delta_ij,
    alpha_i beta + beta alpha_i = 0,
    beta^2 = 1,

and this module makes both directions of that equivalence executable:
``check_anticommutation`` computes every defect matrix exactly, while
``equivalence_audit`` runs it side by side with the dispersion check.
The structural consequences are audited too: zero traces, unit
determinants, the {+1, +1, -1, -1} spectrum of beta, and the vanishing
diagonal blocks of each alpha once beta is brought to diagonal form.

Canonicalization may emit a floating-point basis change (the eigenbasis
of beta can involve irrational normalizations such as 1/sqrt(2)); in that
case defects on the transformed set are verified to tolerance 1e-12 and
the result says so.  Every verdict that can stay exact stays exact.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

import numpy as np

from .algebra import ComplexRational, Scalar, as_scalar
from .dispersion import DispersionReport, check_dispersion
from .spectrum import matrix_to_array
from .symmat import (
    Matrix,
    MatrixSet,
    as_matrix,
    build_hamiltonian,
    char_poly,
    mat_add,
    mat_dagger,
    mat_identity,
    mat_is_zero,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_trace,
    mat_zero,
    trace_and_det,
)

__all__ = [
    "CATALOG_NAMES",
    "CliffordReport",
    "TraceDetReport",
    "StructureReport",
    "CanonicalizationResult",
    "EquivalenceVerdict",
    "CrossTermPair",
    "CrossTermReport",
    "ExactUnitary",
    "StructuralViolationError",
    "catalog",
    "pauli_set",
    "check_anticommutation",
    "check_trace_det",
    "beta_spectrum",
    "canonicalize_beta",
    "check_alpha_structure",
    "equivalence_audit",
    "cross_term_audit",
    "random_hermitian_set",
    "random_exact_unitary",
    "perturbed_set",
]

NUMERIC_TOLERANCE = 1e-12


class StructuralViolationError(ValueError):
    """The set violates a structural consequence of the dispersion demand."""


# ---------------------------------------------------------------------------
# standard representations
# ---------------------------------------------------------------------------

_I = ComplexRational(0, 1)

SIGMA1 = as_matrix([[0, 1], [1, 0]])
SIGMA2 = as_matrix([[0, -_I], [_I, 0]])
SIGMA3 = as_matrix([[1, 0], [0, -1]])
_ID2 = mat_identity(2)


def _kron2(a: Matrix, b: Matrix) -> Matrix:
    rows = []
    for i in range(2):
        for k in range(2):
            rows.append(tuple(a[i][j] * b[k][l] for j in range(2) for l in range(2)))
    return tuple(rows)


def _build_catalog() -> dict[str, MatrixSet]:
    dirac_pauli = MatrixSet(
        4,
        tuple(_kron2(SIGMA1, s) for s in (SIGMA1, SIGMA2, SIGMA3)),
        _kron2(SIGMA3, _ID2),
        label="dirac-pauli",
    )
    weyl_chiral = MatrixSet(
        4,
        tuple(_kron2(SIGMA3, s) for s in (SIGMA1, SIGMA2, SIGMA3)),
        _kron2(SIGMA1, _ID2),
        label="weyl-chiral",
    )
    # real alphas, imaginary antisymmetric beta: a real-equation basis
    majorana = MatrixSet(
        4,
        (_kron2(SIGMA1, _ID2), _kron2(SIGMA3, _ID2), _kron2(SIGMA2, SIGMA2)),
        _kron2(SIGMA2, SIGMA1),
        label="majorana",
    )
    return {s.label: s for s in (dirac_pauli, weyl_chiral, majorana)}


_CATALOG = _build_catalog()
CATALOG_NAMES = tuple(_CATALOG)


def catalog(name: str) -> MatrixSet:
    """A named exact matrix set: dirac-pauli, weyl-chiral, or majorana."""
    try:
        return _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown catalog name {name!r}; available: {', '.join(CATALOG_NAMES)}") from None


def pauli_set(label: str = "pauli-triple") -> MatrixSet:
    """The two-dimensional set (sigma1, sigma2, sigma3) with beta = 0."""
    return MatrixSet(2, (SIGMA1, SIGMA2, SIGMA3), mat_zero(2), label=label)


# ---------------------------------------------------------------------------
# anticommutation and trace/det audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CliffordReport:
    """Exact defect matrices for all pairwise anticommutators and squares."""

    pairwise: dict[tuple[str, str], Matrix]
    squares: dict[str, Matrix]
    passed: bool


def check_anticommutation(mset: MatrixSet, include_beta: bool = True) -> CliffordReport:
    """Compute {X_i, X_j} - 2 delta_ij defects exactly.

    With ``include_beta`` unset only the three alpha matrices are audited,
    which is the right mode for a bare Pauli triple.
    """
    items = [(name, m) for name, m in mset.matrices() if include_beta or name != "beta"]
    identity = mat_identity(mset.n)
    pairwise: dict[tuple[str, str], Matrix] = {}
    for a in range(len(items)):
        for b in range(a + 1, len(items)):
            (name_a, mat_a), (name_b, mat_b) = items[a], items[b]
            pairwise[(name_a, name_b)] = mat_add(mat_mul(mat_a, mat_b), mat_mul(mat_b, mat_a))
    squares = {
        name: mat_sub(mat_mul(m, m), identity) for name, m in items
    }
    passed = all(mat_is_zero(d) for d in pairwise.values()) and all(
        mat_is_zero(d) for d in squares.values()
    )
    return CliffordReport(pairwise, squares, passed)


@dataclass(frozen=True)
class TraceDetReport:
    """Traces and determinants of the four matrices, with the pass verdict."""

    values: dict[str, tuple[ComplexRational, ComplexRational]]
    passed: bool


def check_trace_det(mset: MatrixSet) -> TraceDetReport:
    """All four traces must vanish and all four determinants must equal one."""
    if mset.n != 4:
        raise ValueError("trace/determinant conditions apply to n = 4 sets")
    values = trace_and_det(mset)
    passed = all(tr.is_zero and det == 1 for tr, det in values.values())
    return TraceDetReport(values, passed)


def beta_spectrum(mset: MatrixSet) -> tuple[int, ...]:
    """Eigenvalue multiset of beta, assuming beta^2 = 1 (checked).

    With beta Hermitian and involutive the eigenvalues are +/-1 and the
    multiplicities follow from the trace.
    """
    beta = mset.beta
    n = mset.n
    if mat_mul(beta, beta) != mat_identity(n):
        raise StructuralViolationError("beta does not square to the identity")
    tr = mat_trace(beta)
    if not tr.is_real or tr.re.denominator != 1:
        raise StructuralViolationError(f"trace of an involutive beta must be an integer, got {tr}")
    plus = Fraction(n + tr.re, 2)
    if plus.denominator != 1 or not 0 <= plus <= n:
        raise StructuralViolationError(f"impossible beta trace {tr} for dimension {n}")
    k = int(plus)
    return (1,) * k + (-1,) * (n - k)


# ---------------------------------------------------------------------------
# beta canonicalization and alpha structure
# ---------------------------------------------------------------------------


def _inner(u: Sequence[ComplexRational], v: Sequence[ComplexRational]) -> ComplexRational:
    total = ComplexRational(0)
    for x, y in zip(u, v):
        total = total + x.conj() * y
    return total


def _gram_schmidt_columns(matrix: Matrix) -> list[tuple[ComplexRational, ...]]:
    """Orthogonal (not normalized) basis of the column space, exact and deterministic.

    Columns are taken in index order; dependent columns project to zero and
    are dropped, which doubles as the exact rank test.
    """
    n = len(matrix)
    basis: list[tuple[ComplexRational, ...]] = []
    for j in range(n):
        v = tuple(matrix[i][j] for i in range(n))
        for u in basis:
            coef = _inner(u, v) / _inner(u, u)
            v = tuple(x - coef * y for x, y in zip(v, u))
        if any(x for x in v):
            basis.append(v)
    return basis


_CANONICAL_BETA = as_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
_CANONICAL_BETA_ARRAY = matrix_to_array(_CANONICAL_BETA)
_CANONICAL_BETA_ARRAY.flags.writeable = False


def _exact_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    a, b = value.numerator, value.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


@dataclass(frozen=True)
class CanonicalizationResult:
    """A basis change bringing beta to diag(+1, +1, -1, -1).

    When the change of basis is exact, ``matrix_set`` holds the conjugated
    set and all later checks stay exact; otherwise only the floating-point
    mirrors are available and ``tolerance`` states the verification bound.
    """

    exact: bool
    matrix_set: MatrixSet | None
    transform_exact: Matrix | None
    transform: np.ndarray
    alphas: tuple[np.ndarray, np.ndarray, np.ndarray]
    beta: np.ndarray
    tolerance: float
    description: str


def canonicalize_beta(mset: MatrixSet) -> CanonicalizationResult:
    """Conjugate the set so beta becomes diag(+1, +1, -1, -1).

    Requires beta^2 = 1; eigenspace dimensions other than (2, 2) are a
    structural violation.  Projector columns are orthogonalized in index
    order, so the transform is reproducible.
    """
    if mset.n != 4:
        raise ValueError("canonicalization targets n = 4 sets")
    beta = mset.beta
    identity = mat_identity(4)
    if mat_mul(beta, beta) != identity:
        raise ValueError("beta^2 differs from the identity; no canonical diagonal form exists")

    half = Fraction(1, 2)
    proj_plus = mat_scale(mat_add(identity, beta), half)
    proj_minus = mat_scale(mat_sub(identity, beta), half)
    plus = _gram_schmidt_columns(proj_plus)
    minus = _gram_schmidt_columns(proj_minus)
    if (len(plus), len(minus)) != (2, 2):
        raise StructuralViolationError(
            f"beta eigenspace dimensions ({len(plus)}, {len(minus)}) differ from (2, 2)"
        )

    columns = plus + minus
    norms = [_inner(v, v).re for v in columns]
    roots = [_exact_sqrt(norm) for norm in norms]

    if all(root is not None for root in roots):
        unit_cols = [
            tuple(x / ComplexRational(root) for x in v) for v, root in zip(columns, roots)
        ]
        transform = tuple(tuple(unit_cols[j][i] for j in range(4)) for i in range(4))
        unitary = ExactUnitary(transform)
        new_set = unitary.conjugate_by_inverse(mset, label=f"{mset.label} [beta-canonical]")
        if new_set.beta != _CANONICAL_BETA:
            raise RuntimeError("internal error: exact canonicalization missed the target beta")
        description = (
            "identity (beta already canonical)"
            if transform == identity
            else "exact rational unitary"
        )
        return CanonicalizationResult(
            exact=True,
            matrix_set=new_set,
            transform_exact=transform,
            transform=matrix_to_array(transform),
            alphas=tuple(matrix_to_array(a) for a in new_set.alphas),
            beta=matrix_to_array(new_set.beta),
            tolerance=0.0,
            description=description,
        )

    cols_f = [np.array([complex(x) for x in v]) for v in columns]
    transform_f = np.column_stack([c / np.linalg.norm(c) for c in cols_f])
    *alphas, beta_array = mset._complex_stack
    beta_f = transform_f.conj().T @ beta_array @ transform_f
    defect = float(np.max(np.abs(beta_f - _CANONICAL_BETA_ARRAY)))
    if defect > NUMERIC_TOLERANCE:
        raise RuntimeError(f"numeric canonicalization defect {defect:.3e} exceeds tolerance")
    alphas_f = tuple(transform_f.conj().T @ a @ transform_f for a in alphas)
    return CanonicalizationResult(
        exact=False,
        matrix_set=None,
        transform_exact=None,
        transform=transform_f,
        alphas=alphas_f,
        beta=beta_f,
        tolerance=NUMERIC_TOLERANCE,
        description=f"unitary with irrational column norms; verified numerically (tolerance {NUMERIC_TOLERANCE:g})",
    )


@dataclass(frozen=True)
class StructureReport:
    """Block structure of the alphas in the beta-canonical basis."""

    beta_spectrum: tuple[int, ...]
    alpha_blocks: tuple[bool, bool, bool]
    norm_values: tuple[Fraction | float, ...]
    tolerance: float
    passed: bool


_BLOCK_INDICES = [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
_CROSS_INDICES = [(0, 2), (0, 3), (1, 2), (1, 3)]


def check_alpha_structure(target: "MatrixSet | CanonicalizationResult") -> StructureReport:
    """Verify vanishing diagonal 2x2 blocks and the off-diagonal norm value 2.

    Accepts either an exact set whose beta is already diag(+1, +1, -1, -1)
    or the output of :func:`canonicalize_beta` (checked to its tolerance).
    """
    if isinstance(target, CanonicalizationResult):
        if target.exact and target.matrix_set is not None:
            return check_alpha_structure(target.matrix_set)
        tol = target.tolerance
        blocks = []
        norms = []
        for a in target.alphas:
            blocks.append(all(abs(a[i, j]) <= tol for i, j in _BLOCK_INDICES))
            norms.append(float(sum(abs(a[i, j]) ** 2 for i, j in _CROSS_INDICES)))
        spectrum = tuple(int(round(target.beta[i, i].real)) for i in range(4))
        passed = all(blocks) and all(abs(v - 2.0) <= 10 * tol for v in norms) and spectrum == (1, 1, -1, -1)
        return StructureReport(spectrum, tuple(blocks), tuple(norms), tol, passed)

    mset = target
    if mset.n != 4:
        raise ValueError("alpha structure check applies to n = 4 sets")
    if mset.beta != _CANONICAL_BETA:
        raise ValueError("beta is not diag(+1, +1, -1, -1); canonicalize first")
    blocks = []
    norms = []
    for a in mset.alphas:
        blocks.append(all(a[i][j].is_zero for i, j in _BLOCK_INDICES))
        norms.append(sum((a[i][j].abs2() for i, j in _CROSS_INDICES), Fraction(0)))
    passed = all(blocks) and all(v == 2 for v in norms)
    return StructureReport((1, 1, -1, -1), tuple(blocks), tuple(norms), 0.0, passed)


# ---------------------------------------------------------------------------
# joint audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Side-by-side dispersion and anticommutation verdicts.

    ``consistent`` records that the two audits agree, which is the content
    of the derivation this package mechanizes; it should never be False.
    """

    dispersion: DispersionReport
    anticommutation: CliffordReport
    consistent: bool
    passed: bool


def equivalence_audit(mset: MatrixSet) -> EquivalenceVerdict:
    """Run the multiplicity-2 dispersion check and the Clifford check together."""
    if mset.n != 4:
        raise ValueError("equivalence audit applies to n = 4 sets")
    disp = check_dispersion(mset, 2)
    anti = check_anticommutation(mset)
    return EquivalenceVerdict(disp, anti, disp.passed == anti.passed, disp.passed and anti.passed)


@dataclass(frozen=True)
class CrossTermPair:
    """Cross-momentum coefficient of c_2 and its anticommutator expression."""

    pair: tuple[int, int]
    coefficient: ComplexRational
    anticommutator_diagonal: ComplexRational       # sum of all diagonal entries of {a_i, a_j}
    anticommutator_upper_diagonal: ComplexRational  # entries (1,1) + (2,2) only
    trace_product: ComplexRational
    identity_defect: ComplexRational


@dataclass(frozen=True)
class CrossTermReport:
    pairs: tuple[CrossTermPair, ...]
    passed: bool

    @property
    def residuals(self) -> tuple[ComplexRational, ...]:
        return tuple(p.coefficient for p in self.pairs)


_CROSS_MONOMIALS = {(1, 2): (1, 1, 0, 0), (1, 3): (1, 0, 1, 0), (2, 3): (0, 1, 1, 0)}


def cross_term_audit(mset: MatrixSet) -> CrossTermReport:
    """Check the p_i p_j coefficients of c_2 against diagonal anticommutator sums.

    For any Hermitian set the p_i p_j coefficient equals
    Tr(a_i) Tr(a_j) - Tr({a_i, a_j})/2, so it vanishes whenever the
    anticommutation relations hold; the defect of that identity is reported
    and is zero for every input.
    """
    if mset.n != 4:
        raise ValueError("cross-term audit applies to n = 4 sets")
    cp = char_poly(build_hamiltonian(mset))
    c2 = cp.c(2)
    half = Fraction(1, 2)
    pairs = []
    for (i, j), mono in _CROSS_MONOMIALS.items():
        coefficient = c2.coefficient(mono)
        a_i, a_j = mset.alphas[i - 1], mset.alphas[j - 1]
        anti = mat_add(mat_mul(a_i, a_j), mat_mul(a_j, a_i))
        diag_sum = mat_trace(anti)
        upper = anti[0][0] + anti[1][1]
        trace_product = mat_trace(a_i) * mat_trace(a_j)
        predicted = trace_product - diag_sum * half
        pairs.append(
            CrossTermPair((i, j), coefficient, diag_sum, upper, trace_product, coefficient - predicted)
        )
    passed = all(p.coefficient.is_zero for p in pairs)
    return CrossTermReport(tuple(pairs), passed)


# ---------------------------------------------------------------------------
# exact unitaries and set sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactUnitary:
    """Unitary matrix with exact entries, validated at construction."""

    matrix: Matrix

    def __post_init__(self) -> None:
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("unitary must be square")
        if mat_mul(self.matrix, mat_dagger(self.matrix)) != mat_identity(n):
            raise ValueError("matrix is not exactly unitary")

    @property
    def n(self) -> int:
        return len(self.matrix)

    @classmethod
    def identity(cls, n: int) -> "ExactUnitary":
        return cls(mat_identity(n))

    @classmethod
    def diagonal(cls, phases: Iterable[Scalar]) -> "ExactUnitary":
        values = [as_scalar(p) for p in phases]
        n = len(values)
        zero = ComplexRational(0)
        return cls(tuple(tuple(values[i] if i == j else zero for j in range(n)) for i in range(n)))

    @classmethod
    def signed_permutation(cls, perm: Sequence[int], signs: Sequence[Scalar] | None = None) -> "ExactUnitary":
        n = len(perm)
        values = [as_scalar(s) for s in signs] if signs else [ComplexRational(1)] * n
        zero = ComplexRational(0)
        rows = [[zero] * n for _ in range(n)]
        for col, row in enumerate(perm):
            rows[row][col] = values[col]
        return cls(tuple(tuple(r) for r in rows))

    @classmethod
    def rotation(cls, n: int, i: int, j: int, cos_part: Scalar, sin_part: Scalar) -> "ExactUnitary":
        """Two-index rotation block [[c, s], [-conj(s), c]] with c^2 + |s|^2 = 1."""
        c = as_scalar(cos_part)
        s = as_scalar(sin_part)
        rows = [list(row) for row in mat_identity(n)]
        rows[i][i] = c
        rows[i][j] = s
        rows[j][i] = -s.conj()
        rows[j][j] = c
        return cls(tuple(tuple(r) for r in rows))

    def __matmul__(self, other: "ExactUnitary") -> "ExactUnitary":
        return ExactUnitary(mat_mul(self.matrix, other.matrix))

    def conjugate_set(self, mset: MatrixSet, label: str | None = None) -> MatrixSet:
        """Apply X -> U X U^dagger to every matrix of the set."""
        if self.n != mset.n:
            raise ValueError("dimension mismatch")
        dag = mat_dagger(self.matrix)

        def conj(m: Matrix) -> Matrix:
            return mat_mul(self.matrix, mat_mul(m, dag))

        return MatrixSet(
            mset.n,
            tuple(conj(a) for a in mset.alphas),
            conj(mset.beta),
            label=label if label is not None else f"{mset.label} (conjugated)",
        )

    def conjugate_by_inverse(self, mset: MatrixSet, label: str | None = None) -> MatrixSet:
        """Apply X -> U^dagger X U (the new-basis form when columns of U are the basis)."""
        return ExactUnitary(mat_dagger(self.matrix)).conjugate_set(mset, label=label)


_PYTHAGOREAN = (
    (Fraction(3, 5), Fraction(4, 5)),
    (Fraction(5, 13), Fraction(12, 13)),
    (Fraction(8, 17), Fraction(15, 17)),
)
_PHASES = (
    ComplexRational(1),
    ComplexRational(-1),
    ComplexRational(0, 1),
    ComplexRational(0, -1),
)


def random_exact_unitary(rng: random.Random, n: int = 4, steps: int = 3) -> ExactUnitary:
    """Compose random exact generators: phases, signed permutations, rotations."""
    out = ExactUnitary.identity(n)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            gen = ExactUnitary.diagonal([rng.choice(_PHASES) for _ in range(n)])
        elif kind == 1:
            perm = rng.sample(range(n), n)
            gen = ExactUnitary.signed_permutation(perm, [rng.choice(_PHASES) for _ in range(n)])
        else:
            i, j = sorted(rng.sample(range(n), 2))
            c, s = rng.choice(_PYTHAGOREAN)
            sin_part: Scalar = ComplexRational(0, s) if rng.random() < 0.5 else s
            gen = ExactUnitary.rotation(n, i, j, c, sin_part)
        out = gen @ out
    return out


def _random_hermitian_matrix(rng: random.Random, n: int) -> Matrix:
    def entry() -> ComplexRational:
        return ComplexRational(
            Fraction(rng.randint(-2, 2), rng.choice((1, 2))),
            Fraction(rng.randint(-2, 2), rng.choice((1, 2))),
        )

    raw = [[entry() for _ in range(n)] for _ in range(n)]
    half = Fraction(1, 2)
    return tuple(
        tuple((raw[i][j] + raw[j][i].conj()) * half for j in range(n)) for i in range(n)
    )


def random_hermitian_set(rng: random.Random, n: int = 4, label: str = "random") -> MatrixSet:
    """A generic Hermitian quadruple with small rational entries."""
    return MatrixSet(
        n,
        tuple(_random_hermitian_matrix(rng, n) for _ in range(3)),
        _random_hermitian_matrix(rng, n),
        label=label,
    )


def perturbed_set(
    rng: random.Random,
    base: MatrixSet,
    entries: int = 1,
    magnitude: Fraction = Fraction(1, 10),
    label: str | None = None,
) -> MatrixSet:
    """Apply Hermiticity-preserving entry perturbations to a copy of ``base``."""
    n = base.n
    matrices = [[list(row) for row in m] for m in (*base.alphas, base.beta)]
    for _ in range(entries):
        target = matrices[rng.randrange(4)]
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            target[i][i] = target[i][i] + magnitude * rng.choice((1, -1))
        else:
            delta = ComplexRational(0, magnitude) if rng.random() < 0.5 else ComplexRational(magnitude)
            delta = delta * rng.choice((1, -1))
            target[i][j] = target[i][j] + delta
            target[j][i] = target[j][i] + delta.conj()
    frozen = [tuple(tuple(row) for row in m) for m in matrices]
    return MatrixSet(
        n,
        (frozen[0], frozen[1], frozen[2]),
        frozen[3],
        label=label if label is not None else f"{base.label} (perturbed)",
    )
