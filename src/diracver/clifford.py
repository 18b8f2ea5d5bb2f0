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
diagonal blocks of each alpha relative to the eigenspaces of beta.  The
traces and determinants need no product of matrices: ``check_trace_det``
takes them from P(E) = det(E - h(p)), the polynomial the dispersion demand
constrains.  The coefficient of E^3 carries the traces, and the pure
p1^4, p2^4, p3^4 and m^4 terms of the constant coefficient carry the
determinants.

Every verdict here is exact; nothing in this module is a float.
``canonicalize_beta`` proves the (2, 2) eigenspaces of beta with an exact
orthogonal basis, unit-normalised when its column norms are rational
squares (the eigenbasis may otherwise need factors such as 1/sqrt(2)).
``check_alpha_structure`` needs no basis at all: it reads the blocks of
each alpha through the projectors (1 +- beta)/2, as traces of exact
products.

The three kernels run on Gaussian integers, like ``symmat``'s: each matrix
is cleared once to integers over the lcm of its denominators, and only
results are rebuilt as exact scalars.  ``check_anticommutation`` sums
AB + BA (or A^2 - 1) in integers over the upper triangle only, since these
are Hermitian for a Hermitian set, and fills the lower triangle by
conjugation.  The Gram-Schmidt step of ``canonicalize_beta`` is
fraction-free, and ``check_alpha_structure`` reads the blocks from the
integer M + M^dagger and the norms from integer traces.

``ExactUnitary`` uses the same idiom: each unitary is cleared once, at
construction, and keeps that form.  Validation is the integer Gram check
g g^dagger = d^2 I (``_gram_is_identity``, upper triangle only, which also
decides beta^2 = 1 for a Hermitian beta); products and conjugations
multiply the cleared forms and rebuild each result entry once.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Iterable, Sequence

from .algebra import ComplexRational, Scalar, as_scalar, render_fraction
from .dispersion import DispersionReport, check_dispersion
from .symmat import (
    CharPoly,
    Matrix,
    MatrixSet,
    _cleared,
    _exact_entries,
    _gi_mat_mul,
    _rebuilt,
    as_matrix,
    build_hamiltonian,  # unused here; perfbench patches it on this module
    char_poly,  # unused here; perfbench patches it on this module
    mat_identity,
    mat_is_zero,
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
    "random_hermitian_set",
    "random_exact_unitary",
    "perturbed_set",
]

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


def check_anticommutation(mset: MatrixSet) -> CliffordReport:
    """Compute {X_i, X_j} - 2 delta_ij defects exactly.

    Each matrix is cleared to Gaussian integers once; a defect
    {A, B} = AB + BA is summed over D_A*D_B, and a square A^2 - 1 over
    D_A^2, in integers.
    """
    items = [(name, *_cleared(m)) for name, m in mset.matrices()]
    pairwise: dict[tuple[str, str], Matrix] = {}
    for a, (name_a, ga, da) in enumerate(items):
        for name_b, gb, db in items[a + 1:]:
            pairwise[(name_a, name_b)] = _hermitian_sum(((ga, gb), (gb, ga)), da * db, 0)
    squares = {name: _hermitian_sum(((g, g),), d * d, d * d) for name, g, d in items}
    passed = all(mat_is_zero(d) for d in pairwise.values()) and all(
        mat_is_zero(d) for d in squares.values()
    )
    return CliffordReport(pairwise, squares, passed)


def _hermitian_sum(products, denom: int, shift: int) -> Matrix:
    """(sum of x*y over the Gaussian-integer ``products`` - shift*I) / denom.

    The sum must be Hermitian, as anticommutators and squares of Hermitian
    matrices are: only its upper triangle is computed, each entry is
    rebuilt once and its mirror is its conjugate.  Zero entries share one
    zero.
    """
    n = len(products[0][0])
    zero = ComplexRational(0)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            re = -shift if i == j else 0
            im = 0
            for x, y in products:
                for (xr, xi), row in zip(x[i], y):
                    yr, yi = row[j]
                    re += xr * yr - xi * yi
                    im += xr * yi + xi * yr
            if re or im:
                rows[i][j] = ComplexRational._from_ints(re, im, denom)
                if i != j:
                    rows[j][i] = rows[i][j].conj()
    return tuple(tuple(row) for row in rows)


@dataclass(frozen=True)
class TraceDetReport:
    """Traces and determinants of the four matrices, read off P(E)."""

    values: dict[str, tuple[ComplexRational, ComplexRational]]

    @property
    def traces_vanish(self) -> bool:
        return all(tr.is_zero for tr, _ in self.values.values())

    @property
    def dets_unit(self) -> bool:
        return all(det == 1 for _, det in self.values.values())

    @property
    def passed(self) -> bool:
        return self.traces_vanish and self.dets_unit


def check_trace_det(cp: CharPoly) -> TraceDetReport:
    """All four traces must vanish and all four determinants must equal one.

    ``cp`` is the characteristic polynomial of h(p) of an n = 4 set, from
    which ``trace_and_det`` reads every value.
    """
    if cp.n != 4:
        raise ValueError("trace/determinant conditions apply to n = 4 sets")
    return TraceDetReport(trace_and_det(cp))


def _gram_is_identity(g: list, d: int) -> bool:
    """Whether g g^dagger = d^2 I for a square matrix g of Gaussian integers.

    Entry (i, j) of g g^dagger is sum_k g_ik conj(g_jk).  The product is
    Hermitian for every g, so only the upper triangle is read, and the scan
    stops at the first defect.  For a Hermitian g this is the test g^2 = d^2 I.
    """
    d2 = d * d
    for i, row in enumerate(g):
        for j in range(i, len(g)):
            re = im = 0
            for (ar, ai), (br, bi) in zip(row, g[j]):
                re += ar * br + ai * bi
                im += ai * br - ar * bi
            if im or re != (d2 if i == j else 0):
                return False
    return True


def beta_spectrum(mset: MatrixSet) -> tuple[int, ...]:
    """Eigenvalue multiset of beta, assuming beta^2 = 1 (checked).

    With beta Hermitian and involutive the eigenvalues are +/-1 and the
    multiplicities follow from the trace.  As beta is Hermitian,
    beta^2 = beta beta^dagger, checked in integers by ``_gram_is_identity``.
    """
    beta = mset.beta
    n = mset.n
    if not _gram_is_identity(*_cleared(beta)):
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


def _gram_schmidt_columns(g: list) -> list[tuple[list[tuple[int, int]], int, int]]:
    """Orthogonal (not normalized) basis of the column space of a Gaussian-integer matrix.

    Exact, deterministic and fraction-free.  Each basis vector v is returned
    as (w, s, N): Gaussian integers w over the positive integer s, so
    v = w/s, and N = <w, w>.  Columns are taken in index order, and column w
    (over s) minus its projection onto a basis vector u = w_u/s_u is
    (N_u w - <w_u, w> w_u) over s N_u.  Dependent columns project to zero
    and are dropped, which doubles as the exact rank test.
    """
    n = len(g)
    basis: list[tuple[list[tuple[int, int]], int, int]] = []
    for j in range(n):
        w = [g[i][j] for i in range(n)]
        s = 1
        for u, _, norm in basis:
            # <u, w> = sum conj(u_i) w_i
            cr = ci = 0
            for (ur, ui), (wr, wi) in zip(u, w):
                cr += ur * wr + ui * wi
                ci += ur * wi - ui * wr
            if cr or ci:
                w = [
                    (norm * wr - cr * ur + ci * ui, norm * wi - cr * ui - ci * ur)
                    for (ur, ui), (wr, wi) in zip(u, w)
                ]
                s *= norm
        if any(re or im for re, im in w):
            basis.append((w, s, sum(re * re + im * im for re, im in w)))
    return basis


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
    """An exact orthogonal eigenbasis of beta: two +1 columns, then two -1 columns.

    ``matrix_set`` is the set whose beta was canonicalized, unchanged.
    ``exact`` records that the basis normalises over Q; then
    ``transform_exact`` is the unitary U with U^dagger beta U =
    diag(+1, +1, -1, -1).  Otherwise it is None and ``description`` gives
    the squared column norms of the orthogonal basis.
    """

    exact: bool
    matrix_set: MatrixSet
    transform_exact: Matrix | None
    description: str


def canonicalize_beta(mset: MatrixSet) -> CanonicalizationResult:
    """Prove that beta has eigenspaces of dimensions (2, 2) and build their basis.

    Requires beta^2 = 1; eigenspace dimensions other than (2, 2) are a
    structural violation.  Projector columns are orthogonalized in index
    order, so the basis is reproducible.
    """
    if mset.n != 4:
        raise ValueError("canonicalization targets n = 4 sets")
    g, d = _cleared(mset.beta)
    if not _gram_is_identity(g, d):
        raise ValueError("beta^2 differs from the identity; no canonical diagonal form exists")

    # 2d (1 +- beta)/2 = d*1 +- g: the projectors in Gaussian integers over 2d
    plus, minus = (
        _gram_schmidt_columns([
            [(sign * re + (d if i == j else 0), sign * im) for j, (re, im) in enumerate(row)]
            for i, row in enumerate(g)
        ])
        for sign in (1, -1)
    )
    if (len(plus), len(minus)) != (2, 2):
        raise StructuralViolationError(
            f"beta eigenspace dimensions ({len(plus)}, {len(minus)}) differ from (2, 2)"
        )

    # each column is w / (2 d s), of squared norm N / (2 d s)^2
    columns = [(w, 2 * d * s, Fraction(norm, (2 * d * s) ** 2)) for w, s, norm in plus + minus]
    roots = [_exact_sqrt(norm) for _, _, norm in columns]
    if any(root is None for root in roots):
        shown = ", ".join(render_fraction(norm) for _, _, norm in columns)
        description = f"orthogonal basis with squared column norms {shown} (not unit-normalisable over Q)"
        return CanonicalizationResult(False, mset, None, description)

    # w / (denom * p/q) = w q / (denom p)
    unit_cols = [
        [ComplexRational._from_ints(re * q, im * q, denom * p) for re, im in w]
        for (w, denom, _), (p, q) in zip(columns, (root.as_integer_ratio() for root in roots))
    ]
    transform = tuple(tuple(unit_cols[j][i] for j in range(4)) for i in range(4))
    canonical = transform == mat_identity(4)
    description = "identity (beta already canonical)" if canonical else "exact rational unitary"
    return CanonicalizationResult(True, mset, transform, description)


@dataclass(frozen=True)
class StructureReport:
    """Block structure of the alphas relative to the eigenspaces of beta."""

    beta_spectrum: tuple[int, ...]
    alpha_blocks: tuple[bool, bool, bool]
    norm_values: tuple[Fraction, ...]
    passed: bool


def check_alpha_structure(canonical: CanonicalizationResult) -> StructureReport:
    """Verify vanishing diagonal 2x2 blocks and the off-diagonal norm value 2.

    Takes the output of :func:`canonicalize_beta`.  No basis is needed: with
    beta Hermitian and beta^2 = 1, let P+- = (1 +- beta)/2 and
    M = beta alpha.  The diagonal blocks of alpha (P+ alpha P+ and
    P- alpha P-) vanish exactly when M + M^dagger = {beta, alpha} = 0, and
    the squared norm of the off-diagonal block is
    Tr(P+ alpha P- alpha) = (sum_jk |alpha_jk|^2 - Tr(M^2))/4.
    """
    mset = canonical.matrix_set
    gb, db = _cleared(mset.beta)
    blocks = []
    norms = []
    for alpha in mset.alphas:
        ga, da = _cleared(alpha)
        # M = beta alpha is gm over db*da
        flat = list(_gi_mat_mul(gb, ga))
        gm = [flat[i:i + 4] for i in range(0, 16, 4)]
        # (M + M^dagger)_ij = M_ij + conj(M_ji) vanishes when M_ij = -conj(M_ji)
        blocks.append(all(x == (-y[0], y[1]) for row, col in zip(gm, zip(*gm)) for x, y in zip(row, col)))
        # sum_jk |alpha_jk|^2 = Tr(alpha^2), as alpha is Hermitian
        norms.append(Fraction(_trace_re(ga) * db * db - _trace_re(gm), 4 * (da * db) ** 2))
    passed = all(blocks) and all(v == 2 for v in norms)
    return StructureReport((1, 1, -1, -1), tuple(blocks), tuple(norms), passed)


def _trace_re(g: list) -> int:
    """The real part of Tr(g^2) for a matrix g of Gaussian integers."""
    return sum(xr * yr - xi * yi for row, col in zip(g, zip(*g)) for (xr, xi), (yr, yi) in zip(row, col))


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


# ---------------------------------------------------------------------------
# exact unitaries and set sampling
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExactUnitary:
    """Unitary matrix with exact entries, validated at construction.

    Every construction, products and daggers included, clears the matrix
    once to Gaussian integers g over the lcm d of its denominators and
    checks g g^dagger = d^2 I in integers.  The cleared form is kept on the
    instance; it is not a dataclass field, so equality, hash and repr
    ignore it.  Products and conjugations multiply cleared forms and
    rebuild each entry of the result once.  int and Fraction entries are
    coerced by ``as_scalar``, as in ``MatrixSet``.
    """

    matrix: Matrix

    def __post_init__(self) -> None:
        n = len(self.matrix)
        if not n or any(len(row) != n for row in self.matrix):
            raise ValueError("unitary must be square and nonempty")
        object.__setattr__(self, "matrix", _exact_entries(self.matrix))
        g, d = _cleared(self.matrix)
        if not _gram_is_identity(g, d):
            raise ValueError("matrix is not exactly unitary")
        object.__setattr__(self, "_gi", (g, d))

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
        if self.n != other.n:
            raise ValueError("dimension mismatch")
        (ga, da), (gb, db) = self._gi, other._gi
        return ExactUnitary(_rebuilt(_gi_mat_mul(ga, gb), da * db, self.n))

    def conjugate_set(self, mset: MatrixSet, label: str | None = None) -> MatrixSet:
        """Apply X -> U X U^dagger to every matrix of the set.

        With U = g/d and X = x/d_x in Gaussian integers, U X U^dagger is
        g (x g^dagger) over d^2 d_x.  Every entry is computed, not only the
        upper triangle, so the Hermiticity check of the new set is real.
        """
        if self.n != mset.n:
            raise ValueError("dimension mismatch")
        n = self.n
        g, d = self._gi
        g_dag = [[(re, -im) for re, im in col] for col in zip(*g)]

        def conj(m: Matrix) -> Matrix:
            x, dx = _cleared(m)
            flat = list(_gi_mat_mul(x, g_dag))
            xg_dag = [flat[i:i + n] for i in range(0, n * n, n)]
            return _rebuilt(_gi_mat_mul(g, xg_dag), d * d * dx, n)

        return MatrixSet(
            mset.n,
            tuple(conj(a) for a in mset.alphas),
            conj(mset.beta),
            label=label if label is not None else f"{mset.label} (conjugated)",
        )


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


def _coin(rng: random.Random) -> bool:
    """A fair coin flip, drawn as rng.random() < 1/2 so that seeded samples keep their values."""
    return rng.random() < Fraction(1, 2)


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
            sin_part: Scalar = ComplexRational(0, s) if _coin(rng) else s
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
            delta = ComplexRational(0, magnitude) if _coin(rng) else ComplexRational(magnitude)
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
