"""Anticommutation audits, beta canonicalization, and the catalog of standard sets.

For a four-dimensional Hermitian set the dispersion demand (two positive
energy plane waves for every momentum) is equivalent to the Clifford
relations

    alpha_i alpha_j + alpha_j alpha_i = 2 delta_ij,
    alpha_i beta + beta alpha_i = 0,
    beta^2 = 1,

and this module makes both directions of that equivalence executable:
``check_anticommutation`` finds the first nonzero entry of every defect
exactly, and ``audit`` runs it once beside the dispersion check, raises if
the two verdicts disagree, and then audits the structural consequences: zero
traces, unit determinants, the {+1, +1, -1, -1} spectrum of beta, and the
vanishing diagonal blocks of each alpha relative to the eigenspaces of
beta.  The traces and determinants need no product of matrices:
``check_trace_det`` takes them from P(E) = det(E - h(p)), the polynomial
the dispersion demand constrains.  The coefficient of E^3 carries the
traces, and the pure p1^4, p2^4, p3^4 and m^4 terms of the constant
coefficient carry the determinants.

Every verdict here is exact; nothing in this module is a float.
``canonicalize_beta`` reads the eigenspace dimensions of beta off its
trace, once beta^2 = 1 is proved, and builds an exact orthogonal basis of
the (2, 2) eigenspaces, unit-normalised when its column norms are rational
squares (the eigenbasis may otherwise need factors such as 1/sqrt(2)).
``check_alpha_structure`` needs no basis at all: it reads the blocks of
each alpha through the projectors (1 +- beta)/2, as traces of exact
products.

The kernels run on Gaussian integers, like ``symmat``'s: each reads the
rows over one common denominator D that the ``MatrixSet`` keeps, and only
results are rebuilt as exact scalars.
``check_anticommutation`` sums each entry of AB + BA (or A^2 - 1) over D^2
in integers, up to the first nonzero entry of the upper triangle, row by
row, from entries of the squares A^2 that the relations share.  The
Gram-Schmidt step of ``canonicalize_beta`` is fraction-free and stops at
the rank that tr beta fixes, and ``check_alpha_structure`` reads the
blocks from the integer M + M^dagger and the norms from integer traces.

``symmat._gram_is_identity`` checks g g^dagger = d^2 I in integers; for
a Hermitian beta it decides beta^2 = 1.  The exact unitaries and the
samplers of matrix sets live in ``sampling``.  Their names are still
answered here: the first access imports ``sampling`` and binds the name
(PEP 562), so a command that audits a set never compiles the samplers.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import isqrt
from typing import Iterator, NamedTuple

from . import _forward
from .algebra import ComplexRational, render_fraction
from .dispersion import DispersionReport, check_dispersion
from .symmat import (
    CharPoly,
    Matrix,
    MatrixSet,
    _gi_mat_mul,
    _gram_is_identity,
    _row_dot,
    as_matrix,
    build_hamiltonian,  # unused here; perfbench patches it on this module
    char_poly,  # unused here; perfbench patches it on this module
    mat_identity,
    trace_and_det,
)

__all__ = [
    "CATALOG_NAMES",
    "CliffordReport",
    "TraceDetReport",
    "StructureReport",
    "CanonicalizationResult",
    "Audit",
    "EquivalenceVerdict",
    "StructuralViolationError",
    "catalog",
    "check_anticommutation",
    "check_trace_det",
    "beta_spectrum",
    "canonicalize_beta",
    "check_alpha_structure",
    "audit",
    "equivalence_audit",
]

class StructuralViolationError(ValueError):
    """The set violates a structural consequence of the dispersion demand."""


# ---------------------------------------------------------------------------
# standard representations
# ---------------------------------------------------------------------------

# the catalog's names, in the order ``_build_catalog`` builds them
CATALOG_NAMES = ("dirac-pauli", "weyl-chiral", "majorana")
# filled by the first ``catalog`` call, so that a command that reads no
# catalog set never builds one
_CATALOG: dict[str, MatrixSet] = {}


def _kron2(a: Matrix, b: Matrix) -> Matrix:
    rows = []
    for i in range(2):
        for k in range(2):
            rows.append(tuple(a[i][j] * b[k][l] for j in range(2) for l in range(2)))
    return tuple(rows)


def _build_catalog() -> dict[str, MatrixSet]:
    i = ComplexRational(0, 1)
    sigma1 = as_matrix([[0, 1], [1, 0]])
    sigma2 = as_matrix([[0, -i], [i, 0]])
    sigma3 = as_matrix([[1, 0], [0, -1]])
    id2 = mat_identity(2)
    dirac_pauli = MatrixSet(
        4,
        tuple(_kron2(sigma1, s) for s in (sigma1, sigma2, sigma3)),
        _kron2(sigma3, id2),
        label="dirac-pauli",
    )
    weyl_chiral = MatrixSet(
        4,
        tuple(_kron2(sigma3, s) for s in (sigma1, sigma2, sigma3)),
        _kron2(sigma1, id2),
        label="weyl-chiral",
    )
    # real alphas, imaginary antisymmetric beta: a real-equation basis
    majorana = MatrixSet(
        4,
        (_kron2(sigma1, id2), _kron2(sigma3, id2), _kron2(sigma2, sigma2)),
        _kron2(sigma2, sigma1),
        label="majorana",
    )
    return {s.label: s for s in (dirac_pauli, weyl_chiral, majorana)}


def catalog(name: str) -> MatrixSet:
    """A named exact matrix set: dirac-pauli, weyl-chiral, or majorana."""
    if not _CATALOG:
        _CATALOG.update(_build_catalog())
    try:
        return _CATALOG[name]
    except KeyError:
        raise ValueError(f"unknown catalog name {name!r}; available: {', '.join(CATALOG_NAMES)}") from None


# ---------------------------------------------------------------------------
# anticommutation and trace/det audits
# ---------------------------------------------------------------------------


# the first nonzero entry (i, j, value) of a relation's defect, 0-based, or None
Defect = tuple[int, int, ComplexRational] | None


class CliffordReport(NamedTuple):
    """The first defect of each relation, in report order: {A, B} keyed (A, B), then A^2 - 1 keyed (A, A)."""

    defects: dict[tuple[str, str], Defect]
    passed: bool


# the ten relations in report order, as indices into (alpha1, alpha2, alpha3, beta):
# the six pairs {X, Y}, then the four squares X^2
_RELATIONS = tuple((x, y) for x in range(4) for y in range(x + 1, 4)) + tuple((x, x) for x in range(4))


def check_anticommutation(mset: MatrixSet) -> CliffordReport:
    """Find the first nonzero entry of each {X_i, X_j} - 2 delta_ij defect exactly.

    Every entry is summed in integers over D^2 from the rows the set keeps.
    A defect of a Hermitian set is Hermitian, so its first nonzero entry in
    row-major order lies on or above the diagonal: only the upper triangle
    is scanned, up to the first nonzero entry, the only one rebuilt as an
    exact scalar.  As X is Hermitian, (X^2)_ij = sum_k X_ik conj(X_jk); an
    entry off the diagonal is computed when first needed and shared by the
    four relations of X.  A diagonal entry of {X, Y} is
    2 Re sum_k X_ik conj(Y_ik), and one above it the polarised square
    ((X + Y)^2)_ij - (X^2)_ij - (Y^2)_ij, each row of X + Y built once.
    """
    cleared, d = mset._gi
    n, d2 = mset.n, d * d
    names = [name for name, _ in mset.matrices()]
    cells = [(i, j) for i in range(n) for j in range(i, n)]
    squares: list[dict] = [{} for _ in cleared]
    defects: dict[tuple[str, str], Defect] = {}
    for x, y in _RELATIONS:
        gx, gy = cleared[x], cleared[y]
        summed: dict[int, list] = {}
        for i, j in cells:
            if i == j:
                if x == y:
                    re, im = sum(ar * ar + ai * ai for ar, ai in gx[i]) - d2, 0
                else:
                    re, im = 2 * sum(ar * br + ai * bi for (ar, ai), (br, bi) in zip(gx[i], gy[i])), 0
            elif x == y:
                re, im = _square_entry(squares[x], gx, i, j)
            else:
                for k in (i, j):
                    if k not in summed:
                        summed[k] = [(ar + br, ai + bi) for (ar, ai), (br, bi) in zip(gx[k], gy[k])]
                re, im = _row_dot(summed[i], summed[j])
                (xr, xi), (yr, yi) = _square_entry(squares[x], gx, i, j), _square_entry(squares[y], gy, i, j)
                re, im = re - xr - yr, im - xi - yi
            if re or im:
                defects[names[x], names[y]] = (i, j, ComplexRational._from_ints(re, im, d2))
                break
        else:
            defects[names[x], names[y]] = None
    return CliffordReport(defects, all(entry is None for entry in defects.values()))


def _square_entry(cache: dict, g: list, i: int, j: int) -> tuple[int, int]:
    """Entry (i, j) of g g^dagger, computed once and kept in ``cache``."""
    entry = cache.get((i, j))
    if entry is None:
        entry = cache[i, j] = _row_dot(g[i], g[j])
    return entry


class TraceDetReport(NamedTuple):
    """Traces and determinants of the four matrices, read off P(E)."""

    values: dict[str, tuple[Fraction, Fraction]]

    @property
    def traces_vanish(self) -> bool:
        return all(not tr for tr, _ in self.values.values())

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


def _involution_trace(mset: MatrixSet) -> int | None:
    """tr beta, once beta^2 = 1 is checked, or None when beta^2 != 1.

    As beta is Hermitian, beta^2 = beta beta^dagger, checked in integers by
    ``_gram_is_identity``.  A Hermitian involution has eigenvalues +/-1, so
    tr beta = 2k - n, with k the dimension of its +1 eigenspace: the trace
    is an integer, sum_i Re g_ii / D for beta = g/D.
    """
    (*_, g), d = mset._gi
    if not _gram_is_identity(g, d):
        return None
    return sum(row[i][0] for i, row in enumerate(g)) // d


def beta_spectrum(mset: MatrixSet) -> tuple[int, ...]:
    """Eigenvalue multiset of beta, once beta^2 = 1 is checked.

    The dimension k of the +1 eigenspace follows from tr beta = 2k - n.
    """
    n = mset.n
    trace = _involution_trace(mset)
    if trace is None:
        raise StructuralViolationError("beta does not square to the identity")
    k = (n + trace) // 2
    return (1,) * k + (-1,) * (n - k)


# ---------------------------------------------------------------------------
# beta canonicalization and alpha structure
# ---------------------------------------------------------------------------


def _gram_schmidt_columns(g: list) -> Iterator[tuple[list[tuple[int, int]], int, int]]:
    """Orthogonal (not normalized) basis of the column space of a Gaussian-integer matrix.

    Exact, deterministic and fraction-free.  Each basis vector v is yielded
    as (w, s, N): Gaussian integers w over the positive integer s, so
    v = w/s, and N = <w, w>.  Columns are taken in index order, and column w
    (over s) minus its projection onto a basis vector u = w_u/s_u is
    (N_u w - <w_u, w> w_u) over s N_u.  Dependent columns project to zero
    and are dropped.  A column is read and projected only when the next
    vector is asked for, so a caller that knows the rank stops there.
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
            yield basis[-1]


def _exact_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    a, b = value.numerator, value.denominator
    ra, rb = isqrt(a), isqrt(b)
    if ra * ra == a and rb * rb == b:
        return Fraction(ra, rb)
    return None


class CanonicalizationResult(NamedTuple):
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
    structural violation.  They are read off tr beta = 2k - 4, as in
    ``beta_spectrum``, so each projector (1 +- beta)/2 has rank 2 and only
    its first two Gram-Schmidt vectors are formed.  Projector columns are
    orthogonalized in index order, so the basis is reproducible.
    """
    if mset.n != 4:
        raise ValueError("canonicalization targets n = 4 sets")
    trace = _involution_trace(mset)
    if trace is None:
        raise ValueError("beta^2 differs from the identity; no canonical diagonal form exists")
    plus = (4 + trace) // 2
    if plus != 2:
        raise StructuralViolationError(f"beta eigenspace dimensions ({plus}, {4 - plus}) differ from (2, 2)")

    # 2d (1 +- beta)/2 = d*1 +- g: the projectors in Gaussian integers over 2d
    (*_, g), d = mset._gi
    basis = []
    for sign in (1, -1):
        projector = [
            [(sign * re + (d if i == j else 0), sign * im) for j, (re, im) in enumerate(row)]
            for i, row in enumerate(g)
        ]
        vectors = list(islice(_gram_schmidt_columns(projector), 2))
        if len(vectors) != 2:
            raise RuntimeError(
                f"internal error: a projector of rank 2 gave {len(vectors)} Gram-Schmidt vector(s)"
            )
        basis += vectors

    # each column is w / (2 d s), of squared norm N / (2 d s)^2
    columns = [(w, 2 * d * s, Fraction(norm, (2 * d * s) ** 2)) for w, s, norm in basis]
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


class StructureReport(NamedTuple):
    """Block structure of the alphas relative to the eigenspaces of beta."""

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
    (*alphas, gb), d = mset._gi
    blocks = []
    norms = []
    for ga in alphas:
        # M = beta alpha is gm over d^2
        gm = _gi_mat_mul(gb, ga)
        # (M + M^dagger)_ij = M_ij + conj(M_ji) vanishes when M_ij = -conj(M_ji)
        blocks.append(all(x == (-y[0], y[1]) for row, col in zip(gm, zip(*gm)) for x, y in zip(row, col)))
        # sum_jk |alpha_jk|^2 = Tr(alpha^2), as alpha is Hermitian
        norms.append(Fraction(_trace_re(ga) * d * d - _trace_re(gm), 4 * d ** 4))
    passed = all(blocks) and all(v == 2 for v in norms)
    return StructureReport(tuple(blocks), tuple(norms), passed)


def _trace_re(g: list) -> int:
    """The real part of Tr(g^2) for a matrix g of Gaussian integers."""
    return sum(xr * yr - xi * yi for row, col in zip(g, zip(*g)) for (xr, xi), (yr, yi) in zip(row, col))


# ---------------------------------------------------------------------------
# joint audits
# ---------------------------------------------------------------------------


class Audit(NamedTuple):
    """One audit of a set at a multiplicity, each stage run once, in report order.

    ``dispersion`` and ``anticommutation`` are the two verdicts that the
    equivalence ties together at n = 4 and multiplicity 2.  The structural
    stages run only for n = 4 and are None otherwise.  A stage that raised
    keeps its exception in place of its result; the alpha structure is
    checked only when a canonical form exists.
    """

    dispersion: DispersionReport
    anticommutation: CliffordReport
    trace_det: TraceDetReport | None = None
    spectrum: tuple[int, ...] | StructuralViolationError | None = None
    canonical: CanonicalizationResult | ValueError | None = None
    structure: StructureReport | None = None

    @property
    def spectrum_passed(self) -> bool:
        return self.spectrum == (1, 1, -1, -1)

    @property
    def structure_passed(self) -> bool:
        return self.structure is not None and self.structure.passed


def audit(mset: MatrixSet, r: int = 2) -> Audit:
    """Run each stage of the audit of ``mset`` at multiplicity ``r`` once.

    At n = 4 and r = 2 the dispersion and anticommutation verdicts must
    agree; their disagreement is a bug, not a verdict: it raises before any
    later stage runs.
    """
    disp, anti = check_dispersion(mset, r), check_anticommutation(mset)
    if mset.n != 4:
        return Audit(disp, anti)
    if r == 2 and disp.passed != anti.passed:
        first, second = ("passed", "failed") if disp.passed else ("failed", "passed")
        raise RuntimeError(
            f"internal error: the multiplicity-2 dispersion check {first} but the anticommutation check {second}"
        )
    try:
        spectrum = beta_spectrum(mset)
    except StructuralViolationError as exc:
        spectrum = exc
    try:
        canonical = canonicalize_beta(mset)
    except ValueError as exc:
        canonical = exc
    structure = None if isinstance(canonical, Exception) else check_alpha_structure(canonical)
    return Audit(disp, anti, check_trace_det(disp.char), spectrum, canonical, structure)


class EquivalenceVerdict(NamedTuple):
    """Side-by-side dispersion and anticommutation verdicts.

    ``consistent`` records that the two audits agree, which is the content
    of the derivation this package mechanizes; it should never be False.
    """

    dispersion: DispersionReport
    anticommutation: CliffordReport
    consistent: bool
    passed: bool


def equivalence_audit(mset: MatrixSet) -> EquivalenceVerdict:
    """Run the multiplicity-2 dispersion check and the Clifford check together.

    Kept only for perfbench, whose audit operation calls and spans it by
    name, until ROADMAP step 6a moves that operation to :func:`audit`.
    """
    if mset.n != 4:
        raise ValueError("equivalence audit applies to n = 4 sets")
    disp = check_dispersion(mset, 2)
    anti = check_anticommutation(mset)
    return EquivalenceVerdict(disp, anti, disp.passed == anti.passed, disp.passed and anti.passed)


__getattr__ = _forward(globals(), "sampling")
