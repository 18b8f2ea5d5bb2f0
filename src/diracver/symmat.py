"""Hermitian matrix quadruples and their symbolic characteristic polynomials.

A candidate set holds three ``alpha`` matrices and one ``beta`` matrix with
exact Gaussian-rational entries; Hermiticity is enforced at construction so
every downstream check may assume it.  ``build_hamiltonian`` assembles the
momentum-space matrix ``h(p) = alpha1*p1 + alpha2*p2 + alpha3*p3 + beta*m``
over :class:`~diracver.algebra.MultiPoly` entries, and ``char_poly`` computes
``det(E*I - h)`` by the Faddeev-LeVerrier recurrence, every coefficient in
one pass.

``char_poly`` and ``mat_mul`` run on Gaussian integers.  A
``ComplexRational`` is stored as (a + b*i)/d, so a matrix times D, the lcm
of its entries' d, has Gaussian-integer entries.  Each kernel clears the
denominators of its inputs once and rebuilds only its results as exact
scalars; no gcd is taken inside a product or the recurrence.  The
characteristic polynomial of a matrix whose entries have Gaussian-integer
coefficients has Gaussian-integer coefficients itself, so the recurrence's
only divisions, by k = 1..n, are exact integer divisions, checked to leave
no remainder.  Coefficient ``c_j`` of the scaled matrix is ``D^(n-j)``
times that of the input, and it is divided back out when the result is
converted to ``MultiPoly`` values.  ``trace_and_det`` reads each
determinant off the constant term, ``det(A) = (-1)^n c_0``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import lcm
from typing import Iterator, Sequence

from .algebra import (
    ComplexRational,
    EPoly,
    MultiPoly,
    Scalar,
    as_scalar,
    MASS,
    P1,
    P2,
    P3,
)

__all__ = [
    "Matrix",
    "MatrixSet",
    "PolyMatrix",
    "CharPoly",
    "HermiticityError",
    "UnsupportedDimensionError",
    "as_matrix",
    "mat_identity",
    "mat_zero",
    "mat_add",
    "mat_sub",
    "mat_scale",
    "mat_mul",
    "mat_dagger",
    "mat_trace",
    "mat_is_zero",
    "hermiticity_defect",
    "build_hamiltonian",
    "char_poly",
    "poly_matrix_of_scalars",
    "trace_and_det",
]

# Square matrix of exact scalars, stored as a tuple of row tuples.
Matrix = tuple[tuple[ComplexRational, ...], ...]


class HermiticityError(ValueError):
    """A matrix violates entry(i,j) == conj(entry(j,i))."""

    def __init__(self, matrix_name: str, index: tuple[int, int]):
        self.matrix_name = matrix_name
        self.index = index
        i, j = index
        super().__init__(f"{matrix_name} is not Hermitian at entries ({i},{j})/({j},{i})")


class UnsupportedDimensionError(ValueError):
    """Dimension outside the supported range."""


def as_matrix(rows: Sequence[Sequence[Scalar]]) -> Matrix:
    """Coerce nested int/Fraction/ComplexRational rows into a square Matrix."""
    out = tuple(tuple(as_scalar(v) for v in row) for row in rows)
    n = len(out)
    if n == 0 or any(len(row) != n for row in out):
        raise ValueError("matrix must be square and nonempty")
    return out


def mat_identity(n: int) -> Matrix:
    one = ComplexRational(1)
    zero = ComplexRational(0)
    return tuple(tuple(one if i == j else zero for j in range(n)) for i in range(n))


def mat_zero(n: int) -> Matrix:
    zero = ComplexRational(0)
    return tuple((zero,) * n for _ in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(a: Matrix, factor: Scalar) -> Matrix:
    c = as_scalar(factor)
    return tuple(tuple(x * c for x in row) for row in a)


def _gaussian(x: ComplexRational, denom: int) -> tuple[int, int]:
    """denom * x as a Gaussian integer (re, im); denom must be a multiple of x's denominator."""
    k = denom // x._d
    return x._a * k, x._b * k


def _cleared(a: Matrix) -> tuple[list[list[tuple[int, int]]], int]:
    """The entries of ``a`` as Gaussian integers over their common denominator."""
    denom = lcm(*(x._d for row in a for x in row))
    return [[_gaussian(x, denom) for x in row] for row in a], denom


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """Exact product in Gaussian integers: D_a*a times D_b*b, rebuilt over D_a*D_b."""
    ga, da = _cleared(a)
    gb, db = _cleared(b)
    denom = da * db
    cols = list(zip(*gb))
    out = []
    for row in ga:
        out_row = []
        for col in cols:
            re = im = 0
            for (ar, ai), (br, bi) in zip(row, col):
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            out_row.append(ComplexRational._from_ints(re, im, denom))
        out.append(tuple(out_row))
    return tuple(out)


def _trace_product(a: Matrix, b: Matrix) -> ComplexRational:
    """Tr(a b) without forming the product, in Gaussian integers like ``mat_mul``."""
    ga, da = _cleared(a)
    gb, db = _cleared(b)
    re = im = 0
    for j, row in enumerate(ga):
        for k, (ar, ai) in enumerate(row):
            br, bi = gb[k][j]
            re += ar * br - ai * bi
            im += ar * bi + ai * br
    return ComplexRational._from_ints(re, im, da * db)


def mat_dagger(a: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(a[j][i].conj() for j in range(n)) for i in range(n))


def mat_trace(a: Matrix) -> ComplexRational:
    return sum((a[i][i] for i in range(len(a))), ComplexRational(0))


def mat_is_zero(a: Matrix) -> bool:
    return all(x.is_zero for row in a for x in row)


def hermiticity_defect(a: Matrix) -> tuple[int, int] | None:
    """First index pair (row-major, 0-based) violating Hermiticity, or None."""
    n = len(a)
    for i in range(n):
        for j in range(i, n):
            if a[i][j] != a[j][i].conj():
                return (i, j)
    return None


@dataclass(frozen=True)
class MatrixSet:
    """A candidate (alpha1, alpha2, alpha3, beta) quadruple of Hermitian matrices."""

    n: int
    alphas: tuple[Matrix, Matrix, Matrix]
    beta: Matrix
    label: str = ""

    def __post_init__(self) -> None:
        if self.n not in (2, 3, 4):
            raise UnsupportedDimensionError(f"dimension {self.n} not supported (need 2, 3, or 4)")
        if len(self.alphas) != 3:
            raise ValueError(f"need exactly 3 alpha matrices, got {len(self.alphas)}")
        for name, matrix in self.matrices():
            if len(matrix) != self.n or any(len(row) != self.n for row in matrix):
                raise ValueError(f"{name} is not {self.n}x{self.n}")
            bad = hermiticity_defect(matrix)
            if bad is not None:
                raise HermiticityError(name, bad)

    def matrices(self) -> Iterator[tuple[str, Matrix]]:
        for k, alpha in enumerate(self.alphas, start=1):
            yield f"alpha{k}", alpha
        yield "beta", self.beta

    @cached_property
    def _complex_stack(self):
        """alpha1, alpha2, alpha3, beta as one read-only complex (4, n, n) array.

        Built on first use and kept on the instance, so the float lane
        converts each exact entry once per set.  It is not a dataclass
        field: equality, hash and repr ignore it.  numpy is imported here,
        not at module level, so importing this module does not load it.  An
        entry beyond the float range raises ``ValueError`` naming its matrix.
        """
        import numpy as np

        from .spectrum import matrix_to_array

        arrays = []
        for name, matrix in self.matrices():
            try:
                arrays.append(matrix_to_array(matrix))
            except OverflowError as exc:
                raise ValueError(f"{name} has an entry beyond the float range") from exc
        stack = np.stack(arrays)
        stack.flags.writeable = False
        return stack


@dataclass(frozen=True)
class PolyMatrix:
    """Square matrix with MultiPoly entries."""

    n: int
    entries: tuple[tuple[MultiPoly, ...], ...]

    def entry(self, i: int, j: int) -> MultiPoly:
        return self.entries[i][j]

    def is_hermitian(self) -> bool:
        return all(
            self.entries[i][j] == self.entries[j][i].conj()
            for i in range(self.n)
            for j in range(i, self.n)
        )


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial det(E*I - M) with coefficient access."""

    n: int
    poly: EPoly

    def __post_init__(self) -> None:
        if self.poly.degree != self.n or self.poly.coeff(self.n) != MultiPoly.constant(1):
            raise ValueError("characteristic polynomial must be monic of degree n")

    def c(self, k: int) -> MultiPoly:
        """Coefficient of E^k, 0 <= k <= n."""
        if not 0 <= k <= self.n:
            raise ValueError(f"coefficient index {k} outside 0..{self.n}")
        return self.poly.coeff(k)


def build_hamiltonian(mset: MatrixSet) -> PolyMatrix:
    """Assemble h(p) = sum_k alpha_k p_k + beta m as a polynomial matrix."""
    momenta = (P1, P2, P3)
    n = mset.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            entry = MultiPoly.zero()
            for alpha, p in zip(mset.alphas, momenta):
                if alpha[i][j]:
                    entry = entry + p * alpha[i][j]
            if mset.beta[i][j]:
                entry = entry + MASS * mset.beta[i][j]
            row.append(entry)
        rows.append(tuple(row))
    return PolyMatrix(n, tuple(rows))


def poly_matrix_of_scalars(matrix: Matrix) -> PolyMatrix:
    """Wrap a scalar matrix as a PolyMatrix of constant polynomials."""
    return PolyMatrix(
        len(matrix),
        tuple(tuple(MultiPoly.constant(v) for v in row) for row in matrix),
    )


# The char_poly kernel works on polynomials with Gaussian-integer
# coefficients, stored as dicts from a packed monomial key to an (re, im)
# pair of ints.  A key holds the exponents of (p1, p2, p3, m) in fields of
# ``width`` bits, so multiplying two monomials is adding their keys.


def _gi_prune(a: dict) -> dict:
    return {key: value for key, value in a.items() if value[0] or value[1]}


def _gi_sum(polys) -> dict:
    acc: dict = {}
    get = acc.get
    for a in polys:
        for key, (re, im) in a.items():
            prev = get(key)
            acc[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return _gi_prune(acc)


def _gi_row_col(row: list, mat: list, j: int) -> dict:
    """Dot product of ``row`` with column j of ``mat``."""
    acc: dict = {}
    get = acc.get
    for a, b in zip(row, mat):
        b = b[j]
        if not a or not b:
            continue
        for ka, (ar, ai) in a.items():
            for kb, (br, bi) in b.items():
                key = ka + kb
                re = ar * br - ai * bi
                im = ar * bi + ai * br
                prev = get(key)
                acc[key] = (re, im) if prev is None else (prev[0] + re, prev[1] + im)
    return _gi_prune(acc)


def _gi_neg_div(a: dict, k: int) -> dict:
    """-a/k; the division must be exact."""
    out = {}
    for key, (re, im) in a.items():
        q_re, r_re = divmod(-re, k)
        q_im, r_im = divmod(-im, k)
        if r_re or r_im:
            raise RuntimeError(f"internal error: Faddeev-LeVerrier trace not divisible by {k}")
        out[key] = (q_re, q_im)
    return out


def char_poly(M: PolyMatrix) -> CharPoly:
    """Characteristic polynomial det(E*I - M) by the Faddeev-LeVerrier recurrence.

    With M_1 = M the recurrence runs

        c_n = 1,  c_{n-k} = -trace(M_k)/k,  M_{k+1} = M (M_k + c_{n-k} I),

    so the coefficient of E^(n-1) is -trace(M) and the constant term is
    (-1)^n det(M).

    It runs in Gaussian integers.  With D the lcm of every coefficient
    denominator in M, B = D*M has entries with Gaussian-integer
    coefficients.  Each coefficient c'_j of det(E*I - B) is a polynomial in
    the entries of B with integer coefficients, so it has Gaussian-integer
    coefficients as well, and the step c'_{n-k} = -trace(B_k)/k is an exact
    integer division; a remainder is an internal error, never rounded.
    Because det(E*I - D*M) = D^n det((E/D)*I - M), c'_j = D^(n-j) c_j, and
    each c_j is rebuilt exactly as c'_j over the denominator D^(n-j).
    """
    n = M.n
    if not 1 <= n <= 4:
        raise UnsupportedDimensionError(f"char_poly supports 1 <= n <= 4, got {n}")
    terms = [[tuple(entry.terms()) for entry in row] for row in M.entries]
    flat = [term for row in terms for entry in row for term in entry]
    denom = lcm(1, *(c._d for _, c in flat))
    # exponents in the recurrence never exceed n times the largest input one
    width = (n * max((e for mono, _ in flat for e in mono), default=0)).bit_length()
    mask = (1 << width) - 1

    A = [
        [
            {
                mono[0] | mono[1] << width | mono[2] << 2 * width | mono[3] << 3 * width:
                _gaussian(c, denom)
                for mono, c in entry
            }
            for entry in row
        ]
        for row in terms
    ]
    coeffs: list[dict] = [{}] * n + [{0: (1, 0)}]
    coeffs[n - 1] = _gi_neg_div(_gi_sum(A[i][i] for i in range(n)), 1)
    Mk = A
    for k in range(2, n + 1):
        # M_k = A (M_{k-1} + c_{n-k+1} I); of M_n only the diagonal is needed
        shifted = [list(row) for row in Mk]
        for i in range(n):
            shifted[i][i] = _gi_sum((Mk[i][i], coeffs[n - k + 1]))
        if k < n:
            Mk = [[_gi_row_col(A[i], shifted, j) for j in range(n)] for i in range(n)]
            diagonal = [Mk[i][i] for i in range(n)]
        else:
            diagonal = [_gi_row_col(A[i], shifted, i) for i in range(n)]
        coeffs[n - k] = _gi_neg_div(_gi_sum(diagonal), k)

    polys = []
    for j, c in enumerate(coeffs):
        scale = denom ** (n - j)
        polys.append(
            MultiPoly._make(
                {
                    (key & mask, key >> width & mask, key >> 2 * width & mask, key >> 3 * width):
                    ComplexRational._from_ints(re, im, scale)
                    for key, (re, im) in c.items()
                }
            )
        )
    return CharPoly(n, EPoly(polys))


def trace_and_det(mset: MatrixSet) -> dict[str, tuple[ComplexRational, ComplexRational]]:
    """Exact (trace, determinant) for each matrix of the set, keyed by name.

    The determinant is (-1)^n times the constant term of the characteristic
    polynomial.
    """
    return {name: (mat_trace(m), _det(m)) for name, m in mset.matrices()}


def _det(matrix: Matrix) -> ComplexRational:
    c0 = char_poly(poly_matrix_of_scalars(matrix)).c(0).coefficient((0, 0, 0, 0))
    return -c0 if len(matrix) % 2 else c0
