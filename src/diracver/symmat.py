"""Hermitian matrix quadruples and their symbolic characteristic polynomials.

A candidate set holds three ``alpha`` matrices and one ``beta`` matrix with
exact Gaussian-rational entries; Hermiticity is enforced at construction so
every downstream check may assume it.  ``build_hamiltonian`` assembles the
momentum-space matrix ``h(p) = alpha1*p1 + alpha2*p2 + alpha3*p3 + beta*m``
of a set with its denominators cleared, and ``char_poly`` computes
``det(E*I - h)`` from the power sums ``p_k = Tr(h^k)`` and Newton's
identities, every coefficient in one pass.  h(p) is Hermitian because the
set is, so only the upper triangle of ``h^2`` is formed and only the real
parts of the power sums are summed.

The kernels run on Gaussian integers.  A ``ComplexRational`` is stored
as (a + b*i)/d, so a matrix times D, the lcm of its entries' d, has
Gaussian-integer entries.  Each kernel clears the denominators of its
inputs once and rebuilds only its results as exact scalars; no gcd is
taken inside a product or the power sums.  The
characteristic polynomial of a matrix whose entries have Gaussian-integer
coefficients has Gaussian-integer coefficients itself, and so have the
power sums, so the only divisions, Newton's k*c_(n-k) = -(...) for
k = 1..n, are exact integer divisions, checked to leave no remainder.
Coefficient ``c_j`` of the scaled matrix is ``D^(n-j)`` times that of the
input, and it is divided back out when the result is converted to
``MultiPoly`` values.  ``clifford`` and ``sampling`` run their own kernels
on the same cleared form (``_cleared``, ``_gi_mat_mul``, ``_rebuilt``).

``trace_and_det`` forms no further polynomial: it reads the trace and the
determinant of each of the four matrices off the characteristic
polynomial of h(p), whose pure powers of one variable are those of the
characteristic polynomial of that variable's matrix.
"""

from __future__ import annotations

from functools import cached_property
from math import lcm
from typing import Iterable, Iterator, NamedTuple, Sequence

from .algebra import (
    _CR_ONE,
    _CR_ZERO,
    ComplexRational,
    EPoly,
    MultiPoly,
    Scalar,
    _Validated,
    as_scalar,
)

__all__ = [
    "Matrix",
    "MatrixSet",
    "CharPoly",
    "HermiticityError",
    "UnsupportedDimensionError",
    "as_matrix",
    "mat_identity",
    "mat_trace",
    "mat_is_zero",
    "hermiticity_defect",
    "build_hamiltonian",
    "char_poly",
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


def _exact_entries(matrix: Sequence[Sequence[Scalar]]) -> Matrix:
    """``matrix`` itself when every entry is a ComplexRational, else ``as_matrix(matrix)``."""
    for row in matrix:
        for x in row:
            if type(x) is not ComplexRational:
                return as_matrix(matrix)
    return matrix


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(_CR_ONE if i == j else _CR_ZERO for j in range(n)) for i in range(n))


def _gaussian(x: ComplexRational, denom: int) -> tuple[int, int]:
    """denom * x as a Gaussian integer (re, im); denom must be a multiple of x's denominator."""
    k = denom // x._d
    return x._a * k, x._b * k


def _cleared(a: Matrix) -> tuple[list[list[tuple[int, int]]], int]:
    """The entries of ``a`` as Gaussian integers over their common denominator."""
    denom = lcm(*(x._d for row in a for x in row))
    return [[_gaussian(x, denom) for x in row] for row in a], denom


def _gi_mat_mul(ga: list, gb: list) -> Iterator[tuple[int, int]]:
    """The entries of the product of two square Gaussian-integer matrices, row by row."""
    cols = list(zip(*gb))
    for row in ga:
        for col in cols:
            re = im = 0
            for (ar, ai), (br, bi) in zip(row, col):
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            yield re, im


def _rebuilt(entries: Iterable[tuple[int, int]], denom: int, n: int) -> Matrix:
    """The n x n matrix of Gaussian-integer ``entries`` (row by row) over ``denom``."""
    make = ComplexRational._from_ints
    flat = [make(re, im, denom) for re, im in entries]
    return tuple([tuple(flat[i:i + n]) for i in range(0, n * n, n)])


def mat_trace(a: Matrix) -> ComplexRational:
    return sum((a[i][i] for i in range(len(a))), _CR_ZERO)


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


# the monomials p1, p2, p3 and m, and the names of the matrices they multiply in h(p)
_MONOMIALS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_NAMES = ("alpha1", "alpha2", "alpha3", "beta")


class _MatrixSetFields(NamedTuple):
    n: int
    alphas: tuple[Matrix, Matrix, Matrix]
    beta: Matrix
    label: str = ""


class MatrixSet(_Validated, _MatrixSetFields):
    """A candidate (alpha1, alpha2, alpha3, beta) quadruple of Hermitian matrices.

    int and Fraction entries are coerced by ``as_scalar``; other entries raise its ``TypeError``.
    """

    def __new__(cls, n: int, alphas: Sequence[Matrix], beta: Matrix, label: str = "") -> "MatrixSet":
        if n not in (2, 3, 4):
            raise UnsupportedDimensionError(f"dimension {n} not supported (need 2, 3, or 4)")
        if len(alphas) != 3:
            raise ValueError(f"need exactly 3 alpha matrices, got {len(alphas)}")
        exact = []
        for name, matrix in zip(_NAMES, (*alphas, beta)):
            if len(matrix) != n or any(len(row) != n for row in matrix):
                raise ValueError(f"{name} is not {n}x{n}")
            matrix = _exact_entries(matrix)
            bad = hermiticity_defect(matrix)
            if bad is not None:
                raise HermiticityError(name, bad)
            exact.append(matrix)
        return super().__new__(cls, n, tuple(exact[:3]), exact[3], label)

    def matrices(self) -> Iterator[tuple[str, Matrix]]:
        return zip(_NAMES, (*self.alphas, self.beta))

    @cached_property
    def _complex_stack(self):
        """alpha1, alpha2, alpha3, beta as one read-only complex (4, n, n) array.

        Built on first use and kept on the instance, so the float lane
        converts each exact entry once per set.  It is kept outside the
        tuple of fields, so equality, hash and repr ignore it.  numpy is
        imported here, not at module level, so importing this module does
        not load it.  An entry beyond the float range raises ``ValueError``
        naming its matrix.
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


class _CharPolyFields(NamedTuple):
    n: int
    poly: EPoly


class CharPoly(_Validated, _CharPolyFields):
    """Monic characteristic polynomial det(E*I - M) with coefficient access."""

    __slots__ = ()

    def __new__(cls, n: int, poly: EPoly) -> "CharPoly":
        if poly.degree != n or poly.coeff(n) != MultiPoly.constant(1):
            raise ValueError("characteristic polynomial must be monic of degree n")
        return super().__new__(cls, n, poly)

    def c(self, k: int) -> MultiPoly:
        """Coefficient of E^k, 0 <= k <= n."""
        if not 0 <= k <= self.n:
            raise ValueError(f"coefficient index {k} outside 0..{self.n}")
        return self.poly.coeff(k)


# The char_poly kernel works on polynomials with Gaussian-integer
# coefficients, stored as dicts from a packed monomial key to an (re, im)
# pair of ints.  A key holds the exponents of (p1, p2, p3, m) in fields of
# n.bit_length() bits, wide enough for the exponent n of any term of the
# power sums of an n x n h(p), so multiplying two monomials is adding their
# keys.


def build_hamiltonian(mset: MatrixSet) -> tuple[list[list[dict]], int]:
    """h(p) = sum_k alpha_k p_k + beta m over Gaussian integers, as (entries, D).

    D is the lcm of every entry denominator of the four matrices.  Entry
    (i, j) maps the packed key of p1, p2, p3 and m, in that order, to D times
    entry (i, j) of alpha1, alpha2, alpha3 and beta; zeros are left out.
    """
    n = mset.n
    matrices = (*mset.alphas, mset.beta)
    denom = lcm(*(x._d for matrix in matrices for row in matrix for x in row))
    width = n.bit_length()
    pairs = tuple((1 << k * width, matrix) for k, matrix in enumerate(matrices))
    entries = [
        [{key: _gaussian(matrix[i][j], denom) for key, matrix in pairs if matrix[i][j]} for j in range(n)]
        for i in range(n)
    ]
    return entries, denom


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


def _gi_dot(pairs) -> dict:
    """The sum of the products a*b over the (a, b) ``pairs``."""
    acc: dict = {}
    get = acc.get
    for a, b in pairs:
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
            raise RuntimeError(f"internal error: Newton identity sum not divisible by {k}")
        out[key] = (q_re, q_im)
    return out


def _gi_re_dot(pairs) -> dict:
    """The real part of the sum of the products a*b over the (a, b) ``pairs``, as (re, 0) values."""
    acc: dict = {}
    get = acc.get
    for a, b in pairs:
        for ka, (ar, ai) in a.items():
            for kb, (br, bi) in b.items():
                key = ka + kb
                acc[key] = get(key, 0) + ar * br - ai * bi
    return {key: (v, 0) for key, v in acc.items() if v}


def _hermitian_power_sums(A: list) -> list[dict]:
    """[None, p_1, ..., p_n] with p_k = Tr(A^k), for a Hermitian A of 2 <= n <= 4.

    Every p_k is real.  A^2 is formed once and p_3 and p_4 are read off it
    without forming A^3 or A^4.  A^2 is Hermitian too, so only its upper
    triangle is formed, and its diagonal is real, as is A's, so p_1 and p_2
    are the diagonal sums as they stand.  With A_ji the conjugate of A_ij,
    p_3 = sum_i (A^2)_ii A_ii + 2 Re sum_{i<j} (A^2)_ij A_ji and
    p_4 = sum_i (A^2)_ii^2 + 2 sum_{i<j} |(A^2)_ij|^2; every product that
    feeds a power sum accumulates only its real part.
    """
    n = len(A)
    sums = [None, _gi_sum(A[i][i] for i in range(n))]
    square = [_gi_re_dot((A[i][k], A[k][i]) for k in range(n)) for i in range(n)]
    sums.append(_gi_sum(square))
    if n >= 3:
        upper = {(i, j): _gi_dot((A[i][k], A[k][j]) for k in range(n)) for i in range(n) for j in range(i + 1, n)}
        # twice (A^2)_ij for i < j: it stands for itself and for its mirror below the diagonal
        twice = {ij: {key: (2 * re, 2 * im) for key, (re, im) in x.items()} for ij, x in upper.items()}
        sums.append(
            _gi_re_dot([(square[i], A[i][i]) for i in range(n)] + [(x, A[j][i]) for (i, j), x in twice.items()])
        )
    if n == 4:
        conj = {ij: {key: (re, -im) for key, (re, im) in x.items()} for ij, x in upper.items()}
        sums.append(
            _gi_re_dot([(square[i], square[i]) for i in range(n)] + [(x, conj[ij]) for ij, x in twice.items()])
        )
    return sums


def char_poly(mset: MatrixSet) -> CharPoly:
    """Characteristic polynomial det(E*I - h(p)) of a set, from power sums and Newton's identities.

    With p_k = Tr(h^k) and e_k the elementary symmetric functions of the
    eigenvalues, Newton's identities k e_k = sum_{i=1..k} (-1)^(i-1) e_{k-i} p_i
    give det(E*I - h) = sum_k (-1)^k e_k E^(n-k).  In the coefficients
    c_{n-k} = (-1)^k e_k they read

        c_n = 1,  c_{n-k} = -(c_{n-k+1} p_1 + c_{n-k+2} p_2 + ... + c_n p_k)/k,

    so the coefficient of E^(n-1) is -trace(h) and the constant term is
    (-1)^n det(h).

    It runs in Gaussian integers, on B = D*h from ``build_hamiltonian``,
    whose entries have Gaussian-integer coefficients, and so have its power
    sums.  Each coefficient c'_j of det(E*I - B) is a polynomial in the
    entries of B with integer coefficients, so it has Gaussian-integer
    coefficients as well.  The sum that the step c'_{n-k} = -(...)/k divides
    equals -k c'_{n-k}, so the step is an exact integer division; a
    remainder is an internal error, never rounded.  Because
    det(E*I - D*h) = D^n det((E/D)*I - h), c'_j = D^(n-j) c_j, and each c_j
    is rebuilt exactly as c'_j over the denominator D^(n-j).

    ``MatrixSet`` guarantees that h is Hermitian and that n is 2, 3 or 4, so
    ``_hermitian_power_sums`` forms only the upper triangle of B^2 and the
    real parts of the power sums.
    """
    n = mset.n
    A, denom = build_hamiltonian(mset)
    width = n.bit_length()
    mask = (1 << width) - 1
    sums = _hermitian_power_sums(A)
    coeffs: list[dict] = [{}] * n + [{0: (1, 0)}]
    for k in range(1, n + 1):
        coeffs[n - k] = _gi_neg_div(_gi_dot((coeffs[n - k + i], sums[i]) for i in range(1, k + 1)), k)

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


def trace_and_det(cp: CharPoly) -> dict[str, tuple[ComplexRational, ComplexRational]]:
    """Exact (trace, determinant) of alpha1, alpha2, alpha3 and beta, keyed by name.

    ``cp`` is the characteristic polynomial of h(p) = sum_k X_k x_k, with
    x_k running over (p1, p2, p3, m).  Setting every variable but x_k to
    zero leaves det(E*I - x_k X_k), whose coefficient of E^j is x_k^(n-j)
    times that of det(E*I - X_k).  So, with c_j the coefficients of ``cp``,
    Tr(X_k) = -[x_k] c_(n-1) and det(X_k) = (-1)^n [x_k^n] c_0.
    """
    n = cp.n
    top, const = cp.c(n - 1), cp.c(0)
    values = {}
    for name, mono in zip(_NAMES, _MONOMIALS):
        det = const.coefficient(tuple(n * e for e in mono))
        values[name] = (-top.coefficient(mono), -det if n % 2 else det)
    return values
