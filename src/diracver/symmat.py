"""Hermitian matrix quadruples and their symbolic characteristic polynomials.

A candidate set holds three ``alpha`` matrices and one ``beta`` matrix with
exact Gaussian-rational entries; Hermiticity is enforced at construction so
every downstream check may assume it.  ``build_hamiltonian`` assembles the
momentum-space matrix ``h(p) = alpha1*p1 + alpha2*p2 + alpha3*p3 + beta*m``
of a set with its denominators cleared, and ``char_poly`` computes
``det(E*I - h)`` from the power sums ``p_k = Tr(h^k)`` and Newton's
identities, every coefficient in one pass.

The kernels run on Gaussian integers.  A ``ComplexRational`` is stored as
(a + b*i)/d, so a matrix times D, the lcm of its entries' d, has
Gaussian-integer entries.  ``_cleared(*matrices)`` gives the rows of any
number of matrices over their one denominator D, every zero entry one
shared pair.  A ``MatrixSet`` is
cleared once, at construction, and keeps those rows; every kernel, here and
in ``clifford`` and ``sampling``, reads them.  ``_gi_mat_mul`` multiplies
rows into rows and ``_rebuilt(rows, denom)`` is the one way back out, so no
gcd is taken inside a product or the power sums.  h(p) is Hermitian because
the set is, so its power sums are real, and it is linear in (p1, p2, p3, m),
so each entry of h^2 has at most ten monomials: ``char_poly`` forms the
diagonal and the upper triangle of ``h^2`` per entry into ten slots, one
per pair of matrices, from the nonzero terms of h alone, keeps every power
sum, and every coefficient Newton's identities give, as plain ints, and p_4
squares each pair of its terms once.  The only divisions, Newton's k*c_(n-k) = -(...)
for k = 1..n, are exact integer divisions, checked to leave no remainder.
Coefficient ``c_j`` of the scaled matrix, ``D^(n-j)`` times that of the
input, is handed to ``MultiPoly`` as its integers over ``D^(n-j)``.
``_gram_is_identity`` decides g g^dagger = d^2 I: beta^2 = 1 for a
Hermitian beta, and the validity of every ``sampling.ExactUnitary``.

``trace_and_det`` forms no further polynomial: it reads the trace and the
determinant of each of the four matrices off the characteristic
polynomial of h(p), whose pure powers of one variable are those of the
characteristic polynomial of that variable's matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Iterator, NamedTuple, Sequence

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
    """Coerce nested int/Fraction/ComplexRational rows into a square Matrix.

    A tuple of row tuples of ``ComplexRational`` entries is returned as it
    is; any other rows are copied, so no caller's list ends up in a result.
    """
    exact = type(rows) is tuple and all(type(row) is tuple for row in rows)
    if not (exact and all(type(x) is ComplexRational for row in rows for x in row)):
        rows = tuple(tuple(as_scalar(v) for v in row) for row in rows)
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("matrix must be square and nonempty")
    return rows


def mat_identity(n: int) -> Matrix:
    return tuple(tuple(_CR_ONE if i == j else _CR_ZERO for j in range(n)) for i in range(n))


_GI_ZERO = (0, 0)


def _cleared(*matrices: Matrix) -> tuple[list[list[list[tuple[int, int]]]], int]:
    """The rows of each of ``matrices`` as Gaussian integers (re, im) over their one common denominator D, and D.

    Every zero entry is the one shared pair ``_GI_ZERO``.
    """
    denom = lcm(*(x._d for matrix in matrices for row in matrix for x in row))
    out = []
    for matrix in matrices:
        rows = []
        for row in matrix:
            entries = []
            for x in row:
                if x._a or x._b:
                    k = denom // x._d
                    entries.append((x._a * k, x._b * k))
                else:
                    entries.append(_GI_ZERO)
            rows.append(entries)
        out.append(rows)
    return out, denom


def _gi_mat_mul(ga: list, gb: list) -> list[list[tuple[int, int]]]:
    """The rows of the product of two square Gaussian-integer matrices."""
    cols = list(zip(*gb))
    out = []
    for row in ga:
        entries = []
        for col in cols:
            re = im = 0
            for (ar, ai), (br, bi) in zip(row, col):
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            entries.append((re, im))
        out.append(entries)
    return out


def _rebuilt(rows: list, denom: int) -> Matrix:
    """The matrix of the Gaussian-integer ``rows`` over ``denom``."""
    make = ComplexRational._from_ints
    return tuple([tuple([make(re, im, denom) for re, im in row]) for row in rows])


def _gram_is_identity(g: list, d: int) -> bool:
    """Whether g g^dagger = d^2 I for a square matrix g of Gaussian integers.

    Entry (i, j) of g g^dagger is sum_k g_ik conj(g_jk).  The product is
    Hermitian for every g, so only the upper triangle is read, and the scan
    stops at the first defect.  For a Hermitian g this is the test g^2 = d^2 I.
    """
    d2 = d * d
    for i, row in enumerate(g):
        for j in range(i, len(g)):
            re, im = _row_dot(row, g[j])
            if im or re != (d2 if i == j else 0):
                return False
    return True


def _row_dot(a: list, b: list) -> tuple[int, int]:
    """sum_k a_k conj(b_k) for two rows of Gaussian integers: entry (i, j) of g g^dagger for rows i and j of g."""
    re = im = 0
    for (ar, ai), (br, bi) in zip(a, b):
        re += ar * br + ai * bi
        im += ai * br - ar * bi
    return re, im


def _hermitian_defect(g: list) -> tuple[int, int] | None:
    """The first (i, j), i <= j in row-major order, with g_ij != conj(g_ji), or None."""
    for i, row in enumerate(g):
        for j in range(i, len(g)):
            re, im = g[j][i]
            if row[j] != (re, -im):
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

    Each matrix goes through ``as_matrix``, which coerces its entries and
    copies list rows.  The four are cleared once, and Hermiticity is checked
    on their Gaussian-integer rows over one denominator D; the kernels share
    those rows, kept as ``_gi = (rows, D)`` as ``ExactUnitary`` keeps its own.
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
            exact.append(as_matrix(matrix))
        rows, denom = _cleared(*exact)
        for name, g in zip(_NAMES, rows):
            bad = _hermitian_defect(g)
            if bad is not None:
                raise HermiticityError(name, bad)
        self = super().__new__(cls, n, tuple(exact[:3]), exact[3], label)
        self._gi = (rows, denom)
        return self

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
# pair of ints, or to an int where every value is real.  A key holds the
# exponents of (p1, p2, p3, m) in fields of n.bit_length() bits, wide enough
# for the exponent n of any term of the power sums of an n x n h(p), so
# multiplying two monomials is adding their keys.


def build_hamiltonian(mset: MatrixSet) -> tuple[list[list[dict]], int]:
    """h(p) = sum_k alpha_k p_k + beta m over Gaussian integers, as (entries, D).

    D is the lcm of every entry denominator of the four matrices.  Entry
    (i, j) maps the packed key of p1, p2, p3 and m, in that order, to D times
    entry (i, j) of alpha1, alpha2, alpha3 and beta; zeros are left out.
    """
    n = mset.n
    matrices, denom = mset._gi
    width = n.bit_length()
    pairs = tuple((1 << k * width, g) for k, g in enumerate(matrices))
    entries = [[{key: g[i][j] for key, g in pairs if g[i][j] != (0, 0)} for j in range(n)] for i in range(n)]
    return entries, denom


def _re_dot(pairs) -> dict:
    """The real part of the sum of the products a*b over the (a, b) ``pairs``, as ints."""
    acc: dict = {}
    get = acc.get
    for a, b in pairs:
        for ka, (ar, ai) in a.items():
            for kb, (br, bi) in b.items():
                key = ka + kb
                acc[key] = get(key, 0) + ar * br - ai * bi
    return {key: v for key, v in acc.items() if v}


def _int_dot(pairs) -> dict:
    """The sum of the products a*b over the (a, b) ``pairs`` of polynomials with int coefficients."""
    acc: dict = {}
    get = acc.get
    for a, b in pairs:
        for ka, x in a.items():
            for kb, y in b.items():
                key = ka + kb
                acc[key] = get(key, 0) + x * y
    return {key: v for key, v in acc.items() if v}


def _int_sum(weighted) -> dict:
    """The sum of w*a over the (a, w) pairs of a polynomial with int coefficients and an int weight."""
    acc: dict = {}
    get = acc.get
    for a, w in weighted:
        for key, v in a.items():
            acc[key] = get(key, 0) + w * v
    return {key: v for key, v in acc.items() if v}


# the ten pairs t <= u of the matrices of h(p), one slot each; _SLOT[t][u] == _SLOT[u][t]
_PAIRS = tuple((t, u) for t in range(4) for u in range(t, 4))
_SLOT = tuple(tuple(_PAIRS.index((min(t, u), max(t, u))) for u in range(4)) for t in range(4))


def _hermitian_power_sums(A: list) -> list[dict]:
    """[None, p_1, ..., p_n] with p_k = Tr(A^k), for a Hermitian A of 2 <= n <= 4.

    Every p_k is real, a dict from packed key to nonzero int.  A = sum_t
    x_t X_t is linear in (p1, p2, p3, m), so an entry of A^2 has ten
    monomials x_t x_u, t <= u, summed into ten slots from the nonzero terms
    of A.  A^2 is Hermitian too, so only its diagonal and upper triangle are
    formed, (A^2)_ij = sum_k A_ik conj(A_jk).  The diagonal sum_k |A_ik|^2
    is real: each pair t < u of the terms of A_ik is taken once, and its
    slot doubled.  p_3 and p_4 read the slots as packed-key dicts.  With
    A_ji the conjugate of A_ij, p_3 = sum_i (A^2)_ii A_ii + 2 Re sum_{i<j} (A^2)_ij A_ji
    and p_4 = sum_i (A^2)_ii^2 + 2 sum_{i<j} |(A^2)_ij|^2; each product that
    feeds a power sum accumulates only its real part.  A square takes each
    unordered pair of its terms once, x^2 = sum_t x_t^2 m_t^2 +
    2 sum_{t<u} x_t x_u m_t m_u, and |x|^2 likewise with Re(x_t conj(x_u));
    the weights 1, 2, 2, 4 are applied to each summed coefficient, not to
    each product.
    """
    n = len(A)
    width = n.bit_length()
    keys = [(1 << t * width) + (1 << u * width) for t, u in _PAIRS]
    # the nonzero terms of each entry as (t, re, im), t indexing p1, p2, p3, m
    index = {1 << t * width: t for t in range(4)}
    nonzero = [[[(index[key], re, im) for key, (re, im) in entry.items()] for entry in row] for row in A]
    square = []
    for row in nonzero:
        same, cross = [0] * 10, [0] * 10
        for entry in row:
            for a, (t, ar, ai) in enumerate(entry, 1):
                slots = _SLOT[t]
                same[slots[t]] += ar * ar + ai * ai
                for u, br, bi in entry[a:]:
                    cross[slots[u]] += ar * br + ai * bi
        total = [v + 2 * w for v, w in zip(same, cross)]
        square.append({keys[s]: v for s, v in enumerate(total) if v})
    diag = [{key: re for key, (re, _) in A[i][i].items()} for i in range(n)]
    sums = [None, _int_sum((a, 1) for a in diag), _int_sum((x, 1) for x in square)]
    if n >= 3:
        upper = {}
        for i, row in enumerate(nonzero):
            for j in range(i + 1, n):
                re, im = [0] * 10, [0] * 10
                for left, right in zip(row, nonzero[j]):
                    for t, ar, ai in left:
                        slots = _SLOT[t]
                        for u, br, bi in right:
                            s = slots[u]
                            re[s] += ar * br + ai * bi
                            im[s] += ai * br - ar * bi
                upper[i, j] = {keys[s]: (r, m) for s, (r, m) in enumerate(zip(re, im)) if r or m}
        paired = _re_dot((x, A[j][i]) for (i, j), x in upper.items())
        sums.append(_int_sum(((_int_dot(zip(square, diag)), 1), (paired, 2))))
    if n == 4:
        diag_squares, diag_pairs, upper_squares, upper_pairs = {}, {}, {}, {}
        dsq, dpr, usq, upr = diag_squares.get, diag_pairs.get, upper_squares.get, upper_pairs.get
        for x in square:
            terms = list(x.items())
            for t, (kt, a) in enumerate(terms, 1):
                diag_squares[kt + kt] = dsq(kt + kt, 0) + a * a
                for ku, b in terms[t:]:
                    diag_pairs[kt + ku] = dpr(kt + ku, 0) + a * b
        for x in upper.values():
            terms = list(x.items())
            for t, (kt, (ar, ai)) in enumerate(terms, 1):
                upper_squares[kt + kt] = usq(kt + kt, 0) + ar * ar + ai * ai
                for ku, (br, bi) in terms[t:]:
                    upper_pairs[kt + ku] = upr(kt + ku, 0) + ar * br + ai * bi
        sums.append(_int_sum(((diag_squares, 1), (diag_pairs, 2), (upper_squares, 2), (upper_pairs, 4))))
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

    It runs on B = D*h from ``build_hamiltonian``.  Each coefficient c'_j of
    det(E*I - B) is a polynomial with integer coefficients in the entries of
    B, whose coefficients are Gaussian integers, and it is real, because
    ``MatrixSet`` makes h Hermitian; so c'_j has int coefficients, as have
    the power sums from ``_hermitian_power_sums``.  Each Newton step is one
    integer dot product, and the sum it divides by k equals -k c'_{n-k}, so
    the division is exact; a remainder is an internal error, never rounded.
    Because det(E*I - D*h) = D^n det((E/D)*I - h), c'_j = D^(n-j) c_j, and
    c_j is handed over as the ints of c'_j over D^(n-j).
    """
    n = mset.n
    A, denom = build_hamiltonian(mset)
    width = n.bit_length()
    mask = (1 << width) - 1
    sums = _hermitian_power_sums(A)
    coeffs: list[dict] = [{}] * n + [{0: 1}]
    for k in range(1, n + 1):
        c = coeffs[n - k] = {}
        for key, v in _int_dot((coeffs[n - k + i], sums[i]) for i in range(1, k + 1)).items():
            c[key], r = divmod(-v, k)
            if r:
                raise RuntimeError(f"internal error: Newton identity sum not divisible by {k}")

    polys = [
        MultiPoly._make(
            {(key & mask, key >> width & mask, key >> 2 * width & mask, key >> 3 * width): v for key, v in c.items()},
            denom ** (n - j),
        )
        for j, c in enumerate(coeffs)
    ]
    return CharPoly(n, EPoly(polys))


def trace_and_det(cp: CharPoly) -> dict[str, tuple[Fraction, Fraction]]:
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
