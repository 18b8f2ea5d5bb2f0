"""Independent reference implementations used only to cross-check the package.

These deliberately avoid the code paths they validate: determinants are
expanded by cofactors instead of power sums and Newton's identities,
polynomial reduction is redone with generic long division, the
multiplicity conditions are rebuilt at a concrete energy instead of over s,
matrix products, anticommutators, unitarity tests, conjugations and the
Gram-Schmidt basis of beta's eigenspaces are plain ComplexRational sums
instead of Gaussian-integer kernels, and the alpha blocks are read off entry by entry in an explicit
eigenbasis of beta instead of through projector traces (or, in
``alpha_structure_reference``, through the same traces taken over
ComplexRational).  Polynomials are evaluated, substituted and checked for
homogeneity term by term, outside the classes they check, and h(p) is
summed in MultiPoly arithmetic instead of packed Gaussian integers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import isqrt, perm
from typing import Sequence

from diracver.algebra import MASS, P1, P2, P3, ComplexRational, EPoly, MultiPoly, render_fraction
from diracver.dispersion import SPoly
from diracver.symmat import Matrix, MatrixSet


def det_cofactor(matrix: Matrix) -> ComplexRational:
    """Determinant of a scalar matrix by Laplace expansion along the first row."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = ComplexRational(0)
    for j in range(n):
        if matrix[0][j]:
            minor = tuple(tuple(row[k] for k in range(n) if k != j) for row in matrix[1:])
            term = matrix[0][j] * det_cofactor(minor)
            total = total + term if j % 2 == 0 else total - term
    return total


def evaluate(poly: MultiPoly, point: Sequence) -> ComplexRational:
    """Exact value of ``poly`` at a (p1, p2, p3, m) point of ints, Fractions or ComplexRationals."""
    values = [ComplexRational(v) if not isinstance(v, ComplexRational) else v for v in point]
    total = ComplexRational(0)
    for mono, coeff in poly.terms():
        term = coeff
        for v, e in zip(values, mono):
            for _ in range(e):
                term = term * v
        total = total + term
    return total


def term_degrees(poly: MultiPoly) -> set[int]:
    """The total degrees of the terms of ``poly``: at most one for a homogeneous polynomial."""
    return {sum(mono) for mono, _ in poly.terms()}


def spoly_at(p: SPoly, s: Fraction) -> Fraction:
    """The value of ``p`` at the number ``s``, by Horner's rule."""
    total = Fraction(0)
    for c in reversed(p.coeffs):
        total = total * s + c
    return total


def spoly_to_multipoly(p: SPoly, massless: bool) -> MultiPoly:
    """``p`` with s replaced by p1^2 + p2^2 + p3^2 + m^2, or p1^2 + p2^2 + p3^2 when massless."""
    s = P1 * P1 + P2 * P2 + P3 * P3 + (MultiPoly.zero() if massless else MASS * MASS)
    out = MultiPoly.zero()
    power = MultiPoly.constant(1)
    for c in p.coeffs:
        out = out + power * c
        power = power * s
    return out


def epoly_cofactor_det(matrix: list[list[EPoly]]) -> EPoly:
    """Determinant by Laplace expansion along the first row, in EPoly arithmetic."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total = EPoly.zero()
    for j in range(n):
        entry = matrix[0][j]
        if entry.is_zero:
            continue
        minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
        term = entry * epoly_cofactor_det(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def char_poly_cofactor(matrix: Matrix) -> EPoly:
    """det(E*I - M) for a scalar matrix, via cofactor expansion."""
    n = len(matrix)
    shifted = [
        [
            EPoly([MultiPoly.constant(-matrix[i][j])] + ([1] if i == j else []))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return epoly_cofactor_det(shifted)


def hamiltonian_reference(mset: MatrixSet) -> list[list[MultiPoly]]:
    """h(p) = alpha1*p1 + alpha2*p2 + alpha3*p3 + beta*m, entry by entry in MultiPoly arithmetic."""
    n = mset.n
    pairs = list(zip((P1, P2, P3, MASS), (*mset.alphas, mset.beta)))
    return [[sum((v * m[i][j] for v, m in pairs), MultiPoly.zero()) for j in range(n)] for i in range(n)]


def char_poly_cofactor_pm(mset: MatrixSet) -> EPoly:
    """det(E*I - h(p)) for the h(p) of a set, via cofactor expansion."""
    h = hamiltonian_reference(mset)
    n = mset.n
    shifted = [
        [EPoly([-h[i][j]] + ([1] if i == j else [])) for j in range(n)]
        for i in range(n)
    ]
    return epoly_cofactor_det(shifted)


def epoly_long_division(q: EPoly, divisor: EPoly) -> tuple[EPoly, EPoly]:
    """Generic long division (monic divisor) in the energy variable."""
    assert divisor.coeff(divisor.degree) == MultiPoly.constant(1), "divisor must be monic"
    d = divisor.degree
    rem = list(q.coeffs)
    quot = [MultiPoly.zero()] * max(0, len(rem) - d)
    for k in range(len(rem) - 1, d - 1, -1):
        t = rem[k]
        if t.is_zero:
            continue
        quot[k - d] = quot[k - d] + t
        for i in range(d + 1):
            rem[k - d + i] = rem[k - d + i] - t * divisor.coeff(i)
    return EPoly(quot), EPoly(rem)


def multiplicity_system(n: int, r: int, energy: Fraction) -> list[list[Fraction]]:
    """Augmented rows [A | b] of P^(j)(+-energy) = 0, j < r, in c_0..c_{n-1}.

    P(E) = E^n + sum_k c_k E^k, so in P^(j)(E) = 0 the coefficient of c_k
    is perm(k, j)*E^(k-j) and the right-hand side is -perm(n, j)*E^(n-j).
    Both signs of the energy are roots, so the system has 2r rows.
    """
    rows = []
    for j in range(r):
        for e in (Fraction(energy), -Fraction(energy)):
            coeffs = [perm(k, j) * e ** (k - j) if k >= j else Fraction(0) for k in range(n)]
            rows.append(coeffs + [-perm(n, j) * e ** (n - j)])
    return rows


def fraction_rank(rows: list[list[Fraction]]) -> int:
    """Rank of a Fraction matrix by plain row reduction."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            factor = rows[i][col] / rows[rank][col]
            rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def random_fraction(rng: random.Random, span: int = 2, denominators=(1, 2)) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice(denominators))


def random_scalar(rng: random.Random) -> ComplexRational:
    return ComplexRational(random_fraction(rng), random_fraction(rng))


def random_multipoly(rng: random.Random, max_terms: int = 3, max_exp: int = 2) -> MultiPoly:
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(4))
        terms[mono] = random_scalar(rng)
    return MultiPoly(terms)


def random_epoly(rng: random.Random, max_degree: int = 6) -> EPoly:
    return EPoly([random_multipoly(rng) for _ in range(rng.randint(0, max_degree + 1))])


def random_hermitian_matrix(rng: random.Random, n: int) -> Matrix:
    raw = [[random_scalar(rng) for _ in range(n)] for _ in range(n)]
    half = Fraction(1, 2)
    return tuple(
        tuple((raw[i][j] + raw[j][i].conj()) * half for j in range(n)) for i in range(n)
    )


def mat_mul_reference(a: Matrix, b: Matrix) -> Matrix:
    """Matrix product by the textbook triple loop, one ComplexRational op at a time."""
    n = len(a)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            total = ComplexRational(0)
            for k in range(n):
                total = total + a[i][k] * b[k][j]
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)


def anticommutator_reference(a: Matrix, b: Matrix) -> Matrix:
    """ab + ba from two reference products, added entry by entry."""
    ab, ba = mat_mul_reference(a, b), mat_mul_reference(b, a)
    return tuple(tuple(x + y for x, y in zip(row_ab, row_ba)) for row_ab, row_ba in zip(ab, ba))


def dagger_reference(a: Matrix) -> Matrix:
    n = len(a)
    return tuple(tuple(a[j][i].conj() for j in range(n)) for i in range(n))


def unitary_reference(matrix) -> bool:
    """Whether ``matrix`` is square, nonempty and satisfies U U^dagger = 1,
    by a reference product compared entry by entry with the identity."""
    n = len(matrix)
    if n == 0 or any(len(row) != n for row in matrix):
        return False
    gram = mat_mul_reference(matrix, dagger_reference(matrix))
    return all(gram[i][j] == (1 if i == j else 0) for i in range(n) for j in range(n))


def conjugate_reference(u: Matrix, x: Matrix) -> Matrix:
    """U X U^dagger from two reference products."""
    return mat_mul_reference(u, mat_mul_reference(x, dagger_reference(u)))


def _gaussian_unit_factor(q: Fraction) -> ComplexRational | None:
    """A Gaussian rational c with |c|^2 = 1/q, from a small search, or None."""
    for z in range(1, 13):
        for x, y in product(range(z + 1), repeat=2):
            if Fraction(x * x + y * y, z * z) * q == 1:
                return ComplexRational(Fraction(x, z), Fraction(y, z))
    return None


def unit_eigenbasis(beta: Matrix) -> Matrix | None:
    """A unitary with Gaussian-rational entries whose columns are eigenvectors
    of an involutive Hermitian beta, the +1 ones first; None if the small
    search finds no unit factor for some column.

    Columns of (1 +- beta)/2 are orthogonalised one at a time and each is
    scaled by a Gaussian rational of the right modulus, which exists for
    more bases than a rational square root does (|1 + i|^2 = 2).
    """
    n = len(beta)
    columns = []
    for sign in (1, -1):
        projector = [
            [((1 if i == j else 0) + sign * beta[i][j]) * Fraction(1, 2) for j in range(n)]
            for i in range(n)
        ]
        for j in range(n):
            v = [projector[i][j] for i in range(n)]
            for u in columns:
                uu = sum((x.conj() * x for x in u), ComplexRational(0))
                uv = sum((x.conj() * y for x, y in zip(u, v)), ComplexRational(0))
                v = [y - x * (uv / uu) for x, y in zip(u, v)]
            if any(v):
                columns.append(v)
    scaled = []
    for v in columns:
        factor = _gaussian_unit_factor(sum((x.abs2() for x in v), Fraction(0)))
        if factor is None:
            return None
        scaled.append([x * factor for x in v])
    return tuple(tuple(scaled[j][i] for j in range(len(scaled))) for i in range(n))


_DIAGONAL_BLOCKS = [(i, j) for i in range(4) for j in range(4) if (i < 2) == (j < 2)]


def block_reader(alphas, unitary: Matrix) -> tuple[tuple[bool, ...], tuple[Fraction, ...]]:
    """Conjugate each alpha into the basis of ``unitary``'s columns and read its entries.

    Returns, per alpha, whether both diagonal 2x2 blocks vanish and the
    squared norm of the upper off-diagonal block.
    """
    dagger = dagger_reference(unitary)
    blocks, norms = [], []
    for alpha in alphas:
        c = mat_mul_reference(dagger, mat_mul_reference(alpha, unitary))
        blocks.append(all(c[i][j].is_zero for i, j in _DIAGONAL_BLOCKS))
        norms.append(sum((c[i][j].abs2() for i in (0, 1) for j in (2, 3)), Fraction(0)))
    return tuple(blocks), tuple(norms)


def _inner(u: Sequence[ComplexRational], v: Sequence[ComplexRational]) -> ComplexRational:
    total = ComplexRational(0)
    for x, y in zip(u, v):
        total = total + x.conj() * y
    return total


def gram_schmidt_reference(matrix: Matrix) -> list[tuple[ComplexRational, ...]]:
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


def canonical_form_reference(beta: Matrix) -> tuple[tuple[int, int], str | None, Matrix | None]:
    """The eigenspace dimensions of an involutive Hermitian 4x4 beta and, when
    they are (2, 2), the description and transform of its canonical form.

    The orthogonal bases of (1 +- beta)/2 come from ``gram_schmidt_reference``;
    the transform, their unit-normalised columns, exists when every squared
    column norm is the square of a rational.
    """
    bases = []
    for sign in (1, -1):
        projector = tuple(
            tuple(((1 if i == j else 0) + sign * beta[i][j]) * Fraction(1, 2) for j in range(4))
            for i in range(4)
        )
        bases.append(gram_schmidt_reference(projector))
    dims = (len(bases[0]), len(bases[1]))
    if dims != (2, 2):
        return dims, None, None
    columns = bases[0] + bases[1]
    norms = [_inner(v, v).re for v in columns]
    roots = [Fraction(isqrt(q.numerator), isqrt(q.denominator)) for q in norms]
    if any(root * root != q for root, q in zip(roots, norms)):
        shown = ", ".join(render_fraction(q) for q in norms)
        return dims, f"orthogonal basis with squared column norms {shown} (not unit-normalisable over Q)", None
    transform = tuple(tuple(columns[j][i] / ComplexRational(roots[j]) for j in range(4)) for i in range(4))
    identity = tuple(tuple(ComplexRational(1 if i == j else 0) for j in range(4)) for i in range(4))
    description = "identity (beta already canonical)" if transform == identity else "exact rational unitary"
    return dims, description, transform


def alpha_structure_reference(beta: Matrix, alpha: Matrix) -> tuple[bool, Fraction]:
    """Whether M + M^dagger vanishes for M = beta alpha, and (Tr(alpha^2) - Tr(M^2))/4,
    from reference products."""
    m = mat_mul_reference(beta, alpha)
    blocks = all(x + y.conj() == 0 for row, col in zip(m, zip(*m)) for x, y in zip(row, col))
    traces = [mat_mul_reference(x, x) for x in (alpha, m)]
    t_alpha, t_m = (sum((t[i][i] for i in range(len(t))), ComplexRational(0)) for t in traces)
    return blocks, (t_alpha - t_m).re / 4
