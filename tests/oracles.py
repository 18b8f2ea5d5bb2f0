"""Independent reference implementations used only to cross-check the package.

These deliberately avoid the code paths they validate: determinants are
expanded by cofactors instead of the Faddeev-LeVerrier recurrence,
polynomial reduction is redone with generic long division, and the
multiplicity conditions are rebuilt at a concrete energy instead of over s.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import perm

from diracver.algebra import ComplexRational, EPoly, MultiPoly
from diracver.symmat import Matrix, PolyMatrix


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


def char_poly_cofactor_pm(pm: PolyMatrix) -> EPoly:
    """det(E*I - M) for a polynomial matrix, via cofactor expansion."""
    n = pm.n
    shifted = [
        [EPoly([-pm.entries[i][j]] + ([1] if i == j else [])) for j in range(n)]
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
