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
ComplexRational), and the seeded unitaries are composed generator by
generator as plain matrices instead of by row operations on Gaussian
integers.

Polynomials here have an arithmetic of their own, not the package's
``MultiPoly``/``EPoly``: a polynomial in (E, p1, p2, p3, m) is a plain dict
from its exponents ``(k, e1, e2, e3, e4)`` to a nonzero ComplexRational,
and ``poly_add``, ``poly_mul`` and ``poly_neg`` are all it needs.  h(p),
the cofactor determinants, long division and the substitution of s are
computed in it, and a library polynomial enters a comparison only through
``poly_of``, which reads its ``coeffs`` and ``terms()``.  The solver's
values y_k = c_k / s^((n-k)/2) are lifted back to coefficients here, from
energy dimensions the caller counts (n - k for c_k).
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce
from itertools import product
from math import isqrt, perm
from typing import Sequence

from diracver.algebra import ComplexRational, render_fraction
from diracver.symmat import Matrix, MatrixSet

# a polynomial in (E, p1, p2, p3, m): exponents (k, e1, e2, e3, e4) -> nonzero coefficient
Poly = dict


def poly_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for mono, c in b.items():
        total = out.pop(mono, 0) + c
        if total:
            out[mono] = total
    return out


def poly_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for ma, ca in a.items():
        for mb, cb in b.items():
            mono = tuple(x + y for x, y in zip(ma, mb))
            out[mono] = out.get(mono, 0) + ca * cb
    return {mono: c for mono, c in out.items() if c}


def poly_neg(a: Poly) -> Poly:
    return {mono: -c for mono, c in a.items()}


def constant(value) -> Poly:
    c = ComplexRational(value) if not isinstance(value, ComplexRational) else value
    return {(0, 0, 0, 0, 0): c} if c else {}


E, P1, P2, P3, MASS = ({tuple(int(i == k) for i in range(5)): ComplexRational(1)} for k in range(5))
S = reduce(poly_add, (poly_mul(v, v) for v in (P1, P2, P3, MASS)))  # the squared energy


def poly_of(q) -> Poly:
    """A library ``MultiPoly`` or ``EPoly`` as a dict, read through ``terms()`` and ``coeffs``.

    Each Fraction coefficient is lifted to a ComplexRational, so a comparison
    with an oracle polynomial compares ComplexRationals on both sides.
    """
    coeffs = (q,) if hasattr(q, "terms") else q.coeffs
    return {(k, *mono): ComplexRational(c) for k, poly in enumerate(coeffs) for mono, c in poly.terms()}


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


def evaluate(poly: Poly, point: Sequence) -> ComplexRational:
    """Exact value of an E-free ``poly`` at a (p1, p2, p3, m) point of ints, Fractions or ComplexRationals."""
    total = ComplexRational(0)
    for (k, *mono), coeff in poly.items():
        assert k == 0, "evaluate takes a polynomial free of E"
        term = coeff
        for v, e in zip(point, mono):
            for _ in range(e):
                term = term * v
        total = total + term
    return total


def term_degrees(poly: Poly) -> set[int]:
    """The total degrees of the terms of ``poly``: at most one for a homogeneous polynomial."""
    return {sum(mono) for mono in poly}


def lift_at_energy(y: Fraction, dimension: int, e0: Fraction) -> Fraction:
    """The coefficient of energy dimension ``dimension`` whose dimensionless value is ``y``,
    at the energy E_p = e0: y*e0^dimension, as s^(dimension/2) = E_p^dimension."""
    return y * e0**dimension


def lift_to_multipoly(y: Fraction, dimension: int) -> Poly:
    """y*s^(dimension/2) with s replaced by p1^2 + p2^2 + p3^2 + m^2; a nonzero y needs an
    even, nonnegative dimension."""
    if not y:
        return {}
    assert dimension >= 0 and dimension % 2 == 0, f"{y} at energy dimension {dimension}"
    out = constant(y)
    for _ in range(dimension // 2):
        out = poly_mul(out, S)
    return out


def epoly_cofactor_det(matrix: list[list[Poly]]) -> Poly:
    """Determinant by Laplace expansion along the first row, in dict arithmetic."""
    n = len(matrix)
    if n == 1:
        return matrix[0][0]
    total: Poly = {}
    for j in range(n):
        if matrix[0][j]:
            minor = [[row[k] for k in range(n) if k != j] for row in matrix[1:]]
            term = poly_mul(matrix[0][j], epoly_cofactor_det(minor))
            total = poly_add(total, term if j % 2 == 0 else poly_neg(term))
    return total


def _shifted_det(h: list[list[Poly]]) -> Poly:
    """det(E*I - h) by cofactor expansion."""
    n = len(h)
    return epoly_cofactor_det([[poly_add(E if i == j else {}, poly_neg(h[i][j])) for j in range(n)] for i in range(n)])


def char_poly_cofactor(matrix: Matrix) -> Poly:
    """det(E*I - M) for a scalar matrix, via cofactor expansion."""
    return _shifted_det([[constant(x) for x in row] for row in matrix])


def hamiltonian_reference(mset: MatrixSet) -> list[list[Poly]]:
    """h(p) = alpha1*p1 + alpha2*p2 + alpha3*p3 + beta*m, entry by entry in dict arithmetic."""
    n = mset.n
    pairs = list(zip((P1, P2, P3, MASS), (*mset.alphas, mset.beta)))
    return [[reduce(poly_add, (poly_mul(v, constant(m[i][j])) for v, m in pairs)) for j in range(n)] for i in range(n)]


def power_sums_reference(mset: MatrixSet) -> list[Poly | None]:
    """[None, Tr(h), Tr(h^2), ..., Tr(h^n)] for the h(p) of a set, from plain matrix powers."""
    h = hamiltonian_reference(mset)
    n = mset.n
    power, sums = h, [None]
    for k in range(1, n + 1):
        if k > 1:
            power = [
                [reduce(poly_add, (poly_mul(power[i][l], h[l][j]) for l in range(n))) for j in range(n)]
                for i in range(n)
            ]
        sums.append(reduce(poly_add, (power[i][i] for i in range(n))))
    return sums


def char_poly_cofactor_pm(mset: MatrixSet) -> Poly:
    """det(E*I - h(p)) for the h(p) of a set, via cofactor expansion."""
    return _shifted_det(hamiltonian_reference(mset))


def epoly_long_division(q: Poly, divisor: Poly) -> tuple[Poly, Poly]:
    """Generic long division in the energy variable by a divisor monic in E."""
    d = max(k for k, *_ in divisor)
    assert {mono: c for mono, c in divisor.items() if mono[0] == d} == {(d, 0, 0, 0, 0): 1}, "divisor must be monic"
    quot: Poly = {}
    rem = dict(q)
    while rem and (top := max(k for k, *_ in rem)) >= d:
        lead = {(k - d, *mono): c for (k, *mono), c in rem.items() if k == top}
        quot = poly_add(quot, lead)
        rem = poly_add(rem, poly_neg(poly_mul(lead, divisor)))
    return quot, rem


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


def random_multipoly(rng: random.Random, max_terms: int = 3, max_exp: int = 2, k: int = 0) -> Poly:
    """Up to ``max_terms`` random terms with real coefficients, as those of P(E), each times E^k."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[(k, *(rng.randint(0, max_exp) for _ in range(4)))] = ComplexRational(random_fraction(rng))
    return {mono: c for mono, c in terms.items() if c}


def random_epoly(rng: random.Random, max_degree: int = 6) -> Poly:
    return reduce(poly_add, (random_multipoly(rng, k=k) for k in range(rng.randint(0, max_degree + 1))), {})


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


def random_exact_unitary_reference(rng: random.Random, n: int, steps: int) -> Matrix:
    """What ``sampling.random_exact_unitary`` composes: the same draws in the
    same order, each generator written out as a plain matrix (a diagonal of
    phases, a signed permutation, or a rotation block [[c, s], [-conj(s), c]])
    and multiplied in on the left by ``mat_mul_reference``."""
    phases = (ComplexRational(1), ComplexRational(-1), ComplexRational(0, 1), ComplexRational(0, -1))
    pythagorean = ((Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(12, 13)), (Fraction(8, 17), Fraction(15, 17)))
    identity = [[ComplexRational(int(i == j)) for j in range(n)] for i in range(n)]
    out = identity
    for _ in range(steps):
        gen = [list(row) for row in identity]
        kind = rng.randrange(3)
        if kind == 0:
            for k in range(n):
                gen[k][k] = rng.choice(phases)
        elif kind == 1:
            perm = rng.sample(range(n), n)
            gen = [[ComplexRational(0)] * n for _ in range(n)]
            for col, row in enumerate(perm):
                gen[row][col] = rng.choice(phases)
        else:
            i, j = sorted(rng.sample(range(n), 2))
            c, s = rng.choice(pythagorean)
            sin_part = ComplexRational(0, s) if rng.random() < 0.5 else ComplexRational(s)
            gen[i][i] = gen[j][j] = ComplexRational(c)
            gen[i][j], gen[j][i] = sin_part, -sin_part.conj()
        out = mat_mul_reference(gen, out)
    return tuple(tuple(row) for row in out)


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


def abs2(x: ComplexRational) -> Fraction:
    """|x|^2, an exact nonnegative rational."""
    return (x.conj() * x).re


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
        factor = _gaussian_unit_factor(sum((abs2(x) for x in v), Fraction(0)))
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
        norms.append(sum((abs2(c[i][j]) for i in (0, 1) for j in (2, 3)), Fraction(0)))
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
