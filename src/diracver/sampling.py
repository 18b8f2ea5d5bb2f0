"""Exact unitaries and seeded samplers of Hermitian matrix sets.

``ExactUnitary`` is a unitary matrix with exact entries, kept with its
Gaussian-integer rows g over the lcm d of its denominators.  Validation is
the integer Gram check g g^dagger = d^2 I (``symmat._gram_is_identity``,
upper triangle only).  A conjugation multiplies the rows that the unitary
and the ``MatrixSet`` keep.  ``random_exact_unitary`` and ``conjugate_set``
hand the rows they computed, divided by their content (``_reduced``), to
the record's ``_checked``, the same check that ``__new__`` runs after
``symmat._cleared``, so no result is cleared a second time.

``random_exact_unitary`` applies random phases, signed permutations and
Pythagorean rotations as integer row operations (a phase keeps a row, negates
its parts or swaps them; a rotation mixes two rows and scales each other row
once) and checks the result once, on the rows it computed;
``random_hermitian_set`` draws a generic set with small rational entries,
as Gaussian integers over 2, and builds each Hermitian entry once;
``perturbed_set`` moves a few entries of a set, keeping it Hermitian.  Every
draw comes from the ``random.Random`` passed in, so a seed fixes the sample.
No command runs this module: it feeds the tests, the benchmark and
``scripts/equivalence_experiment.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd
from typing import NamedTuple

from .algebra import ComplexRational, _Validated
from .symmat import _GI_ZERO, Matrix, MatrixSet, _cleared, _gi_mat_mul, _gram_is_identity, _rebuilt, as_matrix

__all__ = [
    "ExactUnitary",
    "random_exact_unitary",
    "random_hermitian_set",
    "perturbed_set",
]


class _ExactUnitaryFields(NamedTuple):
    matrix: Matrix


class ExactUnitary(_Validated, _ExactUnitaryFields):
    """Unitary matrix with exact entries, validated at construction.

    The matrix goes through ``as_matrix``, as in ``MatrixSet``, and is
    cleared once to Gaussian integers g over the lcm d of its denominators;
    ``_checked`` then checks g g^dagger = d^2 I in integers and keeps g and
    d as ``_gi``, outside the tuple of fields, so equality, hash and repr
    ignore them.
    """

    def __new__(cls, matrix: Matrix) -> "ExactUnitary":
        n = len(matrix)
        if not n or any(len(row) != n for row in matrix):
            raise ValueError("unitary must be square and nonempty")
        matrix = as_matrix(matrix)
        (g,), d = _cleared(matrix)
        return cls._checked(matrix, g, d)

    @classmethod
    def _checked(cls, matrix: Matrix, g: list, d: int) -> "ExactUnitary":
        """The unitary ``matrix`` whose rows ``_cleared`` gives as ``g`` over ``d``, once they pass the Gram check."""
        if not _gram_is_identity(g, d):
            raise ValueError("matrix is not exactly unitary")
        self = super().__new__(cls, matrix)
        self._gi = (g, d)
        return self

    @property
    def n(self) -> int:
        return len(self.matrix)

    def conjugate_set(self, mset: MatrixSet, label: str | None = None) -> MatrixSet:
        """Apply X -> U X U^dagger to every matrix of the set.

        With U = g/d and the set's matrices X = x/D in Gaussian integers over
        their one denominator D, U X U^dagger is g (x g^dagger) over d^2 D.
        Every entry is computed, not only the upper triangle, so the
        Hermiticity check of the new set is real.
        """
        if self.n != mset.n:
            raise ValueError("dimension mismatch")
        g, d = self._gi
        g_dag = [[(re, -im) for re, im in col] for col in zip(*g)]
        xs, dx = mset._gi
        rows, denom = _reduced([_gi_mat_mul(g, _gi_mat_mul(x, g_dag)) for x in xs], d * d * dx)
        label = label if label is not None else f"{mset.label} (conjugated)"
        return MatrixSet._checked(mset.n, [_rebuilt(x, denom) for x in rows], rows, denom, label)


def _reduced(matrices: list, denom: int) -> tuple[list, int]:
    """Gaussian-integer ``matrices`` over ``denom`` divided by their content c, and denom / c.

    c is the gcd of ``denom`` and every part, so denom / c is the lcm of the
    entries' reduced denominators: the rows returned are what
    ``symmat._cleared`` gives for the entries, every zero the shared ``_GI_ZERO``.
    """
    c = denom
    for rows in matrices:
        for row in rows:
            for re, im in row:
                c = gcd(c, re, im)
    return [
        [[(re // c, im // c) if re or im else _GI_ZERO for re, im in row] for row in rows] for rows in matrices
    ], denom // c


# (a, b, h) with a^2 + b^2 = h^2: the rotations by cos = a/h, sin = b/h
_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
# the phases 1, -1, i, -i as row operations on Gaussian integers (re, im),
# which negate or swap the parts: i (re + i im) = -im + i re; rng.choice
# draws from this order, so reordering it moves every seeded unitary
_PHASES = (
    lambda row: row,
    lambda row: [(-re, -im) for re, im in row],
    lambda row: [(-im, re) for re, im in row],
    lambda row: [(im, -re) for re, im in row],
)


def _coin(rng: random.Random) -> bool:
    """A fair coin flip, rng.random() < 1/2, so that seeded samples keep their values.

    random() is k / 2^53 for an integer k, so doubling it is exact.
    """
    return rng.random() * 2 < 1


def random_exact_unitary(rng: random.Random, n: int = 4, steps: int = 3) -> ExactUnitary:
    """Compose ``steps`` random generators, each applied on the left: a phase
    per row, a signed permutation, or a Pythagorean rotation of two rows.

    The matrix so far is kept as Gaussian integers g over one denominator
    d, and each generator is a row operation on g.  A phase of 1 keeps a
    row, -1 negates its parts and +-i swaps them, negating one.  A rotation
    with cos = a/h and sin = s/h (s = b or i*b) forms rows i, j once from
    the old rows, as a g_i + s g_j and -conj(s) g_i + a g_j, and multiplies
    every other row, and d, by h.  The result is built once from g, reduced
    by its content, so the one ``ExactUnitary`` Gram check proves it.
    """
    g = [[(int(i == j), 0) for j in range(n)] for i in range(n)]
    d = 1
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            g = [rng.choice(_PHASES)(row) for row in g]
        elif kind == 1:
            perm = rng.sample(range(n), n)
            moved = g[:]
            for row, target in zip(g, perm):
                moved[target] = rng.choice(_PHASES)(row)
            g = moved
        else:
            i, j = sorted(rng.sample(range(n), 2))
            a, b, h = rng.choice(_PYTHAGOREAN)
            pairs = list(zip(g[i], g[j]))
            if _coin(rng):  # s = i*b, so -conj(s) = i*b
                row_i = [(a * xi - b * yj, a * yi + b * xj) for (xi, yi), (xj, yj) in pairs]
                row_j = [(a * xj - b * yi, a * yj + b * xi) for (xi, yi), (xj, yj) in pairs]
            else:  # s = b, so -conj(s) = -b
                row_i = [(a * xi + b * xj, a * yi + b * yj) for (xi, yi), (xj, yj) in pairs]
                row_j = [(a * xj - b * xi, a * yj - b * yi) for (xi, yi), (xj, yj) in pairs]
            g = [
                row_i if k == i else row_j if k == j else [(h * re, h * im) for re, im in row]
                for k, row in enumerate(g)
            ]
            d *= h
    (g,), d = _reduced([g], d)
    return ExactUnitary._checked(_rebuilt(g, d), g, d)


def _random_hermitian_matrix(rng: random.Random, n: int) -> Matrix:
    """The Hermitian part (r + r^dagger)/2 of a random matrix r.

    Each raw entry is drawn row by row, its real part and then its
    imaginary part, each as randint(-2, 2) over choice((1, 2)), and kept as
    integers (a, b) over 2.  Entry (i, j) is then
    (a_ij + a_ji + (b_ij - b_ji) i)/4, built once.
    """

    def halves() -> int:
        return rng.randint(-2, 2) * (2 // rng.choice((1, 2)))

    raw = [[(halves(), halves()) for _ in range(n)] for _ in range(n)]
    make = ComplexRational._from_ints
    return tuple(
        tuple(make(a + c, b - e, 4) for (a, b), (c, e) in zip(row, col))
        for row, col in zip(raw, zip(*raw))
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
    return MatrixSet(
        n,
        matrices[:3],
        matrices[3],
        label=label if label is not None else f"{base.label} (perturbed)",
    )
