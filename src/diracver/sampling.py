"""Exact unitaries and seeded samplers of Hermitian matrix sets.

``ExactUnitary`` is a unitary matrix with exact entries.  Each unitary is
cleared once, at construction, to Gaussian-integer rows g over the lcm d of
its denominators (``symmat._cleared``), and keeps that form.  Validation is
the integer Gram check g g^dagger = d^2 I (``symmat._gram_is_identity``,
upper triangle only).  A conjugation clears the four matrices of a set in
one call, multiplies rows and rebuilds each result entry once.

``random_exact_unitary`` applies random phases, signed permutations and
Pythagorean rotations as integer row operations and checks the result once;
``random_hermitian_set`` draws a generic set with small rational entries;
``perturbed_set`` moves a few entries of a set, keeping it Hermitian.  Every
draw comes from the ``random.Random`` passed in, so a seed fixes the sample.
No command runs this module: it feeds the tests, the benchmark and
``scripts/equivalence_experiment.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import NamedTuple

from .algebra import ComplexRational, _Validated
from .symmat import Matrix, MatrixSet, _cleared, _gi_mat_mul, _gram_is_identity, _rebuilt, as_matrix

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

    Every construction clears the matrix once to Gaussian integers g over
    the lcm d of its denominators and checks g g^dagger = d^2 I in
    integers.  The cleared form is kept on the instance as ``_gi``, outside
    the tuple of fields, so equality, hash and repr ignore it; conjugations
    multiply it and rebuild each entry of the result once.  The matrix goes
    through ``as_matrix``, as in ``MatrixSet``.
    """

    def __new__(cls, matrix: Matrix) -> "ExactUnitary":
        n = len(matrix)
        if not n or any(len(row) != n for row in matrix):
            raise ValueError("unitary must be square and nonempty")
        matrix = as_matrix(matrix)
        (g,), d = _cleared(matrix)
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
        xs, dx = _cleared(*mset.alphas, mset.beta)
        denom = d * d * dx
        *alphas, beta = (_rebuilt(_gi_mat_mul(g, _gi_mat_mul(x, g_dag)), denom) for x in xs)
        return MatrixSet(
            mset.n,
            alphas,
            beta,
            label=label if label is not None else f"{mset.label} (conjugated)",
        )


# (a, b, h) with a^2 + b^2 = h^2: the rotations by cos = a/h, sin = b/h
_PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17))
# the phases 1, -1, i, -i as Gaussian integers (re, im)
_UNITS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def _coin(rng: random.Random) -> bool:
    """A fair coin flip, drawn as rng.random() < 1/2 so that seeded samples keep their values."""
    return rng.random() < Fraction(1, 2)


def _times(u: tuple[int, int], row: list) -> list:
    """The Gaussian integer u times each Gaussian integer of ``row``."""
    p, q = u
    return [(p * re - q * im, p * im + q * re) for re, im in row]


def _plus(x: list, y: list) -> list:
    """Two rows of Gaussian integers added entry by entry."""
    return [(a + c, b + e) for (a, b), (c, e) in zip(x, y)]


def random_exact_unitary(rng: random.Random, n: int = 4, steps: int = 3) -> ExactUnitary:
    """Compose ``steps`` random generators, each applied on the left: a phase
    per row, a signed permutation, or a Pythagorean rotation of two rows.

    The matrix so far is kept as Gaussian integers g over one denominator
    d, and each generator is a row operation on g.  A rotation with
    cos = a/h and sin = s/h (s = b or i*b) sets rows i, j to a g_i + s g_j
    and -conj(s) g_i + a g_j, and multiplies every other row, and d, by h.
    The result is built once, so the ``ExactUnitary`` Gram check proves it.
    """
    g = [[(int(i == j), 0) for j in range(n)] for i in range(n)]
    d = 1
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 0:
            g = [_times(rng.choice(_UNITS), row) for row in g]
        elif kind == 1:
            perm = rng.sample(range(n), n)
            moved = g[:]
            for row, target in zip(g, perm):
                moved[target] = _times(rng.choice(_UNITS), row)
            g = moved
        else:
            i, j = sorted(rng.sample(range(n), 2))
            a, b, h = rng.choice(_PYTHAGOREAN)
            s = (0, b) if _coin(rng) else (b, 0)
            gi, gj = g[i], g[j]
            g = [_times((h, 0), row) for row in g]
            g[i] = _plus(_times((a, 0), gi), _times(s, gj))
            g[j] = _plus(_times((-s[0], s[1]), gi), _times((a, 0), gj))
            d *= h
    return ExactUnitary(_rebuilt(g, d))


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
    return MatrixSet(
        n,
        matrices[:3],
        matrices[3],
        label=label if label is not None else f"{base.label} (perturbed)",
    )
