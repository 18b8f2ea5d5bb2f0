"""Exact unitaries and seeded samplers of Hermitian matrix sets.

``ExactUnitary`` is a unitary matrix with exact entries.  Each unitary is
cleared once, at construction, to Gaussian integers g over the lcm d of its
denominators, and keeps that form.  Validation is the integer Gram check
g g^dagger = d^2 I (``symmat._gram_is_identity``, upper triangle only);
products and conjugations multiply the cleared forms and rebuild each
result entry once.

``random_exact_unitary`` composes random phases, signed permutations and
Pythagorean rotations; ``random_hermitian_set`` draws a generic set with
small rational entries; ``perturbed_set`` moves a few entries of a set,
keeping it Hermitian.  Every draw comes from the ``random.Random`` passed
in, so a seed fixes the sample.  No command runs this module: it feeds the
tests, the benchmark and ``scripts/equivalence_experiment.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .algebra import _CR_ONE, _CR_ZERO, ComplexRational, Scalar, _Validated, as_scalar
from .symmat import Matrix, MatrixSet, _cleared, _exact_entries, _gi_mat_mul, _gram_is_identity, _rebuilt, mat_identity

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

    Every construction, products and daggers included, clears the matrix
    once to Gaussian integers g over the lcm d of its denominators and
    checks g g^dagger = d^2 I in integers.  The cleared form is kept on the
    instance as ``_gi``, outside the tuple of fields, so equality, hash and
    repr ignore it.  Products and conjugations multiply cleared forms and
    rebuild each entry of the result once.  int and Fraction entries are
    coerced by ``as_scalar``, as in ``MatrixSet``.
    """

    def __new__(cls, matrix: Matrix) -> "ExactUnitary":
        n = len(matrix)
        if not n or any(len(row) != n for row in matrix):
            raise ValueError("unitary must be square and nonempty")
        matrix = _exact_entries(matrix)
        g, d = _cleared(matrix)
        if not _gram_is_identity(g, d):
            raise ValueError("matrix is not exactly unitary")
        self = super().__new__(cls, matrix)
        self._gi = (g, d)
        return self

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
        return cls(tuple(tuple(values[i] if i == j else _CR_ZERO for j in range(n)) for i in range(n)))

    @classmethod
    def signed_permutation(cls, perm: Sequence[int], signs: Sequence[Scalar] | None = None) -> "ExactUnitary":
        n = len(perm)
        values = [as_scalar(s) for s in signs] if signs else [_CR_ONE] * n
        rows = [[_CR_ZERO] * n for _ in range(n)]
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
