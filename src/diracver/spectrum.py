"""Floating-point cross-validation of the exact machinery.

Builds h(p) = alpha.p + beta*m as a complex Hermitian array at concrete
momenta, solves it with a dense Hermitian eigensolver, and checks the
eigenvalue pattern {-E_p, -E_p, +E_p, +E_p} plus the two-dimensional
positive-energy eigenspace.  Tolerances are split deliberately: 1e-10 for
eigenpair residuals, 1e-9 for eigenvalue agreement, and a loud 1e-6 flag
for broken degeneracy or broken +/- symmetry, so physics violations stand
out far above numerical noise.  Both of the sweep's bounds scale with h:
the eigenvalue residual bound is ``1e-9 * (1 + |p|*a + m*b)`` and a row is
flagged when its defect exceeds ``1e-6 * (1 + |p|*a + m*b)``, where ``a``
and ``b`` are the largest entry moduli of the alphas and of beta, each
raised to at least 1: a backward stable solver's error grows with the size
of h, and on sets with unit entries the scale is ``1 + |p| + m``.

numpy is imported by the functions that compute, not at module level, so
importing this module (and with it ``diracver`` and ``diracver.cli``) does
not load it; it loads on the first numeric call.

Each ``MatrixSet`` is converted to complex once: its four matrices become
one read-only ``(4, n, n)`` stack, kept on the instance.  ``sweep`` builds
the Hamiltonians of a whole grid from that stack and solves them with
batched ``np.linalg.eigh`` calls of at most ``_CHUNK`` points each, so
memory stays bounded on the largest grids; the flags are read off each
batch's eigenvalue array.  ``eigensolve`` is ``sweep`` on a grid of one
point.  The Hamiltonian is summed in the order
``p1*alpha1 + p2*alpha2 + p3*alpha3 + m*beta`` on every path, and each
matrix of a batch goes through the same LAPACK routine as a single one, so
the eigenvalues do not depend on how the grid was chunked.

``positive_energy_spinors`` runs one ``eigh`` per point.  The eigenvalues
come back ascending, so the two at +E_p are adjacent and their vectors are
taken as one ``(2, n)`` block.  Each vector is rotated so that its first
component of modulus above 1e-12 is real and positive, and that component
is then set to its modulus, so its imaginary part is exactly 0.  The residual
``|h u - E_p u|`` of each returned vector is checked against
``RESIDUAL_TOLERANCE * (1 + |p| + m)``.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple, Sequence

from .algebra import _Validated
from .symmat import Matrix, MatrixSet

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MomentumSample",
    "SpectrumRow",
    "SpinorBasis",
    "SweepResult",
    "RESIDUAL_TOLERANCE",
    "EIGENVALUE_TOLERANCE",
    "DEGENERACY_FLAG",
    "matrix_to_array",
    "hamiltonian_at",
    "eigensolve",
    "positive_energy_spinors",
    "sweep",
    "write_csv",
]

RESIDUAL_TOLERANCE = 1e-10
EIGENVALUE_TOLERANCE = 1e-9
DEGENERACY_FLAG = 1e-6


class _MomentumSampleFields(NamedTuple):
    p: tuple[float, float, float]
    m: float


class MomentumSample(_Validated, _MomentumSampleFields):
    """A concrete momentum vector and nonnegative mass."""

    __slots__ = ()

    def __new__(cls, p: tuple[float, float, float], m: float) -> "MomentumSample":
        if m < 0:
            raise ValueError("mass must be nonnegative")
        return super().__new__(cls, p, m)

    @property
    def energy(self) -> float:
        """The positive free-particle energy sqrt(p.p + m^2)."""
        return math.sqrt(self.p[0] ** 2 + self.p[1] ** 2 + self.p[2] ** 2 + self.m**2)

    @property
    def scale(self) -> float:
        """Residual scale 1 + |p| + m used by the tolerance contracts."""
        return 1.0 + math.sqrt(self.p[0] ** 2 + self.p[1] ** 2 + self.p[2] ** 2) + self.m


class SpectrumRow(NamedTuple):
    sample: MomentumSample
    eigenvalues: tuple[float, ...]


class SpinorBasis(NamedTuple):
    """Two orthonormal positive-energy eigenvectors at one momentum."""

    vectors: tuple[np.ndarray, np.ndarray]
    energy: float


class SweepResult(NamedTuple):
    rows: tuple[SpectrumRow, ...]
    flagged: tuple[int, ...]  # indices of rows violating symmetry or degeneracy


def matrix_to_array(matrix: Matrix) -> np.ndarray:
    import numpy as np

    return np.array([[complex(x.re, x.im) for x in row] for row in matrix], dtype=np.complex128)


# Most points per eigh call: a (4096, 4, 4) complex array is 1 MB.
_CHUNK = 4096


def _combine(stack: np.ndarray, p1, p2, p3, m) -> np.ndarray:
    """p1*alpha1 + p2*alpha2 + p3*alpha3 + m*beta, for floats or (k, 1, 1) arrays."""
    return p1 * stack[0] + p2 * stack[1] + p3 * stack[2] + m * stack[3]


def hamiltonian_at(mset: MatrixSet, sample: MomentumSample) -> np.ndarray:
    return _combine(mset._complex_stack, *sample.p, sample.m)


def _defects(values: np.ndarray) -> np.ndarray:
    """Largest violation of +/- symmetry or, for n = 4, of pairwise double degeneracy, per row."""
    import numpy as np

    defect = abs(values + values[:, ::-1]).max(axis=1)
    if values.shape[1] == 4:  # e1 - e2 and e3 - e4
        defect = np.maximum(defect, abs(values[:, 0::2] - values[:, 1::2]).max(axis=1))
    return defect


def _entry_norms(stack: np.ndarray) -> tuple[float, float]:
    """The largest entry moduli of the alphas and of beta, each at least 1 (1.0 for unit entries)."""
    *alphas, beta = abs(stack).max(axis=(1, 2)).tolist()
    return max(1.0, *alphas), max(1.0, beta)


def sweep(mset: MatrixSet, grid: Sequence[MomentumSample]) -> SweepResult:
    """Ascending, residual-checked eigenvalues at every sample in order, flagging rows beyond 1e-6 * scale."""
    import numpy as np

    grid = tuple(grid)
    stack = mset._complex_stack
    alpha_norm, beta_norm = _entry_norms(stack)
    rows: list[SpectrumRow] = []
    flagged: list[int] = []
    for start in range(0, len(grid), _CHUNK):
        chunk = grid[start : start + _CHUNK]
        coefficients = np.array([(*sample.p, sample.m) for sample in chunk]).T
        p1, p2, p3, m = coefficients
        # an overflowing h gives non-finite residuals, which the check below rejects
        with np.errstate(over="ignore", invalid="ignore"):
            h = _combine(stack, *coefficients[:, :, None, None])
            values, vectors = np.linalg.eigh(h)
            residuals = np.max(np.abs(h @ vectors - vectors * values[:, None, :]), axis=(1, 2))
            scale = 1.0 + np.sqrt(p1**2 + p2**2 + p3**2) * alpha_norm + m * beta_norm
        # the scale itself is infinite when |p|*a or m*b overflows
        failed = np.flatnonzero(~(np.isfinite(residuals) & (residuals <= EIGENVALUE_TOLERANCE * scale)))
        if failed.size:
            raise RuntimeError(f"eigensolver residual {residuals[failed[0]]:.3e} out of tolerance")
        rows.extend(map(SpectrumRow, chunk, map(tuple, values.tolist())))
        flagged.extend((start + np.flatnonzero(_defects(values) > DEGENERACY_FLAG * scale)).tolist())
    return SweepResult(tuple(rows), tuple(flagged))


def eigensolve(mset: MatrixSet, sample: MomentumSample) -> SpectrumRow:
    """Ascending real eigenvalues of h(p), residual-checked."""
    return sweep(mset, (sample,)).rows[0]


def positive_energy_spinors(mset: MatrixSet, sample: MomentumSample) -> SpinorBasis:
    """Exactly two orthonormal eigenvectors of h(p) at +E_p, from one ``eigh``.

    The set is expected to satisfy the multiplicity-2 dispersion demand;
    a positive eigenspace of any other dimension is reported as an error.
    The two eigenvalues within ``1e-7 * scale`` of E_p are adjacent, so
    their vectors are one ``(2, n)`` block.  Each vector's first component
    of modulus above 1e-12 is rotated to be real and positive (exactly its
    modulus), so outputs are reproducible, and each residual
    ``|h u - E_p u|`` is checked against ``RESIDUAL_TOLERANCE * scale``.
    """
    import numpy as np

    energy, scale = sample.energy, sample.scale
    if energy <= 0.0:
        raise ValueError("E_p = 0: the positive-energy eigenspace is undefined")
    h = hamiltonian_at(mset, sample)
    values, vectors = np.linalg.eigh(h)
    select = [k for k, v in enumerate(values.tolist()) if abs(v - energy) <= 1e-7 * scale]
    if len(select) != 2:
        raise ValueError(
            f"positive eigenspace dimension {len(select)} != 2 at p={sample.p}, m={sample.m}"
        )
    rows = vectors.T[select[0] : select[0] + 2].tolist()
    for u in rows:
        # the first component of modulus above 1e-12 (every unit vector has one) fixes the phase and
        # is then set to its modulus, as the multiply leaves it an imaginary part of rounding size
        k, c = next((k, c) for k, c in enumerate(u) if abs(c) > 1e-12)
        phase = c.conjugate() / abs(c)
        u[:] = [x * phase for x in u]
        u[k] = abs(c)
    block = np.array(rows)
    # each row of the float view is one vector's residual as (re, im, re, im, ...)
    defects = (block @ h.T - energy * block).view(np.float64).tolist()
    residual = max(math.hypot(*row) for row in defects)
    if residual > RESIDUAL_TOLERANCE * scale:
        raise RuntimeError(f"spinor residual {residual:.3e} out of tolerance")
    return SpinorBasis((block[0], block[1]), energy)


def write_csv(rows: Sequence[SpectrumRow], stream) -> None:
    """CSV with 17-significant-digit values, one row per sample in input order."""
    n = len(rows[0].eigenvalues) if rows else 4
    header = ["px", "py", "pz", "m"] + [f"e{k}" for k in range(1, n + 1)]
    stream.write(",".join(header) + "\n")
    template = ",".join(["%.17g"] * (n + 4)) + "\n"  # "%.17g" % v is f"{v:.17g}", byte for byte
    for row in rows:
        stream.write(template % (*row.sample.p, row.sample.m, *row.eigenvalues))
