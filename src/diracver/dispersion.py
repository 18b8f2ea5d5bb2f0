"""Dispersion residuals of a concrete matrix set.

``check_dispersion`` reduces the characteristic polynomial P(E) of a set
and its first r - 1 derivatives at the positive energy ``E_p = +sqrt(s)``
(``s = p.p + m^2``), each split into its even and odd part in ``E_p``, and
reports the residuals: all of them vanish exactly when ``E_p`` is a root of
multiplicity r for every momentum.

The (n, r) solver, which asks the same question of an unknown monic
polynomial, is ``solver``.  Its names are still answered here: the first
access imports ``solver`` and binds the name (PEP 562), so a command that
only checks a set never compiles the solver.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _forward
from .algebra import MultiPoly, _derivative_name, reduce_at_dispersion
from .symmat import CharPoly, MatrixSet, char_poly
from .symmat import build_hamiltonian  # unused here; perfbench patches it on this module

__all__ = ["DispersionReport", "check_dispersion"]


class DispersionReport(NamedTuple):
    """Even/odd residuals of P, P', ..., P^(r-1) at the positive energy."""

    multiplicity: int
    labels: tuple[str, ...]
    residuals: tuple[MultiPoly, ...]
    char: CharPoly
    passed: bool


def check_dispersion(mset: MatrixSet, r: int) -> DispersionReport:
    """Reduce the characteristic polynomial and its first r-1 derivatives at E_p."""
    if not 1 <= r <= mset.n:
        raise ValueError(f"multiplicity {r} outside 1..{mset.n}")
    cp = char_poly(mset)
    labels: list[str] = []
    residuals: list[MultiPoly] = []
    q = cp.poly
    for j in range(r):
        pair = reduce_at_dispersion(q)
        labels.extend([f"{_derivative_name(j)} even", f"{_derivative_name(j)} odd"])
        residuals.extend([pair.even_part, pair.odd_part])
        if j + 1 < r:
            q = q.derivative()
    passed = all(res.is_zero for res in residuals)
    return DispersionReport(r, tuple(labels), tuple(residuals), cp, passed)


__getattr__ = _forward(globals(), "solver")
