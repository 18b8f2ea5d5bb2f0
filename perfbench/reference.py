"""A fixed reference task that tracks the speed of the machine during a run.

On a shared virtual machine other tenants slow every process down by tens
of percent, for milliseconds to minutes at a time, so two runs of the same
code minutes apart can differ by a quarter.  The runner therefore times this
task, which uses nothing of diracver and never changes, between its
operations, and scales each measured time by how long the task took around
that moment: a time is reported as it would read on a machine on which the
task takes its nominal time.  A change to diracver moves the scaled times as
it moves the raw ones; a slow spell of the host moves the task and the
operation alike and cancels.

The task is exact rational arithmetic, like the symbolic audits: the
characteristic polynomial of a fixed 5x5 rational matrix by the
Faddeev-LeVerrier recurrence.  Workloads whose operations are fresh
processes time instead the start of a bare interpreter (``python -S -c
pass``), because the speed of starting a process and that of a long-running
one drift apart: scaled by the task in the benchmark's own process, the
times of fresh ``python -m diracver`` runs spread more than unscaled ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
from bisect import bisect_left
from fractions import Fraction
from time import perf_counter

# typical times on the 2-vCPU machine of the recorded baseline: of the
# task, and of starting a bare interpreter
NOMINAL_S = 0.004
NOMINAL_CHILD_S = 0.01
EVERY_S = 0.04  # time between two reference samples, at least
WINDOW = 10  # samples on each side of a moment that estimate its speed

_N = 5
# fixed entries (numerator, denominator); never change them
_ENTRIES = (
    (-9, 5), (7, 4), (-2, 3), (5, 8), (1, 7),
    (3, 2), (-6, 7), (8, 9), (-1, 6), (4, 5),
    (2, 9), (-5, 3), (6, 5), (-7, 8), (9, 2),
    (-3, 4), (1, 9), (-8, 7), (7, 6), (-4, 3),
    (5, 6), (-2, 7), (3, 8), (-9, 4), (6, 1),
)
_MATRIX = [[Fraction(*_ENTRIES[_N * i + j]) for j in range(_N)] for i in range(_N)]
_EXPECTED = [Fraction(c) for c in (
    "1", "-1199/210", "-1689607/151200", "27070973/1587600",
    "-77357927447/2286144000", "121030758209/5334336000",
)]


def task() -> list[Fraction]:
    """Coefficients of det(xI - M), highest degree first."""
    m = _MATRIX
    mk = [[Fraction(int(i == j)) for j in range(_N)] for i in range(_N)]
    coeffs = [Fraction(1)]
    for k in range(1, _N + 1):
        am = [[sum(m[i][t] * mk[t][j] for t in range(_N)) for j in range(_N)] for i in range(_N)]
        c = -sum(am[i][i] for i in range(_N)) / k
        coeffs.append(c)
        mk = [[am[i][j] + (c if i == j else 0) for j in range(_N)] for i in range(_N)]
    return coeffs


def check() -> None:
    """Run the task once and check its result."""
    if task() != _EXPECTED:
        raise RuntimeError("reference task returned a different result")


class Speed:
    """Reference samples taken through a run, and the scale they imply."""

    def __init__(self, child: bool = False) -> None:
        self.child = child  # time the start of a bare interpreter instead of the task
        self.nominal_s = NOMINAL_CHILD_S if child else NOMINAL_S
        self.at: list[float] = []  # midpoint of each sample
        self.took: list[float] = []

    def sample(self) -> None:
        """Time the task, unless the last sample is less than ``EVERY_S`` old."""
        start = perf_counter()
        if self.at and start - self.at[-1] < EVERY_S:
            return
        if self.child:
            # no timeout: waiting with one polls in steps of milliseconds
            subprocess.run([sys.executable, "-S", "-c", "pass"], check=True)
        else:
            check()
        end = perf_counter()
        self.at.append((start + end) / 2)
        self.took.append(end - start)

    def scale(self, moment: float) -> float:
        """Factor that turns a time measured at ``moment`` into nominal time."""
        k = bisect_left(self.at, moment)
        around = self.took[max(0, k - WINDOW):k + WINDOW]
        return self.nominal_s / statistics.median(around)

    def nominal(self, start: float, elapsed: float) -> float:
        """A time measured from ``start`` for ``elapsed`` seconds, in nominal time."""
        return elapsed * self.scale(start + elapsed / 2)
