"""The benchmark's workloads: seeded inputs, one operation each, and its checks.

Every input is generated from the seed during set-up and diracver receives
only the generated matrix sets, grids and files.  Set-up runs in
``PARTS`` rounds with independent seeded generators; each round builds an
equal share of the input pool, so the reported set-up time is the median of
several equal set-ups and the measured pool is their union.

An operation raises :class:`Mismatch` when an output differs from what the
construction of its input predicts; the runner counts that, like any other
exception, as a failed operation.

The library is always called through module attributes (``clifford.
canonicalize_beta(...)``, never a name imported into this file), so the
traced run can swap those attributes for span wrappers.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from math import lcm
from pathlib import Path
from time import perf_counter

from diracver import algebra, cli, clifford, dispersion, spectrum, symmat

from spans import Tracer

PARTS = 3
CATALOG = clifford.CATALOG_NAMES

# (n, r) -> whether r positive-energy plane waves for all momenta are possible
# in dimension n; the source paper's table, used as an independent oracle.
SOLVE_FEASIBLE = {
    (1, 1): False,
    (2, 1): True,
    (2, 2): False,
    (3, 1): True,
    (3, 2): False,
    (3, 3): False,
    (4, 1): True,
    (4, 2): True,
    (4, 3): False,
    (4, 4): False,
}


class Mismatch(Exception):
    """An output that contradicts how the input was built."""


def denominator_digits(mset: symmat.MatrixSet) -> int:
    """Decimal digits of the largest entry denominator of a set."""
    return max(
        len(str(lcm(x.re.denominator, x.im.denominator)))
        for _, matrix in mset.matrices()
        for row in matrix
        for x in row
    )


def solve_table() -> None:
    """Solve every (n <= 4, r <= n) requirement and check it against the oracle."""
    for (n, r), feasible in SOLVE_FEASIBLE.items():
        result = dispersion.solve_forced_coefficients(dispersion.DegeneracyRequirement(n, r))
        if isinstance(result, dispersion.ForcedCoefficientSolution) != feasible:
            raise Mismatch(f"solve n={n} r={r}: feasibility differs from the known table")


def _conjugate(rng, steps: int = 3) -> symmat.MatrixSet:
    base = clifford.catalog(rng.choice(CATALOG))
    return clifford.random_exact_unitary(rng, steps=steps).conjugate_set(base)


def _share(counter: Counter) -> dict[str, float]:
    total = sum(counter.values())
    return {key: count / total for key, count in sorted(counter.items())}


class Workload:
    """Defaults shared by the workloads; subclasses fill in the rest."""

    name = ""
    item_unit = "item"  # what items_per_s counts
    op_unit = "operation"  # what op_p50_ms times
    fresh_processes = False  # whether an operation is a new process

    def setup_part(self, rng, part: int) -> list:
        raise NotImplementedError

    def run(self, item) -> int:
        """Run one operation, check it and return the number of items it did."""
        raise NotImplementedError

    def run_in_process(self, item) -> int:
        """The operation as the traced and counting passes run it."""
        return self.run(item)

    def traced(self, item, tracer: Tracer, op_id: int) -> tuple[int, float]:
        """Run one traced operation; return its items and a latency comparable to ``run``."""
        return tracer.run_op(op_id, lambda: self.run(item))

    def properties(self, items: list) -> dict:
        return {}

    def layer_extras(self) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# symbolic audits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AuditItem:
    kind: str
    mset: symmat.MatrixSet
    expect_pass: bool


def audit(item: AuditItem) -> int:
    """Equivalence audit, then beta canonicalisation and the alpha structure check."""
    verdict = clifford.equivalence_audit(item.mset)
    if not verdict.consistent:
        raise Mismatch(f"{item.kind}: dispersion and anticommutation verdicts disagree")
    if verdict.passed != item.expect_pass:
        raise Mismatch(f"{item.kind}: audit verdict {verdict.passed}, expected {item.expect_pass}")
    try:
        canonical = clifford.canonicalize_beta(item.mset)
    except ValueError:  # beta^2 != 1 or wrong eigenspaces: no canonical form
        structured = False
    else:
        structured = clifford.check_alpha_structure(canonical).passed
    if structured != item.expect_pass:
        raise Mismatch(f"{item.kind}: structure verdict {structured}, expected {item.expect_pass}")
    return 1


class AuditWorkload(Workload):
    item_unit = "set"
    op_unit = "set"
    run = staticmethod(audit)

    def properties(self, items: list[AuditItem]) -> dict:
        digits = [denominator_digits(item.mset) for item in items]
        return {
            "sets": len(items),
            "kind_share": _share(Counter(item.kind for item in items)),
            "expected_pass_share": sum(item.expect_pass for item in items) / len(items),
            "denominator_digits_median": statistics.median(digits),
            "denominator_digits_max": max(digits),
        }


class AuditMixed(AuditWorkload):
    """Small coefficients; the kinds in the proportions of the equivalence experiment."""

    name = "audit-mixed"
    # per set-up part; over all parts: 3 catalog, 30 conjugates, 60 perturbed and
    # 111 random sets, the 3:30:60:110 mix of scripts/equivalence_experiment.py
    CONJUGATES, PERTURBED, RANDOM = 10, 20, 37

    def setup_part(self, rng, part: int) -> list[AuditItem]:
        items = [AuditItem("catalog", clifford.catalog(CATALOG[part % len(CATALOG)]), True)]
        items += [AuditItem("conjugate", _conjugate(rng), True) for _ in range(self.CONJUGATES)]
        for _ in range(self.PERTURBED):
            base = clifford.catalog(rng.choice(CATALOG))
            mset = clifford.perturbed_set(rng, base, entries=rng.randint(1, 3))
            # perturbations can cancel exactly, leaving the (valid) base set
            unchanged = mset.alphas == base.alphas and mset.beta == base.beta
            items.append(AuditItem("perturbed", mset, unchanged))
        items += [
            AuditItem("random", clifford.random_hermitian_set(rng), False) for _ in range(self.RANDOM)
        ]
        return items


class AuditGrowth(AuditWorkload):
    """Catalog sets conjugated by long exact unitaries: large denominators."""

    name = "audit-growth"
    STEPS = (10, 30, 60)
    PER_STEPS = 16  # sets per step count and set-up part

    def setup_part(self, rng, part: int) -> list[AuditItem]:
        return [
            AuditItem(f"steps={steps}", _conjugate(rng, steps), True)
            for steps in self.STEPS
            for _ in range(self.PER_STEPS)
        ]


# ---------------------------------------------------------------------------
# numeric sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepItem:
    kind: str
    mset: symmat.MatrixSet
    grid: tuple[spectrum.MomentumSample, ...]


class Sweep(Workload):
    """Eigen-sweeps, spinor bases and CSV rendering over seeded momentum grids."""

    name = "sweep"
    item_unit = "point"
    op_unit = "grid"
    AXIS = 4  # points per axis: 64 momenta per grid
    GRIDS = 20  # grids per set

    def setup_part(self, rng, part: int) -> list[SweepItem]:
        sets = [("catalog", clifford.catalog(CATALOG[part % len(CATALOG)])), ("conjugate", _conjugate(rng))]
        items = []
        for kind, mset in sets:
            for _ in range(self.GRIDS):
                mass = rng.uniform(0.5, 2.0)
                axes = [sorted(rng.uniform(-3.0, 3.0) for _ in range(self.AXIS)) for _ in range(3)]
                grid = tuple(
                    spectrum.MomentumSample((x, y, z), mass)
                    for x in axes[0]
                    for y in axes[1]
                    for z in axes[2]
                )
                items.append(SweepItem(kind, mset, grid))
        return items

    def run(self, item: SweepItem) -> int:
        result = spectrum.sweep(item.mset, item.grid)
        if result.flagged or len(result.rows) != len(item.grid):
            raise Mismatch(f"{item.kind}: {len(result.flagged)} flagged rows")
        for row in result.rows:
            energy = row.sample.energy
            tolerance = 1e-10 * row.sample.scale
            expected = (-energy, -energy, energy, energy)
            if any(abs(got - want) > tolerance for got, want in zip(row.eigenvalues, expected)):
                raise Mismatch(f"{item.kind}: eigenvalues {row.eigenvalues} at p={row.sample.p}")
        for sample in item.grid:
            basis = spectrum.positive_energy_spinors(item.mset, sample)
            if len(basis.vectors) != 2:
                raise Mismatch(f"{item.kind}: {len(basis.vectors)} spinors at p={sample.p}")
        stream = io.StringIO()
        spectrum.write_csv(result.rows, stream)
        if stream.getvalue().count("\n") != len(item.grid) + 1:
            raise Mismatch(f"{item.kind}: CSV row count differs from the grid size")
        return len(item.grid)

    def properties(self, items: list[SweepItem]) -> dict:
        return {
            "grids": len(items),
            "points_per_grid": len(items[0].grid),
            "kind_share": _share(Counter(item.kind for item in items)),
            "denominator_digits_max": max(denominator_digits(item.mset) for item in items),
        }


# ---------------------------------------------------------------------------
# cold command-line runs
# ---------------------------------------------------------------------------

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import numpy; t1 = time.perf_counter(); "
    "import diracver.cli; t2 = time.perf_counter(); print(t1 - t0, t2 - t0)"
)


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    kind: str
    expect_exit: int
    expect_stdout: bytes | None = None  # exact output, when known in advance
    csv: Path | None = None  # file the run writes


class CliCold(Workload):
    """Fresh ``python -m diracver`` processes: import, parsing and rendering."""

    name = "cli-cold"
    item_unit = "invocation"
    op_unit = "invocation"
    fresh_processes = True
    IMPORT_REPEATS = 5

    def __init__(self, root: Path, env: dict[str, str]):
        self.root = root
        self.env = env
        self.workdir = root / ".bench_work" / f"cli-{os.getpid()}"
        self.outputs: dict[tuple[str, ...], tuple[bytes, bytes | None]] = {}
        self.import_s: list[float] = []
        self.import_numpy_s: list[float] = []
        self.child_latencies: list[float] = []

    def setup_part(self, rng, part: int) -> list[Invocation]:
        self.workdir.mkdir(parents=True, exist_ok=True)
        files = (
            ("catalog", clifford.catalog(CATALOG[part % len(CATALOG)]), 0),
            ("conjugate", _conjugate(rng), 0),
            ("random", clifford.random_hermitian_set(rng), 1),
        )
        items = []
        for kind, mset, code in files:
            path = self.workdir / f"part{part}-{kind}.json"
            path.write_text(cli.serialize_matrix_set(mset), encoding="utf-8")
            items.append(Invocation(("verify", str(path)), f"verify-{kind}", code))
            items.append(Invocation(("derive", str(path)), f"derive-{kind}", code))
        # the whole solve table, one spectrum run and one catalog run, spread over the parts
        for k, ((n, r), feasible) in enumerate(SOLVE_FEASIBLE.items()):
            if k % PARTS == part:
                argv = ("solve", "--n", str(n), "--multiplicity", str(r))
                items.append(Invocation(argv, "solve", 0 if feasible else 2))
        if part == 0:
            csv = self.workdir / "spectrum.csv"
            argv = ("spectrum", str(self.workdir / "part0-catalog.json"),
                    "--mass", f"{rng.uniform(0.5, 2.0):.3f}", "--grid", "lin:-1:1:3", "--out", str(csv))
            items.append(Invocation(argv, "spectrum", 0, csv=csv))
        if part == 1:
            name = rng.choice(CATALOG)
            expected = cli.serialize_matrix_set(clifford.catalog(name)).encode()
            items.append(Invocation(("catalog", name), "catalog", 0, expect_stdout=expected))
        return items

    def _check(self, inv: Invocation, code: int, stdout: bytes) -> None:
        command = " ".join(inv.argv)
        if code != inv.expect_exit:
            raise Mismatch(f"{command}: exit code {code}, expected {inv.expect_exit}")
        if inv.expect_stdout is not None and stdout != inv.expect_stdout:
            raise Mismatch(f"{command}: output differs from the serialised catalog set")
        csv = inv.csv.read_bytes() if inv.csv is not None else None
        if self.outputs.setdefault(inv.argv, (stdout, csv)) != (stdout, csv):
            raise Mismatch(f"{command}: output differs from an earlier run of the same invocation")

    def _child(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], env=self.env, cwd=self.root, capture_output=True, timeout=120
        )

    def run(self, inv: Invocation) -> int:
        proc = self._child(["-m", "diracver", *inv.argv])
        self._check(inv, proc.returncode, proc.stdout)
        return 1

    def run_in_process(self, inv: Invocation) -> int:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(list(inv.argv))
        self._check(inv, code, out.getvalue().encode())
        return 1

    def traced(self, inv: Invocation, tracer: Tracer, op_id: int) -> tuple[int, float]:
        """Time the fresh process, then trace the same command run in-process."""
        if not self.import_s:
            self.measure_imports()
        start = perf_counter()
        items = self.run(inv)
        latency = perf_counter() - start
        self.child_latencies.append(latency)
        tracer.run_op(op_id, lambda: self.run_in_process(inv))
        return items, latency

    def measure_imports(self) -> None:
        """Import times of numpy and of the CLI, each in a fresh interpreter."""
        for _ in range(self.IMPORT_REPEATS):
            proc = self._child(["-c", IMPORT_PROBE])
            if proc.returncode != 0:
                raise Mismatch("import probe failed: " + proc.stderr.decode(errors="replace")[-200:])
            numpy_s, total_s = (float(v) for v in proc.stdout.split())
            self.import_numpy_s.append(numpy_s)
            self.import_s.append(total_s)

    def layer_extras(self) -> dict[str, float]:
        import_s = statistics.median(self.import_s)
        return {
            "cli.import_s": import_s,
            "cli.import_numpy_s": statistics.median(self.import_numpy_s),
            "cli.import_share": import_s / statistics.median(self.child_latencies),
        }

    def properties(self, items: list[Invocation]) -> dict:
        return {
            "invocations_per_cycle": len(items),
            "command_share": _share(Counter(inv.kind for inv in items)),
        }

    def close(self) -> None:
        for path in sorted(self.workdir.glob("*"), reverse=True):
            path.unlink()
        if self.workdir.exists():
            self.workdir.rmdir()


def make(name: str, root: Path, env: dict[str, str]) -> Workload:
    if name == CliCold.name:
        return CliCold(root, env)
    for cls in (AuditMixed, AuditGrowth, Sweep):
        if cls.name == name:
            return cls()
    raise KeyError(name)


NAMES = (AuditMixed.name, AuditGrowth.name, Sweep.name, CliCold.name)


# ---------------------------------------------------------------------------
# tracing hooks
# ---------------------------------------------------------------------------


def install_spans(tracer: Tracer) -> None:
    """Wrap every layer entry point, at each module that calls it, in a span."""

    def span(owners, attr: str, name: str, outcome=None) -> None:
        for owner in owners:
            tracer.patch(owner, attr, tracer.wrap(getattr(owner, attr), name, outcome))

    mp = algebra.MultiPoly
    span((mp,), "__mul__", "algebra.MultiPoly.__mul__")
    span((mp,), "__rmul__", "algebra.MultiPoly.__mul__")
    span((algebra, dispersion), "reduce_at_dispersion", "algebra.reduce_at_dispersion")
    span((symmat, dispersion, clifford), "build_hamiltonian", "symmat.build_hamiltonian")
    span((symmat, dispersion, clifford), "char_poly", "symmat.char_poly")
    span((dispersion, clifford, cli), "check_dispersion", "dispersion.check_dispersion")
    span((dispersion, cli), "solve_forced_coefficients", "dispersion.solve_forced_coefficients")
    span((clifford,), "equivalence_audit", "clifford.equivalence_audit")
    span((clifford, cli), "check_anticommutation", "clifford.check_anticommutation")
    span((clifford, cli), "check_trace_det", "clifford.check_trace_det")
    span((clifford, cli), "beta_spectrum", "clifford.beta_spectrum")
    span((clifford, cli), "canonicalize_beta", "clifford.canonicalize_beta",
         outcome=lambda result: "exact" if result.exact else "float")
    span((clifford, cli), "check_alpha_structure", "clifford.check_alpha_structure")
    span((symmat, cli), "trace_and_det", "symmat.trace_and_det")
    span((spectrum, cli), "sweep", "spectrum.sweep")
    span((spectrum,), "eigensolve", "spectrum.eigensolve")
    span((spectrum,), "hamiltonian_at", "spectrum.hamiltonian_at")
    span((spectrum,), "positive_energy_spinors", "spectrum.positive_energy_spinors")
    span((spectrum, cli), "write_csv", "spectrum.write_csv")
    span((cli,), "parse_matrix_file", "cli.parse_matrix_file")
    span((cli,), "main", "cli.main")


CR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__",
)


def install_counters(tracer: Tracer) -> None:
    """Count ComplexRational arithmetic and the size of each char_poly result."""
    cr = algebra.ComplexRational
    for attr in CR_OPS:
        tracer.patch(cr, attr, tracer.counter(getattr(cr, attr), "algebra.ComplexRational.ops"))

    def terms(result: symmat.CharPoly) -> int:
        return sum(c.num_terms() for c in result.poly.coeffs)

    for owner in (symmat, dispersion, clifford):
        tracer.patch(owner, "char_poly", tracer.counter(owner.char_poly, "symmat.char_poly.terms_out", terms))

