#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of diracver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit-mixed --seed 1 --seconds 30 --trace 0

The benchmark imports diracver from the checkout's ``src/`` and exits with
code 2, printing no result, when that is missing.  One process with one
worker drives the library as a closed loop: the next operation starts only
when the previous one has returned.  BLAS and OpenMP are pinned to one
thread here and in every child process.  Every reported time is scaled to
nominal machine speed by a reference timed between the operations (see
reference.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` prints the
per-layer metrics of a separate traced run (see README.md).  The last line
of standard output is the result object; the line before it is a report
with the environment, the input properties and the sample counts.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WARMUP_OPS = 2
# set-up parts are rebuilt between operations, spread over the run like the
# solve table, while they have taken at most this share of the time so far;
# they are timed there, not when the pool is first built, so that reference
# samples taken among the operations surround them
SETUP_SHARE = 0.15
SIDE_SAMPLES = 30  # solve-table samples (and set-up parts) per run
SOLVE_TABLE_TRACED = 5
# traced run: operations run untraced and then traced, in pairs, for this
# share of the time; then counters on further operations until it is used up
TRACED_SHARE = 0.7

END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "solve_table_ms": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (source, span or counter name, scale, unit); sources:
# "self" per-op self time, "calls" per-op span count, "count" per-op counter
PER_LAYER = {
    "algebra.MultiPoly.__mul__.calls": ("calls", "algebra.MultiPoly.__mul__", 1, "count"),
    "algebra.MultiPoly.__mul__.self_ms": ("self", "algebra.MultiPoly.__mul__", 1e3, "ms"),
    "algebra.ComplexRational.ops": ("count", "algebra.ComplexRational.ops", 1, "count"),
    "algebra.reduce_at_dispersion.self_ms": ("self", "algebra.reduce_at_dispersion", 1e3, "ms"),
    "symmat.build_hamiltonian.self_ms": ("self", "symmat.build_hamiltonian", 1e3, "ms"),
    "symmat.char_poly.self_ms": ("self", "symmat.char_poly", 1e3, "ms"),
    "symmat.char_poly.terms_out": ("count", "symmat.char_poly.terms_out", 1, "count"),
    "dispersion.check_dispersion.self_ms": ("self", "dispersion.check_dispersion", 1e3, "ms"),
    "dispersion.solve_forced_coefficients.self_ms":
        ("self", "dispersion.solve_forced_coefficients", 1e3, "ms"),
    "clifford.check_anticommutation.self_ms": ("self", "clifford.check_anticommutation", 1e3, "ms"),
    "clifford.check_alpha_structure.self_ms": ("self", "clifford.check_alpha_structure", 1e3, "ms"),
    "clifford.canonicalize_beta.exact_ms": ("self", "clifford.canonicalize_beta.exact", 1e3, "ms"),
    "clifford.canonicalize_beta.float_ms": ("self", "clifford.canonicalize_beta.float", 1e3, "ms"),
    "spectrum.hamiltonian_at.self_us": ("self", "spectrum.hamiltonian_at", 1e6, "us"),
    "spectrum.eigensolve.self_us": ("self", "spectrum.eigensolve", 1e6, "us"),
    "spectrum.positive_energy_spinors.self_us": ("self", "spectrum.positive_energy_spinors", 1e6, "us"),
    "spectrum.write_csv.self_ms": ("self", "spectrum.write_csv", 1e3, "ms"),
    "cli.parse_matrix_file.self_ms": ("self", "cli.parse_matrix_file", 1e3, "ms"),
    "cli.main.self_ms": ("self", "cli.main", 1e3, "ms"),
}
# computed from the whole trace rather than one span name
PER_LAYER_DERIVED = {
    "clifford.canonicalize_beta.exact_ratio": "ratio",
    "symmat_algebra.share": "ratio",
    "cli.import_s": "s",
    "cli.import_numpy_s": "s",
    "cli.import_share": "ratio",
    "trace.overhead_pct": "%",
}


@dataclass
class Tally:
    """Operations attempted and failed; every failure is reported on stderr."""

    attempted: int = 0
    failed: int = 0

    def attempt(self, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # any exception is a failed operation, counted and shown
            self.failed += 1
            print(f"failed operation: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None


@dataclass
class Pass:
    """What one closed-loop pass measured, operation by operation."""

    positions: list[int] = field(default_factory=list)  # pool position of each operation's item
    starts: list[float] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    items: list[int] = field(default_factory=list)  # work items each operation completed

    @property
    def items_per_s(self) -> float:
        return sum(self.items) / sum(self.latencies)

    def nominal(self, speed: reference.Speed) -> list[float]:
        """Each operation's time, scaled to nominal speed by the reference samples around it."""
        return [speed.nominal(start, latency) for start, latency in zip(self.starts, self.latencies)]

    def per_item(self, nominal: list[float]) -> list[float]:
        """Each pool item's median time over its repetitions, a whole pass over the pool apart."""
        times: dict[int, list[float]] = {}
        for position, latency in zip(self.positions, nominal):
            times.setdefault(position, []).append(latency)
        return [statistics.median(repeats) for repeats in times.values()]


def closed_loop(run, order: list, index: int, tally: Tally, speed: reference.Speed,
                seconds: float | None = None, count: int | None = None, side=None,
                side_samples: int = 0) -> Pass:
    """Run operations back to back from ``order[index]`` on, for a time or a count.

    A reference sample follows any operation that ends at least
    ``reference.EVERY_S`` after the last one.  ``side`` runs
    ``side_samples`` times at even intervals between the operations, so that
    what it times covers the whole run rather than one moment of it.
    """
    result = Pass()
    start = perf_counter()
    deadline = start + seconds if seconds is not None else None
    next_side = start
    while count is None or len(result.latencies) < count:
        if side is not None and perf_counter() >= next_side:
            tally.attempt(side)
            next_side += seconds / side_samples
        position = (index + len(result.latencies)) % len(order)
        t0 = perf_counter()
        done = tally.attempt(run, order[position]) or 0
        result.latencies.append(perf_counter() - t0)
        result.positions.append(position)
        result.starts.append(t0)
        result.items.append(done)
        speed.sample()
        if deadline is not None and perf_counter() >= deadline:
            break
    return result


def p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[-1] if len(values) > 1 else values[0]


def environment(seed: int) -> dict:
    import numpy

    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info if line.startswith("model name")),
                       platform.machine())
    except OSError:
        cpu = platform.machine()
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "workers": 1,
        "loop": "closed",
    }


def set_up(workloads, wl, seed: int) -> tuple[list[float], list]:
    """Build the input pool in equal seeded parts; time each part."""
    times, items = [], []
    for part in range(workloads.PARTS):
        _, elapsed, built = time_setup_part(wl, seed, part)
        times.append(elapsed)
        items += built
    random.Random(f"{wl.name}:{seed}:order").shuffle(items)
    return times, items


def time_setup_part(wl, seed: int, part: int) -> tuple[float, float, list]:
    """Build one seeded part of the pool; return when it started, the time taken and the part."""
    rng = random.Random(f"{wl.name}:{seed}:{part}")
    start = perf_counter()
    built = wl.setup_part(rng, part)
    return start, perf_counter() - start, built


def untraced_run(workloads, wl, order: list, seconds: float, tally: Tally, seed: int) -> tuple[dict, dict]:
    """The end-to-end metrics and their sample counts."""
    speed = reference.Speed(child=wl.fresh_processes)
    solve_times: list[tuple[float, float]] = []
    setup_times: list[tuple[float, float]] = []

    def side() -> None:
        start = perf_counter()
        workloads.solve_table()
        solve_times.append((start, perf_counter() - start))
        if sum(elapsed for _, elapsed in setup_times) <= SETUP_SHARE * (start - loop_start):
            setup_times.append(time_setup_part(wl, seed, len(setup_times) % workloads.PARTS)[:2])

    closed_loop(wl.run, order, 0, tally, speed, count=WARMUP_OPS)
    tally.attempt(workloads.solve_table)
    loop_start = perf_counter()
    main = closed_loop(wl.run, order, WARMUP_OPS, tally, speed, seconds=seconds,
                       side=side, side_samples=SIDE_SAMPLES)
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    latencies = main.nominal(speed)
    per_item = main.per_item(latencies)
    metrics = {
        "items_per_s": sum(main.items) / sum(latencies),
        "op_p50_ms": statistics.median(per_item) * 1e3,
        "op_p90_ms": p90(per_item) * 1e3,
        "setup_s": statistics.median(speed.nominal(*timed) for timed in setup_times),
        "solve_table_ms": statistics.median(speed.nominal(*timed) for timed in solve_times) * 1e3,
        "peak_rss_mb": (own + children) / 1024,  # ru_maxrss is in KiB on Linux
    }
    samples = {
        "items_timed": len(per_item),
        "operations": len(main.latencies),
        "repetitions_per_item": len(main.latencies) / len(per_item),
        "solve_table": len(solve_times),
        "setup_parts": len(setup_times),
        "busy_seconds": sum(main.latencies),
        "reference": {
            "samples": len(speed.took),
            "median_ms": statistics.median(speed.took) * 1e3,
            "fastest_ms": min(speed.took) * 1e3,
            "nominal_ms": speed.nominal_s * 1e3,
            "in_fresh_interpreter": speed.child,
        },
        # as measured, over every operation, without scaling to nominal speed
        "raw": {
            "items_per_s": main.items_per_s,
            "op_p50_ms": statistics.median(main.latencies) * 1e3,
            "op_p90_ms": p90(main.latencies) * 1e3,
            "setup_s": statistics.median(elapsed for _, elapsed in setup_times),
            "solve_table_ms": statistics.median(elapsed for _, elapsed in solve_times) * 1e3,
        },
    }
    return metrics, samples


def traced_run(workloads, spans, wl, order: list, seconds: float, tally: Tally,
               trace_path: Path) -> tuple[dict, dict, dict]:
    """The per-layer metrics, the input properties the trace reveals, and sample counts."""
    start = perf_counter()
    closed_loop(wl.run, order, 0, tally, reference.Speed(), count=WARMUP_OPS)
    tracer = spans.Tracer()
    plain, traced = Pass(), Pass()
    ops = 0
    while ops == 0 or perf_counter() - start < seconds * TRACED_SHARE:
        item = order[(WARMUP_OPS + ops) % len(order)]
        # each item untraced, then traced, so both see the same machine speed
        t0 = perf_counter()
        plain.items.append(tally.attempt(wl.run, item) or 0)
        plain.latencies.append(perf_counter() - t0)
        workloads.install_spans(tracer)
        try:
            done = tally.attempt(wl.traced, item, tracer, ops) or (0, 0.0)
        finally:
            tracer.restore()
        traced.items.append(done[0])
        traced.latencies.append(done[1])
        ops += 1
    workloads.install_spans(tracer)
    try:
        for k in range(SOLVE_TABLE_TRACED):
            tally.attempt(tracer.run_op, ops + k, workloads.solve_table)
    finally:
        tracer.restore()

    counter = spans.Tracer()
    workloads.install_counters(counter)
    counted = 0
    try:
        while counted == 0 or perf_counter() - start < seconds:
            counter.current_op = counted
            tally.attempt(wl.run_in_process, order[(WARMUP_OPS + counted) % len(order)])
            counted += 1
    finally:
        counter.restore()

    self_time, inclusive, calls = tracer.per_op()
    counts = counter.counts
    sources = {"self": self_time, "calls": calls, "count": counts}
    metrics = {
        metric: spans.median_where_present(sources[source], key) * scale
        for metric, (source, key, scale, _) in PER_LAYER.items()
    }
    branches = {
        branch: sum(c.get(f"clifford.canonicalize_beta.{branch}", 0) for c in calls.values())
        for branch in ("exact", "float", "raised")
    }
    attempted = sum(branches.values())
    metrics["clifford.canonicalize_beta.exact_ratio"] = branches["exact"] / attempted if attempted else 0
    shares = [
        sum(t for name, t in self_time[op].items() if name.startswith(("algebra.", "symmat.")))
        / sum(self_time[op].values())
        for op in range(ops)
        if op in self_time
    ]
    metrics["symmat_algebra.share"] = statistics.median(shares) if shares else 0
    metrics.update({"cli.import_s": 0, "cli.import_numpy_s": 0, "cli.import_share": 0})
    metrics.update(wl.layer_extras())
    untraced_rate, traced_rate = plain.items_per_s, traced.items_per_s
    metrics["trace.overhead_pct"] = (untraced_rate - traced_rate) / untraced_rate * 100

    terms = [c["symmat.char_poly.terms_out"] for c in counts.values() if "symmat.char_poly.terms_out" in c]
    properties = {
        "char_poly_terms_median": statistics.median(terms) if terms else 0,
        "char_poly_terms_max": max(terms, default=0),
        "canonicalize_beta_branches": branches,
    }
    samples = {
        "traced_ops": ops,
        "counted_ops": counted,
        "items_per_s_untraced": untraced_rate,
        "items_per_s_traced": traced_rate,
        "spans": tracer.write(trace_path),
        "trace_file": str(trace_path.relative_to(ROOT)),
        "inclusive_ms": {name: spans.median_where_present(inclusive, name) * 1e3
                         for name in sorted(tracer.names) if name != spans.ROOT_SPAN},
    }
    return metrics, properties, samples


def issue_named(unit: str, metrics: dict, failed_ratio: float) -> dict:
    """The end-to-end metrics under the workload-specific names of the design notes."""
    named = {"setup_s": (metrics["setup_s"], "s"), "solve_table_ms": (metrics["solve_table_ms"], "ms"),
             "peak_rss_mb": (metrics["peak_rss_mb"], "MB"), "failed_ratio": (failed_ratio, "ratio")}
    if unit == "set":
        named.update(audit_sets_per_s=(metrics["items_per_s"], "sets/s"),
                     audit_p50_ms=(metrics["op_p50_ms"], "ms"), audit_p90_ms=(metrics["op_p90_ms"], "ms"))
    elif unit == "point":
        named["sweep_points_per_s"] = (metrics["items_per_s"], "points/s")
    elif unit == "invocation":
        named.update(cli_p50_s=(metrics["op_p50_ms"] / 1e3, "s"), cli_p90_s=(metrics["op_p90_ms"] / 1e3, "s"))
    return {name: {"value": value, "unit": u} for name, (value, u) in named.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diracver" / "__init__.py").is_file():
        print(f"error: diracver sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    import spans
    import workloads

    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.NAMES)}")
    wl = workloads.make(args.workload, ROOT, dict(os.environ))
    tally = Tally()
    try:
        setup_times, order = set_up(workloads, wl, args.seed)
        report = {"workload": wl.name, "trace": args.trace, "environment": environment(args.seed),
                  "inputs": wl.properties(order),
                  "setup_part_seconds": setup_times}
        if args.trace:
            trace_path = ROOT / ".bench_work" / "spans" / f"{wl.name}-seed{args.seed}.csv.gz"
            metrics, properties, samples = traced_run(workloads, spans, wl, order, args.seconds, tally,
                                                      trace_path)
            report["inputs"].update(properties)
            units = {**{m: spec[3] for m, spec in PER_LAYER.items()}, **PER_LAYER_DERIVED}
        else:
            metrics, samples = untraced_run(workloads, wl, order, args.seconds, tally, args.seed)
            units = END_TO_END
        failed_ratio = tally.failed / tally.attempted
        report.update(samples=samples, failed_ratio=failed_ratio, item=wl.item_unit, operation=wl.op_unit)
        if not args.trace:
            report["named_metrics"] = issue_named(wl.item_unit, metrics, failed_ratio)
    finally:
        wl.close()

    print(json.dumps({"report": report}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
