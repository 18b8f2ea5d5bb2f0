#!/usr/bin/env python3
"""Run alternating parent/change pairs of the benchmark and summarise them.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload W --seeds A-B

PARENT and CHANGE are two checkouts of the repository.  Pair k runs
``perfbench/run.py --workload W --seed A+k --seconds N --trace 0`` once in
each checkout, N being BENCHMARK.json's ``run_seconds``, the parent first
in even pairs and the change first in odd ones.  Before each run the checkout's ``src/**/__pycache__`` directories are
deleted and the run gets ``PYTHONDONTWRITEBYTECODE=1``, so every run compiles
the package, as the benchmark's own runs do.  Each run's progress goes to
stderr.

Each run's result is the last line of its output.  The script exits 1,
naming the run, when a run exits nonzero, prints no result, or reports
``correct: false`` or a failed operation; 2 on a usage error; otherwise 0.

Then, for each end-to-end metric of BENCHMARK.json, it prints the values
of every pair, both medians, the parent's quartile distance, how many pairs
the change wins (ties count for neither side) and the relative change of
the medians against the metric's bound, and marks the metric:

* ``gain`` when the change wins at least 9 pairs in 10 and its median is
  better than the parent's by more than the parent's quartile distance;
* ``worse`` when the change's median is worse than the parent's by more
  than the bound;
* ``unresolved`` when the quartile distance of either side exceeds the
  bound, relative to the parent's median, and the change's runs do not all
  read better than all of the parent's;
* ``within bound`` otherwise.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SIDES = ("parent", "change")


class RunError(Exception):
    """A benchmark run that gave no usable result."""


def read_result(stdout: str, returncode: int) -> dict[str, float]:
    """The end-to-end metric values of a run's last output line; ``RunError`` if the run failed."""
    if returncode:
        raise RunError(f"exited {returncode}")
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
    except (ValueError, TypeError, KeyError):
        raise RunError("printed no result") from None
    if result.get("correct") is not True:
        raise RunError("reported correct: false")
    if result.get("failed"):
        raise RunError(f"reported {result['failed']} failed operations of {result.get('attempted')}")
    return metrics


def _run(checkout: Path, workload: str, seed: int) -> dict[str, float]:
    for cache in list((checkout / "src").rglob("__pycache__")):
        shutil.rmtree(cache)
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
               "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(command, cwd=checkout, env=env, capture_output=True, text=True)
    return read_result(done.stdout, done.returncode)


def _quartile_distance(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def summarise(parent: list[dict[str, float]], change: list[dict[str, float]]) -> list[str]:
    """The summary lines of the pairs ``zip(parent, change)``, two per end-to-end metric."""
    lines = []
    for metric in SPEC["end_to_end"]:
        name, bound, better = metric["name"], metric["bound"], metric["better"]
        old = [run[name] for run in parent]
        new = [run[name] for run in change]
        sign = 1 if better == "higher" else -1  # sign * (new - old) > 0 when new is better
        wins = sum(sign * (b - a) > 0 for a, b in zip(old, new))
        median_old, median_new = statistics.median(old), statistics.median(new)
        spread = _quartile_distance(old)
        relative = (median_new - median_old) / median_old if median_old else None
        if wins >= 0.9 * len(old) and sign * (median_new - median_old) > spread:
            verdict = "gain"
        elif relative is not None and -sign * relative > bound:
            verdict = "worse"
        elif max(spread, _quartile_distance(new)) > bound * abs(median_old) and not all(
            sign * (b - a) > 0 for a in old for b in new
        ):
            verdict = "unresolved"
        else:
            verdict = "within bound"
        shown = "n/a" if relative is None else f"{relative:+.1%}"
        lines.append(f"{name} ({metric['unit']}, {better} is better, bound {bound:.0%}): {verdict}")
        lines.append(
            f"  median {median_old:.6g} -> {median_new:.6g} ({shown}), parent quartile distance {spread:.3g},"
            f" change wins {wins} of {len(old)}; pairs: " + ", ".join(f"{a:.6g} -> {b:.6g}" for a, b in zip(old, new))
        )
    return lines


def _seeds(text: str) -> range:
    first, _, last = text.partition("-")
    try:
        seeds = range(int(first), int(last) + 1)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a range A-B") from None
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"{text!r} has fewer than two seeds: quartiles need two pairs")
    return seeds


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=_seeds, required=True, help="an inclusive range A-B, one pair per seed")
    args = parser.parse_args(argv)
    for checkout in (args.parent, args.change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")

    seeds = args.seeds
    results: dict[str, list[dict[str, float]]] = {side: [] for side in SIDES}
    for k, seed in enumerate(seeds):
        for side in SIDES if k % 2 == 0 else SIDES[::-1]:
            try:
                metrics = _run(getattr(args, side), args.workload, seed)
            except RunError as exc:
                print(f"error: the {side} run of {args.workload}, seed {seed}, {exc}", file=sys.stderr)
                return 1
            results[side].append(metrics)
            print(f"pair {k + 1} of {len(seeds)}, seed {seed}, {side}: {metrics}", file=sys.stderr)
    print(f"{args.workload}: {len(seeds)} pairs, seeds {seeds[0]}-{seeds[-1]}, {SPEC['run_seconds']:g} s each")
    print("\n".join(summarise(results["parent"], results["change"])))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
