#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and record the baseline.

Run from the root of a checkout:

    python3 perfbench/record_baseline.py --seeds 301-310 --traced 301-302
    python3 perfbench/record_baseline.py --workloads audit-mixed --seeds 1-5 --out -

Runs are made one after another, never at once.  For each workload and
end-to-end metric it prints the median, the quartiles and the spread (the
distance between the quartiles over the median) and marks a spread above a
third of the metric's bound in ``BENCHMARK.json``.  ``--out`` names the
JSON file to write (default ``perfbench/baseline.json``; ``-`` writes none).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall_s = perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}\n{proc.stderr[-2000:]}")
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    return {
        "seed": seed,
        "wall_s": wall_s,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: metric["value"] for name, metric in result["metrics"].items()},
        "inputs": report["inputs"],
        "samples": report["samples"],
        "environment": report["environment"],
    }


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=seed_range, default=seed_range("301-310"))
    parser.add_argument("--traced", type=seed_range, default=[])
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "baseline.json"))
    args = parser.parse_args()

    bounds = {metric["name"]: metric for metric in SPEC["end_to_end"]}
    recorded, steady = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            runs.append(run(workload, seed, args.seconds, 0))
            print(workload, seed, f"{runs[-1]['wall_s']:.1f} s", json.dumps(runs[-1]["metrics"]), flush=True)
        entry = {"seeds": args.seeds, "end_to_end": {}, "raw": {}, "runs": runs}
        for name, metric in bounds.items():
            stats = summary([r["metrics"][name] for r in runs])
            entry["end_to_end"][name] = {**stats, "unit": metric["unit"]}
            flag = "" if stats["spread"] <= metric["bound"] / 3 else "  above a third of the bound"
            steady = steady and (not flag or name == "setup_s")
            print(f"  {workload} {name}: median {stats['median']:.6g} {metric['unit']}, "
                  f"spread {stats['spread']:.3f} (bound {metric['bound']}){flag}", flush=True)
        for name in runs[0]["samples"]["raw"]:
            entry["raw"][name] = summary([r["samples"]["raw"][name] for r in runs])
        entry["traced"] = []
        for seed in args.traced:
            traced = run(workload, seed, args.seconds, 1)
            entry["traced"].append({key: traced[key] for key in ("seed", "metrics", "inputs", "samples")})
            print(workload, seed, "traced", json.dumps(traced["metrics"]), flush=True)
        recorded[workload] = entry

    if args.out != "-":
        first = next(iter(recorded.values()))["runs"][0]
        document = {
            "description": f"Runs of perfbench, one after another on one machine: untraced seeds "
                           f"{args.seeds[0]}-{args.seeds[-1]}, traced seeds {args.traced or 'none'}, "
                           f"run_seconds {args.seconds}.",
            "environment": {k: v for k, v in first["environment"].items() if k != "seed"},
            "workloads": recorded,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    raise SystemExit(main())
