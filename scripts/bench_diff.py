#!/usr/bin/env python3
"""Compare two benchmark records written by perfbench/record_baseline.py.

    python3 scripts/bench_diff.py BENCH_a.json BENCH_b.json

For each workload the two records share, print every end-to-end metric's
median in A and in B, the relative change from A to B, and the metric's
bound from BENCHMARK.json; a change in the worse direction beyond the bound
ends its line with WORSE.  Then, when both records hold traced runs, print
each per-layer metric of BENCHMARK.json that is nonzero in either record,
as the median over the traced runs, with its relative change.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
LAYER_WIDTH = max(len(metric["name"]) for metric in SPEC["per_layer"])


def _compare(name: str, width: int, old: float, new: float) -> tuple[str, float | None]:
    """The columns name, A, B and relative change, and that change (None when A is 0)."""
    change = (new - old) / old if old else None
    shown = "n/a" if change is None else f"{change:+.1%}"
    return f"{name:<{width}} {old:>12.6g} -> {new:<12.6g} {shown:>8}", change


def _traced(record: dict) -> dict[str, float]:
    """Each per-layer metric's median over the record's traced runs."""
    runs = [run["metrics"] for run in record.get("traced", ())]
    return {name: statistics.median(run[name] for run in runs) for name in (runs[0] if runs else ())}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8"))["workloads"] for path in argv)
    for workload in (name for name in a if name in b):
        print(workload)
        for metric in SPEC["end_to_end"]:
            name, bound, better = metric["name"], metric["bound"], metric["better"]
            old, new = a[workload]["end_to_end"][name]["median"], b[workload]["end_to_end"][name]["median"]
            columns, change = _compare(name, 15, old, new)
            worse = change is not None and (change < -bound if better == "higher" else change > bound)
            print(f"  {columns}  (bound {bound:.0%}, {better} is better)" + ("  WORSE" if worse else ""))
        layers_a, layers_b = _traced(a[workload]), _traced(b[workload])
        if not (layers_a and layers_b):
            continue
        print("  per layer, traced:")
        for metric in SPEC["per_layer"]:
            name = metric["name"]
            old, new = layers_a.get(name), layers_b.get(name)
            if old is None or new is None or not (old or new):
                continue
            columns, _ = _compare(name, LAYER_WIDTH, old, new)
            print(f"    {columns}  ({metric['better']} is better)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
