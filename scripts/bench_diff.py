#!/usr/bin/env python3
"""Compare two benchmark records written by perfbench/record_baseline.py.

    python3 scripts/bench_diff.py BENCH_a.json BENCH_b.json

For each workload the two records share, print every end-to-end metric's
median in A and in B, the relative change from A to B, and the metric's
bound from BENCHMARK.json.
"""

import json
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: " + __doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8"))["workloads"] for path in argv)
    for workload in (name for name in a if name in b):
        print(workload)
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old, new = a[workload]["end_to_end"][name]["median"], b[workload]["end_to_end"][name]["median"]
            change = f"{(new - old) / old:+.1%}" if old else "n/a"
            print(f"  {name:<15} {old:>12.6g} -> {new:<12.6g} {change:>8}  (bound {bound:.0%}, {metric['better']} is better)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
