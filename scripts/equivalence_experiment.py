#!/usr/bin/env python3
"""Empirically stress the dispersion <-> anticommutation equivalence.

Samples Hermitian 4x4 sets of four kinds (catalog members, exact-unitary
conjugates, structured perturbations, fully random) and tallies the two
audit verdicts side by side.  Any inconsistent pair would be a
counterexample to the equivalence; the expected count is zero.
"""

import argparse
import random
import time

from diracver.clifford import CATALOG_NAMES, catalog, equivalence_audit
from diracver.sampling import perturbed_set, random_exact_unitary, random_hermitian_set


def sample_sets(rng: random.Random, conjugates: int, perturbations: int, randoms: int):
    for name in CATALOG_NAMES:
        yield "catalog", catalog(name)
    for _ in range(conjugates):
        base = catalog(rng.choice(CATALOG_NAMES))
        yield "conjugate", random_exact_unitary(rng).conjugate_set(base)
    for _ in range(perturbations):
        base = catalog(rng.choice(CATALOG_NAMES))
        yield "perturbed", perturbed_set(rng, base, entries=rng.randint(1, 3))
    for _ in range(randoms):
        yield "random", random_hermitian_set(rng)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--conjugates", type=int, default=30)
    parser.add_argument("--perturbations", type=int, default=60)
    parser.add_argument("--randoms", type=int, default=110)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    tally: dict[str, list[int]] = {}
    inconsistent = []
    start = time.perf_counter()
    total = 0
    for kind, mset in sample_sets(rng, args.conjugates, args.perturbations, args.randoms):
        verdict = equivalence_audit(mset)
        both_pass, both_fail = tally.setdefault(kind, [0, 0])
        tally[kind] = [both_pass + verdict.passed, both_fail + (not verdict.passed)]
        if not verdict.consistent:
            inconsistent.append((kind, mset.label))
        total += 1
    elapsed = time.perf_counter() - start

    print(f"{total} sets audited in {elapsed:.2f}s")
    print(f"{'kind':<12} {'both pass':>10} {'both fail':>10}")
    for kind, (both_pass, both_fail) in tally.items():
        print(f"{kind:<12} {both_pass:>10} {both_fail:>10}")
    if inconsistent:
        print(f"INCONSISTENT verdicts ({len(inconsistent)}):")
        for kind, label in inconsistent:
            print(f"  {kind}: {label}")
        return 1
    print("no inconsistent verdicts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
