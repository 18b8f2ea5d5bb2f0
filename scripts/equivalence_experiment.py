#!/usr/bin/env python3
"""Empirically stress the dispersion <-> anticommutation equivalence.

Samples Hermitian 4x4 sets of four kinds (catalog members, exact-unitary
conjugates, structured perturbations, fully random) and tallies the two
audit verdicts side by side.  Any inconsistent pair would be a
counterexample to the equivalence; the expected count is zero.

    PYTHONPATH=src python scripts/equivalence_experiment.py
"""

import random
import time

from diracver.clifford import CATALOG_NAMES, catalog, equivalence_audit
from diracver.sampling import perturbed_set, random_exact_unitary, random_hermitian_set

# the pinned run: tests/golden/expected/equivalence_experiment.out
SEED = 42
CONJUGATES = 30
PERTURBATIONS = 60
RANDOMS = 110


def sample_sets(rng: random.Random):
    for name in CATALOG_NAMES:
        yield "catalog", catalog(name)
    for _ in range(CONJUGATES):
        base = catalog(rng.choice(CATALOG_NAMES))
        yield "conjugate", random_exact_unitary(rng).conjugate_set(base)
    for _ in range(PERTURBATIONS):
        base = catalog(rng.choice(CATALOG_NAMES))
        yield "perturbed", perturbed_set(rng, base, entries=rng.randint(1, 3))
    for _ in range(RANDOMS):
        yield "random", random_hermitian_set(rng)


def main() -> int:
    rng = random.Random(SEED)
    tally: dict[str, list[int]] = {}
    inconsistent = []
    start = time.perf_counter()
    total = 0
    for kind, mset in sample_sets(rng):
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
