#!/usr/bin/env python3
"""Empirically stress the dispersion <-> anticommutation equivalence.

Samples Hermitian 4x4 sets of four kinds (catalog members, exact-unitary
conjugates, structured perturbations, fully random), runs the full audit
of each at multiplicity 2, and tallies the sets on which the dispersion
and anticommutation verdicts both pass or both fail.  A set on which they
disagree would be a counterexample to the equivalence: ``audit`` raises
on the first one, and the script stops with its traceback.

    PYTHONPATH=src python scripts/equivalence_experiment.py
"""

import random
import time

from diracver.clifford import CATALOG_NAMES, audit, catalog
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
    start = time.perf_counter()
    total = 0
    for kind, mset in sample_sets(rng):
        # the two verdicts agree, or `audit` has raised
        passed = audit(mset, 2).dispersion.passed
        both_pass, both_fail = tally.setdefault(kind, [0, 0])
        tally[kind] = [both_pass + passed, both_fail + (not passed)]
        total += 1
    elapsed = time.perf_counter() - start

    print(f"{total} sets audited in {elapsed:.2f}s")
    print(f"{'kind':<12} {'both pass':>10} {'both fail':>10}")
    for kind, (both_pass, both_fail) in tally.items():
        print(f"{kind:<12} {both_pass:>10} {both_fail:>10}")
    print("no inconsistent verdicts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
