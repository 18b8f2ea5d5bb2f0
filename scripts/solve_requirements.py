#!/usr/bin/env python3
"""Tabulate every multiplicity requirement the solver supports.

For each dimension n <= 4 and each demanded multiplicity r <= n, print the
forced coefficients or the impossibility witness, plus the factorized
eigenvalue equation where one exists.
"""

from diracver.solver import (
    DegeneracyRequirement,
    ForcedCoefficientSolution,
    factorized_spectrum,
    render_certificate,
    render_solution,
    solve_forced_coefficients,
)


def main() -> None:
    for n in range(1, 5):
        for r in range(1, n + 1):
            result = solve_forced_coefficients(DegeneracyRequirement(n, r))
            print(f"n = {n}, multiplicity {r}:")
            if isinstance(result, ForcedCoefficientSolution):
                for line in render_solution(result):
                    print(f"  {line}")
                if result.is_complete and n == 2 * r:
                    print(f"  eigenvalue equation: {factorized_spectrum(result)} = 0")
            else:
                for line in render_certificate(result)[1:]:
                    print(f"  {line}")
            print()


if __name__ == "__main__":
    main()
