"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, not configured elsewhere.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np

from diracver.cli import parse_matrix_file, serialize_matrix_set
from diracver.clifford import (
    CATALOG_NAMES,
    catalog,
    beta_spectrum,
    canonicalize_beta,
    check_alpha_structure,
    check_anticommutation,
    check_trace_det,
    audit,
)
from diracver.sampling import perturbed_set, random_exact_unitary, random_hermitian_set
from diracver.solver import (
    DegeneracyRequirement,
    InfeasibilityCertificate,
    factorized_spectrum,
    solve_forced_coefficients,
)
from diracver.spectrum import (
    MomentumSample,
    hamiltonian_at,
    positive_energy_spinors,
    sweep,
)
from diracver.symmat import MatrixSet, as_matrix, char_poly
from oracles import (
    E,
    S,
    char_poly_cofactor,
    constant,
    lift_to_multipoly,
    poly_add,
    poly_mul,
    poly_neg,
    poly_of,
    random_hermitian_matrix,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "diracver", *args], capture_output=True, text=True
    )


def test_criterion_1_forced_coefficients():
    with criterion(1, "forced coefficients (4, 2)"):
        start = time.perf_counter()
        result = run_cli("solve", "--n", "4", "--multiplicity", "2")
        elapsed = time.perf_counter() - start
        assert result.returncode == 0
        assert result.stdout == "c3 = 0\nc2 = -2*s\nc1 = 0\nc0 = s^2\n"
        solution = solve_forced_coefficients(DegeneracyRequirement(4, 2))
        # y_k = c_k / s^((4-k)/2)
        assert solution.constants() == {3: 0, 2: -2, 1: 0, 0: 1}
        assert elapsed < 1.0


def test_criterion_2_impossibility_certificates():
    with criterion(2, "impossibility certificates (2, 2) and (3, 2)"):
        start = time.perf_counter()
        two = solve_forced_coefficients(DegeneracyRequirement(2, 2))
        assert isinstance(two, InfeasibilityCertificate)
        assert (two.witness, two.power) == (2, 0)

        three = solve_forced_coefficients(DegeneracyRequirement(3, 2))
        assert isinstance(three, InfeasibilityCertificate)
        assert (three.witness, three.power) == (2, 1)
        assert "E_p = 0 for all momenta" in three.narrative
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert run_cli("solve", "--n", "3", "--multiplicity", "2").returncode == 2


def test_criterion_3_factorization():
    with criterion(3, "factorized spectrum identities"):
        four = solve_forced_coefficients(DegeneracyRequirement(4, 2))
        assert factorized_spectrum(four) == "(E - E_p)^2*(E + E_p)^2"
        two = solve_forced_coefficients(DegeneracyRequirement(2, 1))
        assert factorized_spectrum(two) == "(E - E_p)*(E + E_p)"
        # independent expansion of (E^2 - s)^r against the assignments, in the
        # oracles' dict arithmetic with s = p.p + m^2
        for sol, r in ((four, 2), (two, 1)):
            n = sol.requirement.n
            constants = sol.constants()
            coefficients = [lift_to_multipoly(constants[k], n - k) for k in range(n)] + [constant(1)]
            poly, e_power = {}, constant(1)
            for c in coefficients:
                poly = poly_add(poly, poly_mul(c, e_power))
                e_power = poly_mul(e_power, E)
            expected = constant(1)
            for _ in range(r):
                expected = poly_mul(expected, poly_add(poly_mul(E, E), poly_neg(S)))
            assert poly == expected


def test_criterion_4_equivalence_theorem():
    with criterion(4, "dispersion <-> anticommutation over 200+ sets"):
        start = time.perf_counter()
        rng = random.Random(42)
        sets: list[MatrixSet] = [catalog(name) for name in CATALOG_NAMES]
        for _ in range(30):
            base = catalog(rng.choice(CATALOG_NAMES))
            sets.append(random_exact_unitary(rng).conjugate_set(base))
        for _ in range(110):
            sets.append(random_hermitian_set(rng))
        for _ in range(60):
            base = catalog(rng.choice(CATALOG_NAMES))
            sets.append(perturbed_set(rng, base, entries=rng.randint(1, 3)))
        assert len(sets) >= 200

        discrepancies = []
        for k, mset in enumerate(sets):
            # `audit` raises on a disagreement; this check does not rely on that guard
            record = audit(mset, 2)
            if record.dispersion.passed != record.anticommutation.passed:
                discrepancies.append((k, mset.label))
        elapsed = time.perf_counter() - start
        assert discrepancies == []
        assert elapsed < 60.0


def test_criterion_5_consequence_chain():
    with criterion(5, "structural consequences of anticommutation"):
        rng = random.Random(7)
        targets = [catalog(name) for name in CATALOG_NAMES]
        targets += [
            random_exact_unitary(rng).conjugate_set(catalog(name))
            for name in CATALOG_NAMES
            for _ in range(3)
        ]
        for mset in targets:
            assert check_anticommutation(mset).passed
            assert check_trace_det(char_poly(mset)).passed
            assert beta_spectrum(mset) == (1, 1, -1, -1)
            report = check_alpha_structure(canonicalize_beta(mset))
            assert report.passed
            for value in report.norm_values:
                if isinstance(value, Fraction):
                    assert value == 2
                else:
                    assert abs(value - 2.0) <= 1e-11


def test_criterion_6_char_poly_oracle():
    with criterion(6, "char_poly vs cofactor expansion"):
        rng = random.Random(11)
        for n in (2, 3, 4):
            for _ in range(100):
                matrix = random_hermitian_matrix(rng, n)
                # h(p) = M m, so c_k = c_k(M) m^(n-k)
                zero = as_matrix([[0] * n] * n)
                cp = char_poly(MatrixSet(n, (zero, zero, zero), matrix))
                expected = char_poly_cofactor(matrix)
                assert poly_of(cp.poly) == {(k, 0, 0, 0, n - k): c for (k, *_), c in expected.items()}


def test_criterion_7_numeric_spectrum():
    with criterion(7, "grid spectrum within 1e-9; perturbation flagged at 1e-6"):
        start = time.perf_counter()
        standard = catalog("dirac-pauli")
        axis = [-2.0 + 4.0 * k / 10 for k in range(11)]
        for mass in (0.0, 1.0):
            grid = [
                MomentumSample((x, y, z), mass) for x in axis for y in axis for z in axis
            ]
            result = sweep(standard, grid)
            assert result.flagged == ()
            worst = 0.0
            for row in result.rows:
                e = row.sample.energy
                expected = (-e, -e, e, e)
                worst = max(
                    worst, max(abs(a - b) for a, b in zip(row.eigenvalues, expected))
                )
            assert worst <= 1e-9

        rows = [list(row) for row in standard.alphas[0]]
        rows[0][0] = rows[0][0] + Fraction(1, 10)  # single entry changed by 1e-1
        broken = MatrixSet(
            4, (as_matrix(rows),) + standard.alphas[1:], standard.beta, label="broken"
        )
        grid = [MomentumSample((x, y, z), 1.0) for x in axis for y in axis for z in axis]
        assert len(sweep(broken, grid).flagged) >= 1
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0


def test_criterion_8_spinor_contract():
    with criterion(8, "positive-energy spinor pairs at random samples"):
        rng = random.Random(13)
        for name in CATALOG_NAMES:
            mset = catalog(name)
            for _ in range(100):
                sample = MomentumSample(
                    (rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3)),
                    rng.uniform(0.0, 2.0),
                )
                basis = positive_energy_spinors(mset, sample)
                u1, u2 = basis.vectors
                assert len(basis.vectors) == 2
                bound = 1e-10 * sample.scale
                h = hamiltonian_at(mset, sample)
                assert np.linalg.norm(h @ u1 - basis.energy * u1) <= bound
                assert np.linalg.norm(h @ u2 - basis.energy * u2) <= bound
                assert abs(np.vdot(u1, u2)) <= 1e-10
                assert abs(np.linalg.norm(u1) - 1.0) <= 1e-10
                assert abs(np.linalg.norm(u2) - 1.0) <= 1e-10


def test_criterion_9_cli_contract(tmp_path):
    with criterion(9, "exit codes, determinism, and file round trips"):
        valid = tmp_path / "valid.json"
        valid.write_text(serialize_matrix_set(catalog("dirac-pauli")))
        perturbed = tmp_path / "perturbed.json"
        perturbed.write_text(
            serialize_matrix_set(perturbed_set(random.Random(3), catalog("dirac-pauli")))
        )
        malformed = tmp_path / "malformed.json"
        malformed.write_text('{"n": ')

        assert run_cli("verify", str(valid)).returncode == 0
        assert run_cli("verify", str(perturbed)).returncode == 1
        assert run_cli("solve", "--n", "3", "--multiplicity", "2").returncode == 2
        assert run_cli("verify", str(malformed)).returncode == 3

        first = run_cli("verify", str(valid))
        second = run_cli("verify", str(valid))
        assert first.stdout == second.stdout

        for name in CATALOG_NAMES:
            path = tmp_path / f"{name}.json"
            assert run_cli("catalog", name, "--out", str(path)).returncode == 0
            assert parse_matrix_file(path) == catalog(name)
