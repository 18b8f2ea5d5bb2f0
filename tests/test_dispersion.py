from fractions import Fraction

import pytest

from diracver import solver
from diracver.dispersion import check_dispersion
from diracver.sampling import perturbed_set, random_exact_unitary, random_hermitian_set
from diracver.solver import (
    Assignment,
    DegeneracyRequirement,
    ForcedCoefficientSolution,
    InfeasibilityCertificate,
    factorized_spectrum,
    render_certificate,
    render_solution,
    solve_forced_coefficients,
)
from diracver.symmat import MatrixSet, char_poly, mat_identity
from oracles import (
    MASS,
    P1,
    P2,
    P3,
    E,
    constant,
    evaluate,
    fraction_rank,
    lift_at_energy,
    lift_to_multipoly,
    multiplicity_system,
    poly_add,
    poly_mul,
    poly_neg,
    poly_of,
)


def solve(n, r):
    return solve_forced_coefficients(DegeneracyRequirement(n, r))


def _residuals(sol):
    """The residuals of the solution substituted back into its own conditions."""
    origins, _, system = solver._y_system(sol.requirement)
    return solver._residuals(origins, system, sol)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


def test_four_by_four_double_root_solution():
    sol = solve(4, 2)
    assert isinstance(sol, ForcedCoefficientSolution)
    assert sol.free == frozenset()
    assert sol.constants() == {3: 0, 2: -2, 1: 0, 0: 1}
    assert all(type(y) is Fraction for y in sol.constants().values())
    assert render_solution(sol) == ["c3 = 0", "c2 = -2*s", "c1 = 0", "c0 = s^2"]


def test_two_by_two_double_root_infeasible():
    cert = solve(2, 2)
    assert isinstance(cert, InfeasibilityCertificate)
    assert (cert.witness, cert.power) == (2, 0)
    assert "odd part of P'" in cert.narrative
    assert render_certificate(cert)[1] == "forced: 2 = 0 for all momenta"


def test_three_by_three_double_root_infeasible():
    cert = solve(3, 2)
    assert isinstance(cert, InfeasibilityCertificate)
    assert (cert.witness, cert.power) == (2, 1)
    assert "E_p = 0 for all momenta" in cert.narrative
    assert render_certificate(cert)[1] == "forced: 2*s = 0 for all momenta"


def test_two_by_two_single_root_solution():
    sol = solve(2, 1)
    assert isinstance(sol, ForcedCoefficientSolution)
    assert sol.constants() == {1: 0, 0: -1}
    assert render_solution(sol) == ["c1 = 0", "c0 = -s"]


def test_four_by_four_single_root_is_parametric():
    # hand solution of the single even/odd pair:
    #   even: s^2 + c2 s + c0 = 0  ->  c0 = -s^2 - s c2
    #   odd:  c3 s + c1 = 0        ->  c1 = -s c3
    sol = solve(4, 1)
    assert isinstance(sol, ForcedCoefficientSolution)
    assert sol.free == frozenset({2, 3})
    assert sol.assignments[0] == Assignment(Fraction(-1), ((2, Fraction(-1)),))
    assert sol.assignments[1] == Assignment(Fraction(0), ((3, Fraction(-1)),))
    assert render_solution(sol) == ["c1 = -s*c3", "c0 = -s^2 - s*c2", "free: c2, c3"]
    assert _residuals(sol) == []


def test_one_component_theory_is_infeasible():
    cert = solve(1, 1)
    assert isinstance(cert, InfeasibilityCertificate)
    assert (cert.witness, cert.power) == (1, 0)


def test_full_multiplicity_requirements_are_infeasible():
    for n in (2, 3, 4):
        if n == 2:
            continue  # (2, 2) covered above
        cert = solve(n, n)
        assert isinstance(cert, InfeasibilityCertificate)
        assert cert.witness != 0


def test_multiplicity_above_degree_rejected():
    with pytest.raises(ValueError):
        DegeneracyRequirement(3, 4)
    with pytest.raises(ValueError):
        DegeneracyRequirement(2, 0)
    with pytest.raises(ValueError):
        DegeneracyRequirement(5, 1)


def test_feasible_solutions_round_trip():
    for n in range(1, 5):
        for r in range(1, n + 1):
            result = solve(n, r)
            if isinstance(result, ForcedCoefficientSolution):
                assert _residuals(result) == []


@pytest.mark.parametrize("e0", [2, 3])
@pytest.mark.parametrize("n, r", [(n, r) for n in range(1, 5) for r in range(1, n + 1)])
def test_solver_agrees_with_the_concrete_energy_oracle(n, r, e0):
    # at s0 = E0^2, both +E0 and -E0 must be roots of multiplicity r
    s0 = Fraction(e0 * e0)
    system = multiplicity_system(n, r, Fraction(e0))
    consistent = fraction_rank([row[:-1] for row in system]) == fraction_rank(system)
    result = solve(n, r)
    assert isinstance(result, ForcedCoefficientSolution) == consistent
    if isinstance(result, InfeasibilityCertificate):
        assert result.witness * s0**result.power != 0
        return
    # c_k = y_k*E_p^(n-k), and a free c_j enters y_k as q*y_j, i.e. as q*E_p^(j-k)*c_j
    for free_value in (Fraction(0), Fraction(5, 7)):
        c = {j: free_value for j in result.free}
        for k, a in result.assignments.items():
            c[k] = lift_at_energy(a.constant, n - k, Fraction(e0)) + sum(
                lift_at_energy(q, j - k, Fraction(e0)) * free_value for j, q in a.linear
            )
        for row in system:
            assert sum(row[k] * c[k] for k in range(n)) == row[-1]


def test_solver_results_that_miss_their_rows_raise_residuals(monkeypatch):
    # an elimination whose output is off by one in every constant leaves a
    # constant residual in the un-eliminated rows
    honest = solver.Assignment

    def off_by_one(constant, linear=()):
        return honest(constant + 1, linear)

    monkeypatch.setattr(solver, "Assignment", off_by_one)
    with pytest.raises(RuntimeError) as caught:
        solve(4, 2)
    assert str(caught.value) == (
        "internal solver error: back-substitution residuals "
        "['the even part of P at E = E_p: residual 2', 'the odd part of P at E = E_p: residual 2', "
        "\"the even part of P' at E = E_p: residual 4\", \"the odd part of P' at E = E_p: residual 2\"]"
    )
    with pytest.raises(RuntimeError) as caught:
        solve(4, 1)
    assert str(caught.value) == (
        "internal solver error: back-substitution residuals "
        "['the even part of P at E = E_p: residual 1', 'the odd part of P at E = E_p: residual 1']"
    )


def test_residuals_name_each_defect_of_a_tampered_solution():
    sol = solve(4, 1)
    tampered = sol._replace(assignments={**sol.assignments, 0: Assignment(Fraction(-1))})
    assert _residuals(tampered) == ["the even part of P at E = E_p: residual (1)*c2"]
    tampered = sol._replace(assignments={**sol.assignments, 1: Assignment(Fraction(1), ((3, Fraction(-1)),))})
    assert _residuals(tampered) == ["the odd part of P at E = E_p: residual 1"]


def test_solver_results_need_an_even_nonnegative_dimension(monkeypatch):
    assert solver._power_of_s(Fraction(3), 4) == 2
    assert solver._power_of_s(Fraction(-1, 2), 0) == 0
    solver._power_of_s(Fraction(0), -1)  # a zero value carries no power of s
    for dimension in (1, -2):
        with pytest.raises(
            RuntimeError, match=f"^internal solver error: 1 has energy dimension {dimension}, which is not a power of s$"
        ):
            solver._power_of_s(Fraction(1), dimension)

    # inside the solver: a witness read at the wrong dimension, and constants
    # forced onto the odd rows, whose unknowns have odd dimension
    honest = solver._y_system

    def dimension_off_by_one(req):
        origins, dims, rows = honest(req)
        return origins, [d + 1 for d in dims], rows

    monkeypatch.setattr(solver, "_y_system", dimension_off_by_one)
    with pytest.raises(RuntimeError, match="^internal solver error: 2 has energy dimension 3, which is not a power of s$"):
        solve(3, 2)

    def unit_right_hand_sides(req):
        origins, dims, rows = honest(req)
        return origins, dims, [row[:-1] + [Fraction(1)] for row in rows]

    monkeypatch.setattr(solver, "_y_system", unit_right_hand_sides)
    with pytest.raises(RuntimeError, match="energy dimension 3, which is not a power of s$"):
        solve(4, 2)


def test_certificate_witness_nonzero_invariant():
    with pytest.raises(ValueError):
        InfeasibilityCertificate(DegeneracyRequirement(2, 2), Fraction(0), 0, "broken")


# ---------------------------------------------------------------------------
# factorization
# ---------------------------------------------------------------------------


def test_factorization_of_the_four_dim_solution():
    assert factorized_spectrum(solve(4, 2)) == "(E - E_p)^2*(E + E_p)^2"


def test_factorization_of_the_two_dim_solution():
    assert factorized_spectrum(solve(2, 1)) == "(E - E_p)*(E + E_p)"


def test_factorization_rejects_tampered_solution():
    tampered = ForcedCoefficientSolution(
        DegeneracyRequirement(4, 2),
        {
            3: Assignment(Fraction(0)),
            2: Assignment(Fraction(2)),  # sign flipped
            1: Assignment(Fraction(0)),
            0: Assignment(Fraction(1)),
        },
        frozenset(),
    )
    with pytest.raises(ValueError, match=r"^factorization mismatch at E\^2: got y2 = 2, expected -2$"):
        factorized_spectrum(tampered)
    # a value at an odd power of E is a mismatch too, not an internal error
    odd = tampered._replace(assignments={**tampered.assignments, 2: Assignment(Fraction(-2)), 1: Assignment(Fraction(1))})
    with pytest.raises(ValueError, match=r"^factorization mismatch at E\^1: got y1 = 1, expected 0$"):
        factorized_spectrum(odd)


def test_factorization_rejects_incomplete_solution():
    with pytest.raises(ValueError, match="free"):
        factorized_spectrum(solve(4, 1))


# ---------------------------------------------------------------------------
# dispersion checks on concrete sets
# ---------------------------------------------------------------------------


def test_standard_set_passes_double_root_check(dirac_pauli):
    report = check_dispersion(dirac_pauli, 2)
    assert report.passed
    assert all(res.is_zero for res in report.residuals)
    assert report.labels == ("P even", "P odd", "P' even", "P' odd")


def test_identity_beta_fails_with_derived_residuals(dirac_pauli):
    broken = MatrixSet(4, dirac_pauli.alphas, mat_identity(4), label="identity-beta")
    cp = char_poly(broken)
    # the standard alphas satisfy the Clifford relations on their own, so
    # h = alpha.p + 1*m is a shift and P(E) = ((E - m)^2 - p.p)^2 exactly
    p_sq = poly_add(poly_add(poly_mul(P1, P1), poly_mul(P2, P2)), poly_mul(P3, P3))
    m2 = poly_mul(MASS, MASS)
    e_minus_m = poly_add(E, poly_neg(MASS))
    base = poly_add(poly_mul(e_minus_m, e_minus_m), poly_neg(p_sq))
    assert poly_of(cp.poly) == poly_mul(base, base)
    assert poly_of(cp.c(3)) == poly_mul(MASS, constant(-4))  # c3 = -trace = -4m

    report = check_dispersion(broken, 2)
    assert not report.passed
    even = poly_mul(m2, poly_add(poly_mul(m2, constant(8)), poly_mul(p_sq, constant(4))))
    assert poly_of(report.residuals[0]) == even  # P even: 8m^4 + 4m^2 p.p
    assert poly_of(report.residuals[1]) == poly_mul(poly_mul(MASS, m2), constant(-8))  # P odd, carrying the c3 term
    assert report.residuals[1].coefficient((0, 0, 0, 3)) == -8


def test_pauli_triple_misses_the_dispersion_by_m_squared(pauli):
    # beta = 0, so P(E) = E^2 - p.p is short of E^2 - s by the mass term
    report = check_dispersion(pauli, 1)
    assert not report.passed
    assert report.labels == ("P even", "P odd")
    assert poly_of(report.residuals[0]) == poly_mul(MASS, MASS)
    assert report.residuals[1].is_zero


def test_monotonicity_in_multiplicity(all_catalog_sets):
    for mset in all_catalog_sets:
        assert check_dispersion(mset, 2).passed
        assert check_dispersion(mset, 1).passed


def test_exact_unitary_conjugation_preserves_char_poly(dirac_pauli, rng):
    for _ in range(5):
        u = random_exact_unitary(rng)
        conjugated = u.conjugate_set(dirac_pauli)
        assert char_poly(conjugated).poly == char_poly(dirac_pauli).poly
        assert check_dispersion(conjugated, 2).passed
    generic = random_hermitian_set(rng)
    u = random_exact_unitary(rng)
    assert (
        check_dispersion(u.conjugate_set(generic), 2).passed
        == check_dispersion(generic, 2).passed
    )


def test_check_dispersion_matches_solver_forced_coefficients(dirac_pauli, pauli, rng):
    # (4, 2): a set passes iff its char-poly coefficients equal the forced ones
    sol = solve(4, 2).constants()
    for mset, expect in [
        (dirac_pauli, True),
        (perturbed_set(rng, dirac_pauli), False),
    ]:
        cp = char_poly(mset)
        coefficients_match = all(poly_of(cp.c(k)) == lift_to_multipoly(sol[k], 4 - k) for k in range(4))
        assert coefficients_match == expect
        assert check_dispersion(mset, 2).passed == expect

    # (2, 1) forces c1 = 0 and c0 = -s; the Pauli triple has c0 = -p.p = -s + m^2
    sol2 = solve(2, 1).constants()
    cp = char_poly(pauli)
    assert poly_of(cp.c(1)) == lift_to_multipoly(sol2[1], 1) == {}
    assert poly_of(cp.c(0)) == poly_add(lift_to_multipoly(sol2[0], 2), poly_mul(MASS, MASS))


def test_multiplicity_bounds_on_check(dirac_pauli):
    with pytest.raises(ValueError):
        check_dispersion(dirac_pauli, 0)
    with pytest.raises(ValueError):
        check_dispersion(dirac_pauli, 5)


# ---------------------------------------------------------------------------
# the oracle's lifts
# ---------------------------------------------------------------------------


def test_the_oracle_lifts_agree():
    # 3*s^2 at s = 4 (E_p = 2) and at s = 27 from the point (1, 1, 0, 5)
    assert lift_at_energy(Fraction(3), 4, Fraction(2)) == 48
    assert evaluate(lift_to_multipoly(Fraction(3), 4), (1, 1, 1, 1)) == 48
    assert evaluate(lift_to_multipoly(Fraction(3), 4), (1, 1, 0, 5)) == 3 * 27**2
    assert lift_to_multipoly(Fraction(0), 3) == {}
