from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracver import solver
from diracver.dispersion import check_dispersion
from diracver.sampling import perturbed_set, random_exact_unitary, random_hermitian_set
from diracver.solver import (
    Assignment,
    DegeneracyRequirement,
    ForcedCoefficientSolution,
    InfeasibilityCertificate,
    SPoly,
    factorized_spectrum,
    render_certificate,
    render_solution,
    render_spoly,
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
    multiplicity_system,
    poly_add,
    poly_mul,
    poly_neg,
    poly_of,
    spoly_at,
    spoly_to_multipoly,
)


def solve(n, r):
    return solve_forced_coefficients(DegeneracyRequirement(n, r))


def _residuals(sol):
    """The residuals of the solution substituted back into its own conditions."""
    return solver._residuals(solver.multiplicity_conditions(sol.requirement), sol)


# ---------------------------------------------------------------------------
# the solver
# ---------------------------------------------------------------------------


def test_four_by_four_double_root_solution():
    sol = solve(4, 2)
    assert isinstance(sol, ForcedCoefficientSolution)
    assert sol.free == frozenset()
    constants = sol.constants()
    assert constants[3] == SPoly.zero()
    assert constants[2] == SPoly((0, -2))
    assert constants[1] == SPoly.zero()
    assert constants[0] == SPoly((0, 0, 1))
    assert render_solution(sol) == ["c3 = 0", "c2 = -2*s", "c1 = 0", "c0 = s^2"]


def test_two_by_two_double_root_infeasible():
    cert = solve(2, 2)
    assert isinstance(cert, InfeasibilityCertificate)
    assert cert.witness == SPoly((2,))
    assert "odd part of P'" in cert.narrative
    assert render_certificate(cert)[1] == "forced: 2 = 0 for all momenta"


def test_three_by_three_double_root_infeasible():
    cert = solve(3, 2)
    assert isinstance(cert, InfeasibilityCertificate)
    assert cert.witness == SPoly((0, 2))
    assert "E_p = 0 for all momenta" in cert.narrative
    assert render_certificate(cert)[1] == "forced: 2*s = 0 for all momenta"


def test_two_by_two_single_root_solution():
    sol = solve(2, 1)
    assert isinstance(sol, ForcedCoefficientSolution)
    constants = sol.constants()
    assert constants[1] == SPoly.zero()
    assert constants[0] == SPoly((0, -1))
    assert render_solution(sol) == ["c1 = 0", "c0 = -s"]


def test_four_by_four_single_root_is_parametric():
    # hand solution of the single even/odd pair:
    #   even: s^2 + c2 s + c0 = 0  ->  c0 = -s^2 - s c2
    #   odd:  c3 s + c1 = 0        ->  c1 = -s c3
    sol = solve(4, 1)
    assert isinstance(sol, ForcedCoefficientSolution)
    assert sol.free == frozenset({2, 3})
    assert sol.assignments[0] == Assignment(SPoly((0, 0, -1)), ((2, SPoly((0, -1))),))
    assert sol.assignments[1] == Assignment(SPoly.zero(), ((3, SPoly((0, -1))),))
    assert render_solution(sol) == ["c1 = -s*c3", "c0 = -s^2 - s*c2", "free: c2, c3"]
    assert _residuals(sol) == []


def test_one_component_theory_is_infeasible():
    cert = solve(1, 1)
    assert isinstance(cert, InfeasibilityCertificate)
    assert cert.witness == SPoly((1,))


def test_full_multiplicity_requirements_are_infeasible():
    for n in (2, 3, 4):
        if n == 2:
            continue  # (2, 2) covered above
        cert = solve(n, n)
        assert isinstance(cert, InfeasibilityCertificate)
        assert not cert.witness.is_zero


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
        assert spoly_at(result.witness, s0) != 0
        return
    for free_value in (Fraction(0), Fraction(5, 7)):
        c = {j: free_value for j in result.free}
        for k, a in result.assignments.items():
            c[k] = spoly_at(a.constant, s0) + sum(
                spoly_at(lin, s0) * free_value for _, lin in a.linear
            )
        for row in system:
            assert sum(row[k] * c[k] for k in range(n)) == row[-1]


def test_solver_rejects_a_condition_term_of_the_wrong_dimension(monkeypatch):
    # the coefficient of c_0 in the even part of P has dimension 0, so it is a
    # bare number; s + 1 is not a single monomial and must not reach s = 1
    honest = solver.multiplicity_conditions

    def tampered(req):
        rows = honest(req)
        first = rows[0]
        return [first._replace(coeffs=(SPoly((1, 1)),) + first.coeffs[1:])] + rows[1:]

    monkeypatch.setattr(solver, "multiplicity_conditions", tampered)
    with pytest.raises(
        RuntimeError, match=r"internal solver error: s \+ 1 is not a monomial of energy dimension 0"
    ):
        solve(2, 1)

    # the constant s^2 of the even part of P for n = 4 has dimension 4; s^2 + s
    # has the right degree but a stray lower term
    def stray_lower_term(req):
        rows = honest(req)
        first = rows[0]
        assert first.const == SPoly((0, 0, 1))
        return [first._replace(const=SPoly((0, 1, 1)))] + rows[1:]

    monkeypatch.setattr(solver, "multiplicity_conditions", stray_lower_term)
    with pytest.raises(
        RuntimeError, match=r"internal solver error: s\^2 \+ s is not a monomial of energy dimension 4"
    ):
        solve(4, 2)


def test_solver_results_need_an_even_nonnegative_dimension():
    assert solver._with_power_of_s(Fraction(3), 4) == SPoly((0, 0, 3))
    assert solver._with_power_of_s(Fraction(0), -1) == SPoly.zero()
    for dimension in (1, -2):
        with pytest.raises(RuntimeError, match="internal solver error"):
            solver._with_power_of_s(Fraction(1), dimension)


def test_certificate_witness_nonzero_invariant():
    with pytest.raises(ValueError):
        InfeasibilityCertificate(DegeneracyRequirement(2, 2), SPoly.zero(), "broken")


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
            3: Assignment(SPoly.zero()),
            2: Assignment(SPoly((0, 2))),  # sign flipped
            1: Assignment(SPoly.zero()),
            0: Assignment(SPoly((0, 0, 1))),
        },
        frozenset(),
    )
    with pytest.raises(ValueError, match="mismatch"):
        factorized_spectrum(tampered)


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
        coefficients_match = all(poly_of(cp.c(k)) == spoly_to_multipoly(sol[k]) for k in range(4))
        assert coefficients_match == expect
        assert check_dispersion(mset, 2).passed == expect

    # (2, 1) forces c1 = 0 and c0 = -s; the Pauli triple has c0 = -p.p = -s + m^2
    sol2 = solve(2, 1).constants()
    cp = char_poly(pauli)
    assert poly_of(cp.c(1)) == spoly_to_multipoly(sol2[1]) == {}
    assert poly_of(cp.c(0)) == poly_add(spoly_to_multipoly(sol2[0]), poly_mul(MASS, MASS))


def test_multiplicity_bounds_on_check(dirac_pauli):
    with pytest.raises(ValueError):
        check_dispersion(dirac_pauli, 0)
    with pytest.raises(ValueError):
        check_dispersion(dirac_pauli, 5)


# ---------------------------------------------------------------------------
# s-polynomials
# ---------------------------------------------------------------------------


def test_spoly_rendering():
    assert render_spoly(SPoly.zero()) == "0"
    assert render_spoly(SPoly((0, -2))) == "-2*s"
    assert render_spoly(SPoly((0, 0, 1))) == "s^2"
    assert render_spoly(SPoly((Fraction(1, 2), -1, 1))) == "s^2 - s + 1/2"


def test_spoly_substitution_consistency():
    p = SPoly((3, 0, 1))  # s^2 + 3
    assert spoly_at(p, Fraction(2)) == Fraction(7)
    assert evaluate(spoly_to_multipoly(p), (1, 1, 1, 1)) == 19  # s = 4 -> 16 + 3
    assert evaluate(spoly_to_multipoly(p), (1, 1, 0, 5)) == 732  # s = 27 -> 729 + 3


def test_spoly_rejects_floats_and_bare_numbers():
    message = "^cannot interpret 0.1 as an exact scalar$"
    with pytest.raises(TypeError, match=message):
        SPoly((0.1,))
    with pytest.raises(TypeError, match=message):
        SPoly.monomial(2, 0.1)
    p = SPoly((1, 2))
    for operation in (
        lambda: p + 1,
        lambda: 1 + p,
        lambda: p - 1,
        lambda: 1 - p,
        lambda: p * 2.5,
        lambda: 2.5 * p,
    ):
        with pytest.raises(TypeError):
            operation()
    assert p * 2 == 2 * p == SPoly((2, 4))
    assert p * Fraction(1, 2) == SPoly((Fraction(1, 2), 1))


# zeros are drawn often, so that sums cancel and results need trimming
_entries = st.one_of(st.just(0), st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4))
_coeff_lists = st.lists(_entries, max_size=4)


def _padded(a, size):
    return [Fraction(x) for x in a] + [Fraction(0)] * (size - len(a))


def _assert_canonical(result, reference):
    assert all(type(c) is Fraction for c in result.coeffs)
    assert not result.coeffs or result.coeffs[-1] != 0
    assert result == SPoly(reference)
    assert hash(result) == hash(SPoly(reference))


@settings(max_examples=150)
@given(_coeff_lists, _coeff_lists, _entries)
def test_spoly_arithmetic_matches_fraction_lists(a, b, k):
    x, y = SPoly(a), SPoly(b)
    size = max(len(a), len(b))
    pa, pb = _padded(a, size), _padded(b, size)
    _assert_canonical(x + y, [u + v for u, v in zip(pa, pb)])
    _assert_canonical(x + -y, [u - v for u, v in zip(pa, pb)])
    _assert_canonical(-x, [-u for u in pa])
    product = [Fraction(0)] * (len(a) + len(b))
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            product[i + j] += Fraction(u) * Fraction(v)
    _assert_canonical(x * y, product)
    for scalar in (int(k), Fraction(k)):
        scaled = [Fraction(u) * scalar for u in a]
        _assert_canonical(x * scalar, scaled)
        _assert_canonical(scalar * x, scaled)
    assert x + -x == SPoly.zero()
