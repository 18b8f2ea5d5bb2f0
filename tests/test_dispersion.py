import dataclasses
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracver import dispersion
from diracver.algebra import MASS, P1, P2, P3, EPoly
from diracver.clifford import (
    pauli_set,
    perturbed_set,
    random_exact_unitary,
    random_hermitian_set,
)
from diracver.dispersion import (
    Assignment,
    DegeneracyRequirement,
    ForcedCoefficientSolution,
    InfeasibilityCertificate,
    SPoly,
    check_dispersion,
    factorized_spectrum,
    render_certificate,
    render_solution,
    render_spoly,
    solve_forced_coefficients,
)
from diracver.symmat import MatrixSet, char_poly, mat_identity
from oracles import evaluate, fraction_rank, multiplicity_system, spoly_at, spoly_to_multipoly


def solve(n, r):
    return solve_forced_coefficients(DegeneracyRequirement(n, r))


def _residuals(sol):
    """The residuals of the solution substituted back into its own conditions."""
    return dispersion._residuals(dispersion.multiplicity_conditions(sol.requirement), sol)


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
    honest = dispersion.multiplicity_conditions

    def tampered(req):
        rows = honest(req)
        first = rows[0]
        return [dataclasses.replace(first, coeffs=(SPoly((1, 1)),) + first.coeffs[1:])] + rows[1:]

    monkeypatch.setattr(dispersion, "multiplicity_conditions", tampered)
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
        return [dataclasses.replace(first, const=SPoly((0, 1, 1)))] + rows[1:]

    monkeypatch.setattr(dispersion, "multiplicity_conditions", stray_lower_term)
    with pytest.raises(
        RuntimeError, match=r"internal solver error: s\^2 \+ s is not a monomial of energy dimension 4"
    ):
        solve(4, 2)


def test_solver_results_need_an_even_nonnegative_dimension():
    assert dispersion._with_power_of_s(Fraction(3), 4) == SPoly((0, 0, 3))
    assert dispersion._with_power_of_s(Fraction(0), -1) == SPoly.zero()
    for dimension in (1, -2):
        with pytest.raises(RuntimeError, match="internal solver error"):
            dispersion._with_power_of_s(Fraction(1), dimension)


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
    p_sq = P1 * P1 + P2 * P2 + P3 * P3
    base = EPoly([MASS * MASS - p_sq, MASS * (-2), 1])
    assert cp.poly == base * base
    assert cp.c(3) == MASS * (-4)  # c3 = -trace = -4m

    report = check_dispersion(broken, 2)
    assert not report.passed
    m2 = MASS * MASS
    assert report.residuals[0] == m2 * m2 * 8 + m2 * p_sq * 4  # P even
    assert report.residuals[1] == MASS * m2 * (-8)  # P odd, carrying the c3 term
    assert report.residuals[1].coefficient((0, 0, 0, 3)) == -8


def test_massless_two_component_single_root(rng):
    report = check_dispersion(pauli_set(), 1, massless=True)
    assert report.passed
    # with the mass kept, the same set misses the dispersion by m^2
    massful = check_dispersion(pauli_set(), 1)
    assert not massful.passed
    assert massful.residuals[0] == MASS * MASS


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


def test_check_dispersion_matches_solver_forced_coefficients(dirac_pauli, rng):
    # (4, 2): a set passes iff its char-poly coefficients equal the forced ones
    sol = solve(4, 2).constants()
    for mset, expect in [
        (dirac_pauli, True),
        (perturbed_set(rng, dirac_pauli), False),
    ]:
        cp = char_poly(mset)
        coefficients_match = all(
            cp.c(k) == spoly_to_multipoly(sol[k], massless=False) for k in range(4)
        )
        assert coefficients_match == expect
        assert check_dispersion(mset, 2).passed == expect

    # (2, 1) in the massless lane
    sol2 = solve(2, 1).constants()
    cp = char_poly(pauli_set())
    assert cp.c(0).at_zero_mass() == spoly_to_multipoly(sol2[0], massless=True)
    assert cp.c(1).at_zero_mass() == spoly_to_multipoly(sol2[1], massless=True)


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
    assert evaluate(spoly_to_multipoly(p, massless=False), (1, 1, 1, 1)) == 19  # s = 4 -> 16 + 3
    assert evaluate(spoly_to_multipoly(p, massless=True), (1, 1, 1, 5)) == 12  # s = 3 -> 9 + 3


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
    _assert_canonical(x - y, [u - v for u, v in zip(pa, pb)])
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
    assert x - x == SPoly.zero()
