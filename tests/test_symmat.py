import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracver.algebra import MASS, P1, P2, P3, ComplexRational, EPoly, MultiPoly, render_epoly
from diracver.clifford import (
    CATALOG_NAMES,
    catalog,
    pauli_set,
    random_exact_unitary,
    random_hermitian_set,
)
from diracver import symmat
from diracver.symmat import (
    CharPoly,
    HermiticityError,
    MatrixSet,
    PolyMatrix,
    UnsupportedDimensionError,
    as_matrix,
    build_hamiltonian,
    char_poly,
    mat_identity,
    mat_trace,
    mat_zero,
    trace_and_det,
)
from oracles import (
    char_poly_cofactor,
    char_poly_cofactor_pm,
    dagger_reference,
    det_cofactor,
    mat_mul_reference,
    poly_matrix_is_hermitian,
    random_hermitian_matrix,
    term_degrees,
)

I = ComplexRational(0, 1)

mixed_fractions = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 7, 12, 35, 1001))
)
mixed_scalars = st.builds(ComplexRational, mixed_fractions, mixed_fractions)
monomials = st.tuples(*(st.integers(0, 3) for _ in range(4)))
mixed_polys = st.dictionaries(monomials, mixed_scalars, max_size=3).map(MultiPoly)


@st.composite
def poly_matrices(draw):
    n = draw(st.integers(1, 4))
    rows = draw(st.lists(st.lists(mixed_polys, min_size=n, max_size=n), min_size=n, max_size=n))
    return PolyMatrix(n, tuple(tuple(row) for row in rows))


# real parts are integers, so every denominator sits in an imaginary part
imaginary_denominators = st.builds(ComplexRational, st.integers(-9, 9), mixed_fractions)


@st.composite
def scalar_matrix_pairs(draw):
    """Two n x n matrices, each of mixed-denominator, imaginary-denominator or zero entries."""
    n = draw(st.integers(1, 4))
    kinds = st.sampled_from((mixed_scalars, imaginary_denominators, st.just(ComplexRational(0))))

    def matrix(entries):
        return as_matrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))

    return matrix(draw(kinds)), matrix(draw(kinds))


real_polys = st.dictionaries(monomials, st.builds(ComplexRational, mixed_fractions), max_size=3).map(MultiPoly)


@st.composite
def hermitian_poly_matrices(draw):
    """An n x n Hermitian PolyMatrix, n = 1..4: mixed-denominator upper triangle, real diagonal, conjugate mirror."""
    n = draw(st.integers(1, 4))
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(real_polys)
        for j in range(i + 1, n):
            rows[i][j] = draw(mixed_polys)
            rows[j][i] = rows[i][j].conj()
    return PolyMatrix(n, tuple(tuple(row) for row in rows))


@st.composite
def conjugated_hamiltonians(draw):
    """h(p) of a random or catalog set, n = 2..4, conjugated by a 10-60 step exact unitary."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(2, 4))
    base = draw(st.sampled_from(CATALOG_NAMES + ("random",))) if n == 4 else "random"
    mset = random_hermitian_set(rng, n) if base == "random" else catalog(base)
    return build_hamiltonian(random_exact_unitary(rng, n, steps=draw(st.integers(10, 60))).conjugate_set(mset))


def _kernel_product(a, b):
    """a*b as clifford forms its products: cleared, multiplied in Gaussian integers, rebuilt."""
    (ga, da), (gb, db) = symmat._cleared(a), symmat._cleared(b)
    return symmat._rebuilt(symmat._gi_mat_mul(ga, gb), da * db, len(a))


def test_hermiticity_enforced_at_construction(dirac_pauli):
    rows = [list(row) for row in dirac_pauli.alphas[0]]
    rows[0][2] = ComplexRational(Fraction(1, 10))  # (3,1) stays 0: broken pair
    with pytest.raises(HermiticityError) as err:
        MatrixSet(4, (as_matrix(rows),) + dirac_pauli.alphas[1:], dirac_pauli.beta)
    assert err.value.matrix_name == "alpha1"
    assert err.value.index == (0, 2)


def test_matrix_sets_accept_plain_exact_entries():
    zero = ((0, 0), (0, 0))
    ones = ((1, 0), (0, 1))
    assert MatrixSet(2, (ones, zero, zero), zero) == MatrixSet(2, (mat_identity(2), mat_zero(2), mat_zero(2)), mat_zero(2))
    half = ((Fraction(1, 2), 0), (0, Fraction(-1, 2)))
    mset = MatrixSet(2, (zero, half, zero), ones, label="fractions")
    assert mset.alphas[1] == as_matrix(half)
    assert all(isinstance(x, ComplexRational) for _, m in mset.matrices() for row in m for x in row)
    exact = mat_identity(2)
    assert MatrixSet(2, (exact, exact, exact), exact).beta is exact  # nothing to coerce, nothing rebuilt
    with pytest.raises(HermiticityError, match=r"^alpha2 is not Hermitian at entries \(0,1\)/\(1,0\)$"):
        MatrixSet(2, (zero, ((0, 1), (0, 0)), zero), zero)
    with pytest.raises(ValueError, match="^beta is not 2x2$"):
        MatrixSet(2, (zero, zero, zero), ((0, 0), (0,)))
    for bad, shown in ((0.5, "0.5"), ("1/2", "'1/2'")):
        with pytest.raises(TypeError, match=f"^cannot interpret {re.escape(shown)} as an exact scalar$"):
            MatrixSet(2, (zero, zero, zero), ((bad, 0), (0, 0)))


def test_unsupported_dimension_rejected():
    with pytest.raises(UnsupportedDimensionError):
        MatrixSet(5, (mat_zero(5), mat_zero(5), mat_zero(5)), mat_zero(5))


def test_pauli_hamiltonian_entries():
    h = build_hamiltonian(pauli_set())
    assert h.entry(0, 0) == P3
    assert h.entry(0, 1) == P1 - I * P2
    assert h.entry(1, 1) == -P3
    assert poly_matrix_is_hermitian(h)


def test_dirac_pauli_hamiltonian_entries(dirac_pauli):
    h = build_hamiltonian(dirac_pauli)
    assert h.entry(0, 0) == MASS
    assert h.entry(0, 3) == P1 - I * P2
    assert h.entry(0, 1) == MultiPoly.zero()
    assert poly_matrix_is_hermitian(h)


def test_hamiltonian_entries_homogeneous_degree_one(all_catalog_sets):
    for mset in all_catalog_sets:
        h = build_hamiltonian(mset)
        for row in h.entries:
            for entry in row:
                assert term_degrees(entry) <= {1}


def test_zero_set_gives_zero_hamiltonian():
    mset = MatrixSet(4, (mat_zero(4), mat_zero(4), mat_zero(4)), mat_zero(4))
    h = build_hamiltonian(mset)
    assert all(entry.is_zero for row in h.entries for entry in row)


def test_char_poly_mass_diagonal():
    entries = [[MultiPoly.zero()] * 4 for _ in range(4)]
    for k, sign in enumerate((1, 1, -1, -1)):
        entries[k][k] = MASS * sign
    pm = PolyMatrix(4, tuple(tuple(row) for row in entries))
    cp = char_poly(pm)
    m2 = MASS * MASS
    assert cp.poly == EPoly([m2 * m2, MultiPoly.zero(), m2 * (-2), MultiPoly.zero(), 1])
    assert render_epoly(cp.poly) == "E^4 - 2*m^2*E^2 + m^4"
    assert cp.poly == char_poly_cofactor_pm(pm)


def test_char_poly_pauli():
    cp = char_poly(build_hamiltonian(pauli_set()))
    assert cp.poly == EPoly([-(P1 * P1 + P2 * P2 + P3 * P3), MultiPoly.zero(), 1])


def test_char_poly_one_by_one():
    pm = PolyMatrix(1, ((MASS,),))
    assert char_poly(pm).poly == EPoly([-MASS, 1])


def test_char_poly_rejects_large_dimension():
    pm = PolyMatrix(5, tuple((MultiPoly.zero(),) * 5 for _ in range(5)))
    with pytest.raises(UnsupportedDimensionError):
        char_poly(pm)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_char_poly_matches_cofactor_oracle(n, rng):
    for _ in range(30):
        matrix = random_hermitian_matrix(rng, n)
        cp = char_poly(PolyMatrix(n, tuple(tuple(MultiPoly.constant(v) for v in row) for row in matrix)))
        assert cp.poly == char_poly_cofactor(matrix)
        # byproducts: c_{n-1} = -trace and c_0 = (-1)^n det
        assert cp.c(n - 1) == MultiPoly.constant(-mat_trace(matrix))
        assert cp.c(0) == MultiPoly.constant(det_cofactor(matrix) * (-1) ** n)


@given(
    rng=st.randoms(use_true_random=False),
    steps=st.integers(10, 60),
    base=st.sampled_from(CATALOG_NAMES + ("random",)),
)
@settings(max_examples=20, deadline=None)
def test_char_poly_of_long_conjugates_matches_cofactor_oracle(rng, steps, base):
    # denominators reach about 50 digits at 60 steps
    mset = random_hermitian_set(rng) if base == "random" else catalog(base)
    h = build_hamiltonian(random_exact_unitary(rng, steps=steps).conjugate_set(mset))
    assert char_poly(h).poly == char_poly_cofactor_pm(h)


@given(poly_matrices())
@settings(max_examples=60, deadline=None)
def test_char_poly_of_mixed_denominator_polymatrix_matches_cofactor_oracle(pm):
    assert char_poly(pm).poly == char_poly_cofactor_pm(pm)


def test_char_poly_of_a_fixed_non_hermitian_matrix_matches_cofactor_oracle():
    # entry (i, j) mixes a constant, a linear term and, off the diagonal, p1*m,
    # with complex coefficients over denominators 2..7; no entry mirrors another
    variables = (P1, P2, P3, MASS)
    rows = []
    for i in range(4):
        row = []
        for j in range(4):
            entry = MultiPoly.constant(ComplexRational(Fraction(i * j - 1, 5), Fraction(i - j, 3)))
            entry = entry + variables[(i + 2 * j) % 4] * ComplexRational(
                Fraction(i - 2 * j + 1, j + 2), Fraction(2 * i + j - 3, i + 3)
            )
            if i != j:
                entry = entry + P1 * MASS * ComplexRational(Fraction(j + 1, 7), Fraction(i, 2))
            row.append(entry)
        rows.append(tuple(row))
    pm = PolyMatrix(4, tuple(rows))
    assert not poly_matrix_is_hermitian(pm)
    cp = char_poly(pm)
    assert cp.poly == char_poly_cofactor_pm(pm)
    assert not all(cp.c(k).is_real() for k in range(4))


def test_newton_division_must_be_exact(dirac_pauli, monkeypatch):
    with pytest.raises(RuntimeError, match="not divisible by 2"):
        symmat._gi_neg_div({0: (2, 0), 1: (4, 1)}, 2)
    with pytest.raises(RuntimeError, match="not divisible by 3"):
        symmat._gi_neg_div({0: (1, 0)}, 3)
    assert symmat._gi_neg_div({0: (6, -3), 5: (0, 9)}, 3) == {0: (-2, 1), 5: (0, -3)}

    # a power sum off by one constant makes the k = 2 step inexact, on either path:
    # h(p) of dirac-pauli takes the Hermitian one, the matrix below the general one
    not_hermitian = PolyMatrix(2, ((P1, P2), (MASS * I, P3)))
    for name, pm in (("_hermitian_power_sums", build_hamiltonian(dirac_pauli)), ("_power_sums", not_hermitian)):
        power_sums = getattr(symmat, name)

        def corrupted(A, power_sums=power_sums):
            sums = power_sums(A)
            sums[2] = {**sums[2], 0: (1, 0)}
            return sums

        with monkeypatch.context() as patch:
            patch.setattr(symmat, name, corrupted)
            with pytest.raises(RuntimeError, match="internal error: .* not divisible by 2"):
                char_poly(pm)


@given(st.one_of(hermitian_poly_matrices(), conjugated_hamiltonians()))
@settings(max_examples=60, deadline=None)
def test_hermitian_power_sums_equal_the_general_ones(pm):
    # char_poly must choose the Hermitian path; the spy keeps the cleared matrix it got
    assert poly_matrix_is_hermitian(pm)
    hermitian = symmat._hermitian_power_sums
    seen = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symmat, "_hermitian_power_sums", lambda A: seen.append(A) or hermitian(A))
        assert char_poly(pm).poly == char_poly_cofactor_pm(pm)
    [A] = seen
    general = symmat._power_sums(A)
    assert all(im == 0 for sums in general[1:] for _, im in sums.values())
    assert hermitian(A) == general


def test_near_hermitian_input_takes_the_general_path(dirac_pauli, monkeypatch):
    def refuse(A):
        raise AssertionError("a non-Hermitian matrix took the Hermitian path")

    monkeypatch.setattr(symmat, "_hermitian_power_sums", refuse)
    h = build_hamiltonian(random_exact_unitary(random.Random(5), steps=10).conjugate_set(dirac_pauli))
    rows = [list(row) for row in h.entries]
    term = MultiPoly({(0, 1, 0, 1): ComplexRational(Fraction(2, 3), Fraction(-1, 5))})

    def changed(*edits):
        out = [row[:] for row in rows]
        for i, j, extra in edits:
            out[i][j] = out[i][j] + extra
        return PolyMatrix(4, tuple(tuple(row) for row in out))

    near = [
        changed((1, 1, MultiPoly({(1, 0, 0, 0): ComplexRational(0, Fraction(1, 7))}))),  # diagonal imaginary part
        changed((0, 2, term)),  # off-diagonal term with no mirror
        changed((0, 2, term), (2, 0, term)),  # mirrored, but not conjugated
    ]
    for pm in near:
        assert not poly_matrix_is_hermitian(pm)
        assert char_poly(pm).poly == char_poly_cofactor_pm(pm)


@given(
    rng=st.randoms(use_true_random=False),
    steps=st.integers(0, 30),
    n=st.integers(2, 4),
)
@settings(max_examples=30, deadline=None)
def test_build_hamiltonian_matches_polynomial_arithmetic(rng, steps, n):
    mset = random_exact_unitary(rng, n, steps=steps).conjugate_set(random_hermitian_set(rng, n))
    h = build_hamiltonian(mset)
    for i in range(n):
        for j in range(n):
            expected = MultiPoly.zero()
            for matrix, variable in zip((*mset.alphas, mset.beta), (P1, P2, P3, MASS)):
                if matrix[i][j]:
                    expected = expected + variable * matrix[i][j]
            assert h.entry(i, j) == expected
            # the same terms, inserted in the same order
            assert list(h.entry(i, j)._terms.items()) == list(expected._terms.items())
    assert poly_matrix_is_hermitian(h)


def test_char_poly_large_exponents_do_not_collide():
    big = 2**40
    a = MultiPoly({(big, 0, 0, 1): Fraction(1, 3)})
    b = MultiPoly({(0, big, 1, 0): ComplexRational(2, Fraction(-1, 7))})
    pm = PolyMatrix(2, ((a, b), (b.conj(), a + MASS)))
    assert char_poly(pm).poly == char_poly_cofactor_pm(pm)


def test_char_poly_coefficients_real_and_homogeneous(all_catalog_sets, rng):
    sets = all_catalog_sets + [random_hermitian_set(rng) for _ in range(5)]
    for mset in sets:
        h = build_hamiltonian(mset)
        cp = char_poly(h)
        trace = MultiPoly.zero()
        for k in range(mset.n):
            trace = trace + h.entry(k, k)
        assert cp.c(mset.n - 1) == -trace
        for k in range(mset.n + 1):
            ck = cp.c(k)
            assert ck.is_real()
            assert term_degrees(ck) <= {mset.n - k}


def test_char_poly_requires_monic():
    with pytest.raises(ValueError):
        CharPoly(2, EPoly([MultiPoly.zero(), MultiPoly.zero(), MASS]))


def _trace_and_det(mset):
    return trace_and_det(char_poly(build_hamiltonian(mset)))


def test_trace_and_det_examples(dirac_pauli):
    values = _trace_and_det(dirac_pauli)
    assert list(values) == ["alpha1", "alpha2", "alpha3", "beta"]
    assert values["beta"] == (ComplexRational(0), ComplexRational(1))

    with_identity_beta = MatrixSet(4, dirac_pauli.alphas, mat_identity(4))
    values = _trace_and_det(with_identity_beta)
    assert values["beta"] == (ComplexRational(4), ComplexRational(1))

    values = _trace_and_det(pauli_set())
    assert values["alpha1"] == (ComplexRational(0), ComplexRational(-1))
    assert values["beta"] == (ComplexRational(0), ComplexRational(0))

    # odd n: det = -c_0 on the pure power
    diagonal = as_matrix([[1, 0, 0], [0, 2, 0], [0, 0, -3]])
    values = _trace_and_det(MatrixSet(3, (diagonal, mat_zero(3), mat_identity(3)), diagonal))
    assert values["alpha1"] == values["beta"] == (ComplexRational(0), ComplexRational(-6))
    assert values["alpha2"] == (ComplexRational(0), ComplexRational(0))
    assert values["alpha3"] == (ComplexRational(3), ComplexRational(1))


@given(
    rng=st.randoms(use_true_random=False),
    steps=st.integers(0, 20),
    n=st.integers(2, 4),
)
@settings(max_examples=60, deadline=None)
def test_trace_and_det_match_the_diagonal_sum_and_the_cofactor_determinant(rng, steps, n):
    mset = random_exact_unitary(rng, n, steps=steps).conjugate_set(random_hermitian_set(rng, n))
    expected = {
        name: (sum((m[i][i] for i in range(n)), ComplexRational(0)), det_cofactor(m))
        for name, m in mset.matrices()
    }
    values = _trace_and_det(mset)
    assert list(values.items()) == list(expected.items())


@given(scalar_matrix_pairs())
@settings(max_examples=200, deadline=None)
def test_mat_mul_matches_the_reference_product(pair):
    a, b = pair
    assert _kernel_product(a, b) == mat_mul_reference(a, b)
    assert _kernel_product(b, a) == mat_mul_reference(b, a)


@given(
    rng=st.randoms(use_true_random=False),
    steps=st.integers(10, 60),
    base=st.sampled_from(CATALOG_NAMES),
)
@settings(max_examples=20, deadline=None)
def test_mat_mul_of_long_conjugates_matches_the_reference_product(rng, steps, base):
    u = random_exact_unitary(rng, steps=steps)
    mset = u.conjugate_set(catalog(base))
    for a, b in ((mset.beta, mset.alphas[0]), (mset.alphas[1], mset.alphas[2]), (u.matrix, dagger_reference(u.matrix))):
        assert _kernel_product(a, b) == mat_mul_reference(a, b)
