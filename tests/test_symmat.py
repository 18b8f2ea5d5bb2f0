import math
import re
from fractions import Fraction

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from diracver.algebra import ComplexRational, EPoly, MultiPoly, render_epoly
from diracver.clifford import CATALOG_NAMES, catalog
from diracver.sampling import random_exact_unitary, random_hermitian_set
from diracver import symmat
from diracver.symmat import (
    CharPoly,
    HermiticityError,
    MatrixSet,
    UnsupportedDimensionError,
    as_matrix,
    build_hamiltonian,
    char_poly,
    mat_identity,
    mat_trace,
    trace_and_det,
)
from oracles import (
    char_poly_cofactor_pm,
    dagger_reference,
    det_cofactor,
    hamiltonian_reference,
    mat_mul_reference,
    poly_add,
    poly_neg,
    poly_of,
    power_sums_reference,
    random_hermitian_matrix,
    term_degrees,
)

I = ComplexRational(0, 1)

mixed_fractions = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 5, 7, 12, 35, 1001))
)
mixed_scalars = st.builds(ComplexRational, mixed_fractions, mixed_fractions)
# real parts are integers, so every denominator sits in an imaginary part
imaginary_denominators = st.builds(ComplexRational, st.integers(-9, 9), mixed_fractions)
entry_kinds = st.sampled_from((mixed_scalars, imaginary_denominators, st.just(ComplexRational(0))))


@st.composite
def scalar_matrix_pairs(draw):
    """Two n x n matrices, each of mixed-denominator, imaginary-denominator or zero entries."""
    n = draw(st.integers(1, 4))

    def matrix(entries):
        return as_matrix(draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))

    return matrix(draw(entry_kinds)), matrix(draw(entry_kinds))


real_scalars = st.builds(ComplexRational, mixed_fractions)


@st.composite
def mixed_denominator_sets(draw):
    """A MatrixSet of n = 2..4 whose four matrices have real diagonals and mixed-denominator,
    imaginary-denominator or zero entries above them, mirrored by conjugation."""
    n = draw(st.integers(2, 4))

    def hermitian():
        entries = draw(entry_kinds)
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = draw(real_scalars)
            for j in range(i + 1, n):
                rows[i][j] = draw(entries)
                rows[j][i] = rows[i][j].conj()
        return rows

    return MatrixSet(n, (hermitian(), hermitian(), hermitian()), hermitian())


def _zero(n):
    return as_matrix([[0] * n] * n)


def _unpacked(entry, denom, n):
    """A packed ``build_hamiltonian`` entry as an oracle polynomial: each key split into n.bit_length()-bit fields."""
    width = n.bit_length()
    terms = {}
    for key, (re, im) in entry.items():
        mono = tuple(key >> k * width & (1 << width) - 1 for k in range(4))
        assert key == sum(e << k * width for k, e in enumerate(mono))
        terms[(0, *mono)] = ComplexRational(Fraction(re, denom), Fraction(im, denom))
    return terms


def _kernel_product(a, b):
    """a*b as clifford forms its products: cleared, multiplied in Gaussian integers, rebuilt."""
    (ga, gb), d = symmat._cleared(a, b)
    return symmat._rebuilt(symmat._gi_mat_mul(ga, gb), d * d)


def test_cleared_brings_every_matrix_to_one_denominator():
    half = as_matrix([[Fraction(1, 2), I / 3], [-I / 3, 0]])
    sign = as_matrix([[1, 0], [0, -1]])
    (gh, gs), d = symmat._cleared(half, sign)
    assert d == 6
    assert gh == [[(3, 0), (0, 2)], [(0, -2), (0, 0)]]
    assert gs == [[(6, 0), (0, 0)], [(0, 0), (-6, 0)]]
    assert symmat._rebuilt(gh, d) == half and symmat._rebuilt(gs, d) == sign
    assert symmat._rebuilt(symmat._gi_mat_mul(gh, gs), d * d) == mat_mul_reference(half, sign)


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
    assert MatrixSet(2, (ones, zero, zero), zero) == MatrixSet(2, (mat_identity(2), _zero(2), _zero(2)), _zero(2))
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
        MatrixSet(5, (_zero(5), _zero(5), _zero(5)), _zero(5))


def test_pauli_hamiltonian_entries(pauli):
    # n = 2: two-bit key fields, so p1, p2, p3, m are the keys 1, 4, 16, 64
    A, denom = build_hamiltonian(pauli)
    assert denom == 1
    assert A == [[{16: (1, 0)}, {1: (1, 0), 4: (0, -1)}], [{1: (1, 0), 4: (0, 1)}, {16: (-1, 0)}]]


def test_dirac_pauli_hamiltonian_entries(dirac_pauli):
    # n = 4: three-bit key fields, so p1, p2, p3, m are the keys 1, 8, 64, 512
    A, denom = build_hamiltonian(dirac_pauli)
    assert denom == 1
    assert A[0][0] == {512: (1, 0)}
    assert A[0][3] == {1: (1, 0), 8: (0, -1)}
    assert A[0][1] == {}
    assert _unpacked(A[0][3], denom, 4) == {(0, 1, 0, 0, 0): ComplexRational(1), (0, 0, 1, 0, 0): -I}  # p1 - i*p2


def test_hamiltonian_entries_homogeneous_degree_one(all_catalog_sets):
    for mset in all_catalog_sets:
        A, denom = build_hamiltonian(mset)
        for row in A:
            for entry in row:
                assert term_degrees(_unpacked(entry, denom, mset.n)) <= {1}


def test_zero_set_gives_zero_hamiltonian():
    mset = MatrixSet(4, (_zero(4), _zero(4), _zero(4)), _zero(4))
    A, denom = build_hamiltonian(mset)
    assert denom == 1
    assert all(entry == {} for row in A for entry in row)
    assert char_poly(mset).poly == EPoly([0, 0, 0, 0, 1])


def test_char_poly_mass_diagonal():
    beta = as_matrix([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, -1, 0], [0, 0, 0, -1]])
    mset = MatrixSet(4, (_zero(4), _zero(4), _zero(4)), beta)
    cp = char_poly(mset)
    assert cp.poly == EPoly([MultiPoly({(0, 0, 0, 4): 1}), 0, MultiPoly({(0, 0, 0, 2): -2}), 0, 1])
    assert render_epoly(cp.poly) == "E^4 - 2*m^2*E^2 + m^4"
    assert poly_of(cp.poly) == char_poly_cofactor_pm(mset)


def test_char_poly_pauli(pauli):
    cp = char_poly(pauli)
    assert cp.poly == EPoly([MultiPoly({(2, 0, 0, 0): -1, (0, 2, 0, 0): -1, (0, 0, 2, 0): -1}), 0, 1])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_char_poly_matches_cofactor_oracle(n, rng):
    for _ in range(30):
        matrices = [random_hermitian_matrix(rng, n) for _ in range(4)]
        mset = MatrixSet(n, tuple(matrices[:3]), matrices[3])
        cp = char_poly(mset)
        assert poly_of(cp.poly) == char_poly_cofactor_pm(mset)
        # byproducts: [x_k] c_{n-1} = -Tr(X_k) and [x_k^n] c_0 = (-1)^n det(X_k)
        for k, matrix in enumerate(matrices):
            mono = tuple(int(i == k) for i in range(4))
            assert ComplexRational(cp.c(n - 1).coefficient(mono)) == -mat_trace(matrix)
            assert ComplexRational(cp.c(0).coefficient(tuple(n * e for e in mono))) == det_cofactor(matrix) * (-1) ** n


# Examples that run char_poly and a cofactor oracle on sets of up to 4x4 are not
# shrunk: every shrink step reruns both, and a wrong p_4 once kept a failing run
# shrinking for minutes.  The first failing example is reported as found.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@given(
    rng=st.randoms(use_true_random=False),
    steps=st.integers(10, 60),
    base=st.sampled_from(CATALOG_NAMES + ("random",)),
)
@settings(max_examples=20, deadline=None, phases=_NO_SHRINK)
def test_char_poly_of_long_conjugates_matches_cofactor_oracle(rng, steps, base):
    # denominators reach about 50 digits at 60 steps
    mset = random_hermitian_set(rng) if base == "random" else catalog(base)
    conjugated = random_exact_unitary(rng, steps=steps).conjugate_set(mset)
    assert poly_of(char_poly(conjugated).poly) == char_poly_cofactor_pm(conjugated)


@given(mixed_denominator_sets())
@settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
def test_char_poly_of_mixed_denominator_polymatrix_matches_cofactor_oracle(mset):
    assert poly_of(char_poly(mset).poly) == char_poly_cofactor_pm(mset)


def test_newton_division_must_be_exact(dirac_pauli, monkeypatch):
    # a power sum off by one constant makes its Newton step inexact
    power_sums = symmat._hermitian_power_sums

    for k in (2, 3):

        def corrupted(A, k=k):
            sums = power_sums(A)
            sums[k] = {**sums[k], 0: 1}
            return sums

        monkeypatch.setattr(symmat, "_hermitian_power_sums", corrupted)
        with pytest.raises(RuntimeError, match=f"internal error: .* not divisible by {k}"):
            char_poly(dirac_pauli)


@given(
    rng=st.randoms(use_true_random=False),
    n=st.integers(2, 4),
    steps=st.just(0) | st.integers(10, 60),
)
@settings(max_examples=40, deadline=None, phases=_NO_SHRINK)
def test_power_sums_match_the_reference(rng, n, steps):
    # a random set, or its conjugate by a 10-60-step exact unitary
    mset = random_hermitian_set(rng, n)
    if steps:
        mset = random_exact_unitary(rng, n, steps=steps).conjugate_set(mset)
    A, denom = build_hamiltonian(mset)
    sums = symmat._hermitian_power_sums(A)
    expected = power_sums_reference(mset)
    assert sums[0] is None and len(sums) == n + 1
    for k in range(1, n + 1):
        assert all(type(v) is int for v in sums[k].values())
        assert _unpacked({key: (v, 0) for key, v in sums[k].items()}, 1, n) == {
            mono: c * denom**k for mono, c in expected[k].items()
        }


@given(
    rng=st.randoms(use_true_random=False),
    steps=st.integers(0, 30),
    n=st.integers(2, 4),
)
@settings(max_examples=30, deadline=None)
def test_build_hamiltonian_matches_polynomial_arithmetic(rng, steps, n):
    mset = random_exact_unitary(rng, n, steps=steps).conjugate_set(random_hermitian_set(rng, n))
    A, denom = build_hamiltonian(mset)
    matrices = (*mset.alphas, mset.beta)
    assert denom == math.lcm(*(part.denominator for m in matrices for row in m for x in row for part in (x.re, x.im)))
    expected = hamiltonian_reference(mset)
    for i in range(n):
        for j in range(n):
            assert _unpacked(A[i][j], denom, n) == expected[i][j]
            # one term per nonzero entry, in the order alpha1, alpha2, alpha3, beta
            assert list(A[i][j]) == [1 << k * n.bit_length() for k, m in enumerate(matrices) if m[i][j]]


def test_char_poly_coefficients_real_and_homogeneous(all_catalog_sets, rng):
    sets = all_catalog_sets + [random_hermitian_set(rng) for _ in range(5)]
    for mset in sets:
        cp = char_poly(mset)
        h = hamiltonian_reference(mset)
        trace = {}
        for k in range(mset.n):
            trace = poly_add(trace, h[k][k])
        assert poly_of(cp.c(mset.n - 1)) == poly_neg(trace)
        for k in range(mset.n + 1):
            ck = cp.c(k)
            assert all(type(c) is Fraction for _, c in ck.terms())
            assert term_degrees(poly_of(ck)) <= {mset.n - k}


def test_char_poly_requires_monic():
    with pytest.raises(ValueError):
        CharPoly(2, EPoly([0, 0, MultiPoly({(0, 0, 0, 1): 1})]))


def _trace_and_det(mset):
    return trace_and_det(char_poly(mset))


def test_trace_and_det_examples(dirac_pauli, pauli):
    values = _trace_and_det(dirac_pauli)
    assert list(values) == ["alpha1", "alpha2", "alpha3", "beta"]
    assert all(type(x) is Fraction for pair in values.values() for x in pair)
    assert values["beta"] == (Fraction(0), Fraction(1))

    with_identity_beta = MatrixSet(4, dirac_pauli.alphas, mat_identity(4))
    values = _trace_and_det(with_identity_beta)
    assert values["beta"] == (Fraction(4), Fraction(1))

    values = _trace_and_det(pauli)
    assert values["alpha1"] == (Fraction(0), Fraction(-1))
    assert values["beta"] == (Fraction(0), Fraction(0))

    # odd n: det = -c_0 on the pure power
    diagonal = as_matrix([[1, 0, 0], [0, 2, 0], [0, 0, -3]])
    values = _trace_and_det(MatrixSet(3, (diagonal, _zero(3), mat_identity(3)), diagonal))
    assert values["alpha1"] == values["beta"] == (Fraction(0), Fraction(-6))
    assert values["alpha2"] == (Fraction(0), Fraction(0))
    assert values["alpha3"] == (Fraction(3), Fraction(1))


@given(
    rng=st.randoms(use_true_random=False),
    steps=st.integers(0, 20),
    n=st.integers(2, 4),
)
@settings(max_examples=60, deadline=None, phases=_NO_SHRINK)
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
