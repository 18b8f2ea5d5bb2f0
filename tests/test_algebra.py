import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from diracver.algebra import (
    ComplexRational,
    EPoly,
    MultiPoly,
    reduce_at_dispersion,
    render_epoly,
    render_multipoly,
    render_scalar,
)
from diracver.clifford import catalog
from diracver.sampling import perturbed_set
from oracles import (
    MASS,
    P1,
    P2,
    P3,
    E,
    S,
    constant,
    epoly_long_division,
    evaluate,
    poly_add,
    poly_mul,
    poly_neg,
    poly_of,
    random_epoly,
    random_multipoly,
    term_degrees,
)

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(ComplexRational, small_fractions, small_fractions)
monomials = st.tuples(*(st.integers(0, 3) for _ in range(4)))
polys = st.dictionaries(monomials, small_fractions, max_size=4).map(MultiPoly)
points = st.tuples(*(scalars for _ in range(4)))


def _real(c):
    """The Fraction value of a real oracle coefficient."""
    assert c.is_real
    return c.re


def _epoly(poly):
    """The library EPoly of an oracle polynomial with real coefficients."""
    top = max((k for k, *_ in poly), default=-1)
    return EPoly([MultiPoly({tuple(mono): _real(c) for (j, *mono), c in poly.items() if j == k}) for k in range(top + 1)])


def _multipoly(poly):
    """The library MultiPoly of an oracle polynomial free of E, with real coefficients."""
    assert all(k == 0 for k, *_ in poly)
    return MultiPoly({tuple(mono): _real(c) for (_, *mono), c in poly.items()})


# p1, p1 + m and p1 - m as library polynomials
X1 = MultiPoly({(1, 0, 0, 0): 1})
P1_PLUS_M = MultiPoly({(1, 0, 0, 0): 1, (0, 0, 0, 1): 1})
P1_MINUS_M = MultiPoly({(1, 0, 0, 0): 1, (0, 0, 0, 1): -1})


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------


def test_scalar_basics():
    z = ComplexRational(Fraction(1, 2), Fraction(-1, 3))
    w = ComplexRational(2, 1)
    assert (z + w).re == Fraction(5, 2)
    assert (z * w) == ComplexRational(Fraction(4, 3), Fraction(-1, 6))
    assert (z / z) == ComplexRational(1)
    assert -z + z == ComplexRational(0)
    with pytest.raises(ZeroDivisionError):
        z / ComplexRational(0)


@pytest.mark.parametrize("part", [0.1, "1/3", 1j, None], ids=["float", "string", "complex", "None"])
def test_complex_rationals_take_only_ints_and_fractions(part):
    # Fraction() would turn 0.1 into 3602879701896397/36028797018963968 and parse "1/3"
    message = f"^cannot interpret {re.escape(repr(part))} as an exact scalar$"
    for args in ((part,), (0, part), (part, 1)):
        with pytest.raises(TypeError, match=message):
            ComplexRational(*args)
    # bool is an int, as in MultiPoly and as_scalar
    assert ComplexRational(True, Fraction(1, 3)) == ComplexRational(1, Fraction(1, 3))
    # a float magnitude raises on a diagonal entry and on an off-diagonal one alike
    for seed in range(6):
        with pytest.raises(TypeError):
            perturbed_set(random.Random(seed), catalog("dirac-pauli"), entries=2, magnitude=0.1)


def test_scalar_powers_match_repeated_multiplication():
    z = ComplexRational(Fraction(1, 2), Fraction(-2, 3))
    expected = ComplexRational(1)
    for k in range(6):
        assert z**k == expected
        expected = expected * z
    with pytest.raises(ValueError, match="negative powers"):
        z**-1


@given(scalars)
def test_conjugation_is_involution(z):
    assert z.conj().conj() == z


def test_conjugate_negates_the_imaginary_part_over_the_same_denominator():
    z = ComplexRational(Fraction(3, 10), Fraction(-7, 15))
    w = z.conj()
    assert (w.re, w.im) == (Fraction(3, 10), Fraction(7, 15))
    assert (w._a, w._b, w._d) == (z._a, -z._b, z._d) == (9, 14, 30)


@given(scalars, scalars)
def test_scalar_division_roundtrip(z, w):
    if not w.is_zero:
        assert (z / w) * w == z


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------


def test_monomial_product():
    assert X1 * X1 == MultiPoly({(2, 0, 0, 0): 1})


def test_difference_of_squares():
    assert P1_PLUS_M * P1_MINUS_M == MultiPoly({(2, 0, 0, 0): 1, (0, 0, 0, 2): -1})


def test_cancellation_leaves_empty_term_map():
    # the p1*m terms of (p1 + m)(p1 - m) cancel and leave no stored zero
    assert (P1_PLUS_M * P1_MINUS_M).num_terms() == 2
    product = X1 * 0
    assert product.is_zero
    assert product.num_terms() == 0


def test_canonical_form_is_shared_across_denominators():
    mono = (1, 0, 0, 0)
    made, built = MultiPoly._make({mono: 2}, 4), MultiPoly({mono: Fraction(1, 2)})
    assert made == built
    assert hash(made) == hash(built)
    assert made._d == built._d == 2
    assert made.coefficient(mono) == Fraction(1, 2)
    # the same integers over another denominator are another polynomial
    assert MultiPoly({mono: 1}) != built


def test_cancelled_sum_leaves_unit_denominator():
    # (E^2 - s)/2 reduces to s/2 - s/2 = 0
    half_s = MultiPoly({mono: Fraction(-1, 2) for mono in ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2))})
    pair = reduce_at_dispersion(EPoly([half_s, 0, Fraction(1, 2)]))
    assert pair.even_part.is_zero and pair.odd_part.is_zero
    assert pair.even_part._d == pair.odd_part._d == 1
    assert (X1 * 0)._d == 1


@pytest.mark.parametrize("coeff", [ComplexRational(0, 1), ComplexRational(2), 0.5])
def test_coefficients_other_than_int_or_fraction_are_rejected(coeff):
    with pytest.raises(TypeError):
        MultiPoly({(0, 0, 0, 0): coeff})
    with pytest.raises(TypeError):
        EPoly([1, coeff])


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    # the library keeps the product only, so sums are taken in the oracle's arithmetic
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert poly_of(a * b) == poly_mul(poly_of(a), poly_of(b))
    b_plus_c = _multipoly(poly_add(poly_of(b), poly_of(c)))
    assert poly_of(a * b_plus_c) == poly_add(poly_of(a * b), poly_of(a * c))


def test_homogeneous_products_are_homogeneous(rng):
    for _ in range(50):
        d1, d2 = rng.randint(0, 3), rng.randint(0, 3)
        a = MultiPoly(
            {
                tuple(exps): rng.randint(1, 3)
                for exps in [_random_composition(rng, d1) for _ in range(3)]
            }
        )
        b = MultiPoly(
            {
                tuple(exps): rng.randint(1, 3)
                for exps in [_random_composition(rng, d2) for _ in range(3)]
            }
        )
        assert len(term_degrees(poly_of(a))) == len(term_degrees(poly_of(b))) == 1
        prod = a * b
        assert term_degrees(poly_of(prod)) <= {d1 + d2}


def _random_composition(rng, total):
    cuts = sorted(rng.randint(0, total) for _ in range(3))
    return (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], total - cuts[2])


@given(polys, polys, points)
@settings(max_examples=60)
def test_evaluation_is_a_homomorphism(a, b, pt):
    assert evaluate(poly_of(a * b), pt) == evaluate(poly_of(a), pt) * evaluate(poly_of(b), pt)
    assert evaluate(poly_add(poly_of(a), poly_of(b)), pt) == evaluate(poly_of(a), pt) + evaluate(poly_of(b), pt)


def test_evaluate_examples():
    poly = poly_add(poly_mul(P1, P1), poly_mul(MASS, MASS))
    assert evaluate(poly, (2, 0, 0, 3)) == ComplexRational(13)
    assert evaluate({}, (7, 1, 2, 3)) == ComplexRational(0)
    assert evaluate(poly_add(poly_mul(P1, P2), poly_neg(poly_mul(P2, P1))), (5, 7, 0, 0)) == ComplexRational(0)
    i_p1_p3 = poly_mul(poly_mul(P1, P3), constant(ComplexRational(0, 1)))
    assert evaluate(i_p1_p3, (ComplexRational(1, 1), 0, 2, 0)) == ComplexRational(-2, 2)


# ---------------------------------------------------------------------------
# energy polynomials
# ---------------------------------------------------------------------------


def test_derivative_power_rule():
    e4 = EPoly([0, 0, 0, 0, 1])
    assert e4.derivative() == EPoly([0, 0, 0, 4])


def test_derivative_with_polynomial_coefficients(rng):
    c = _multipoly(random_multipoly(rng))
    d = _multipoly(random_multipoly(rng))
    q = EPoly([d, c, MultiPoly.constant(1)])  # E^2 + c E + d
    assert q.derivative() == EPoly([c, MultiPoly.constant(2)])


def test_derivative_of_constant_is_zero(rng):
    assert EPoly([_multipoly(random_multipoly(rng))]).derivative() == EPoly([])
    assert EPoly([]).derivative() == EPoly([])


DIVISOR = poly_add(poly_mul(E, E), poly_neg(S))  # E^2 - s


def test_reduce_e_squared():
    pair = reduce_at_dispersion(EPoly([0, 0, 1]))
    assert poly_of(pair.even_part) == S
    assert pair.odd_part.is_zero


def test_reduce_already_reduced():
    pair = reduce_at_dispersion(EPoly([0, 2]))
    assert pair.even_part.is_zero
    assert pair.odd_part == MultiPoly.constant(2)


def test_reduce_e_cubed_matches_long_division():
    q = EPoly([0, 0, 0, 1])
    _, oracle_rem = epoly_long_division(poly_of(q), DIVISOR)
    pair = reduce_at_dispersion(q)
    assert poly_of(EPoly([pair.even_part, pair.odd_part])) == oracle_rem
    assert pair.even_part.is_zero
    assert poly_of(pair.odd_part) == S


def test_reduction_reconstructs_input():
    rng = random.Random(99)
    for _ in range(200):
        q = random_epoly(rng, max_degree=6)
        quot, oracle_rem = epoly_long_division(q, DIVISOR)
        pair = reduce_at_dispersion(_epoly(q))
        assert poly_of(EPoly([pair.even_part, pair.odd_part])) == oracle_rem
        assert poly_add(poly_mul(DIVISOR, quot), oracle_rem) == q
        assert all(k <= 1 for k, *_ in oracle_rem)


# Coefficients like those of the audit-growth sets: small
# fractions mixed with numerators and denominators of up to 50 digits.
wide_fractions = st.one_of(
    small_fractions,
    st.builds(Fraction, st.integers(-(10**50), 10**50), st.integers(1, 10**50)),
)
wide_polys = st.dictionaries(monomials, wide_fractions, max_size=4)
# degrees 0..6 in E, and the zero EPoly
epolys = st.lists(wide_polys.map(MultiPoly), max_size=7).map(EPoly)


# Examples that reduce up to E^6 with wide coefficients and run the oracle's
# long division are not shrunk: every shrink step reruns both, and a reducer
# without its m^2 shift once kept a failing run shrinking for 24 s.  The first
# failing example is reported as found.
_NO_SHRINK = (Phase.explicit, Phase.reuse, Phase.generate, Phase.target)


@given(epolys)
@example(EPoly([]))
@settings(phases=_NO_SHRINK)
def test_reduction_matches_long_division(q):
    _, oracle_rem = epoly_long_division(poly_of(q), DIVISOR)
    pair = reduce_at_dispersion(q)
    assert poly_of(EPoly([pair.even_part, pair.odd_part])) == oracle_rem


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def test_scalar_rendering():
    assert render_scalar(ComplexRational(Fraction(1, 2))) == "1/2"
    assert render_scalar(ComplexRational(0, -1)) == "-i"
    assert render_scalar(ComplexRational(0, Fraction(3, 4))) == "3/4*i"
    assert render_scalar(ComplexRational(Fraction(1, 2), Fraction(3, 4))) == "1/2+3/4*i"
    assert render_scalar(ComplexRational(1, -1)) == "1-1*i"


def test_polynomial_rendering_graded_lex():
    poly = MultiPoly({(2, 0, 0, 0): 1, (0, 0, 0, 2): -1})
    assert render_multipoly(poly) == "p1^2 - m^2"
    assert render_multipoly(MultiPoly({(1, 0, 0, 0): 1, (0, 1, 0, 0): Fraction(-1, 2)})) == "p1 - 1/2*p2"
    assert render_multipoly(MultiPoly()) == "0"
    # degree sorts first, then the exponent tuple of (p1, p2, p3, m)
    mixed = MultiPoly({(1, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 3): 1})
    assert render_multipoly(mixed) == "m^3 + p1*p2 + p3"


def test_epoly_rendering():
    q = EPoly([MultiPoly({(0, 0, 0, 4): 1}), 0, MultiPoly({(0, 0, 0, 2): -2}), 0, 1])
    assert render_epoly(q) == "E^4 - 2*m^2*E^2 + m^4"
    assert render_epoly(EPoly([])) == "0"
    assert render_epoly(EPoly([P1_PLUS_M, 1])) == "E + p1 + m"
    assert render_epoly(EPoly([0, P1_PLUS_M])) == "(p1 + m)*E"


# ---------------------------------------------------------------------------
# independence of the oracles
# ---------------------------------------------------------------------------


def test_oracles_import_no_polynomial_arithmetic():
    """The oracles compute polynomials in dicts of their own: of ``diracver.algebra`` they use
    only the scalars and the fraction renderer, and they take neither container from any module."""
    tree = ast.parse((Path(__file__).resolve().parent / "oracles.py").read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported += [(node.module, alias.name) for alias in node.names]
    assert ("diracver.algebra", None) not in imported
    assert ("diracver", "algebra") not in imported
    assert {name for module, name in imported if module == "diracver.algebra"} <= {"ComplexRational", "render_fraction"}
    containers = [(module, name) for module, name in imported if name in ("MultiPoly", "EPoly")]
    assert not [(module, name) for module, name in containers if (module or "").startswith("diracver")]
