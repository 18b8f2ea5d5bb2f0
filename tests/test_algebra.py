import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diracver.algebra import (
    MASS,
    P1,
    P2,
    P3,
    ComplexRational,
    EPoly,
    MultiPoly,
    reduce_at_dispersion,
    render_epoly,
    render_multipoly,
    render_scalar,
)
from oracles import epoly_long_division, evaluate, random_epoly, random_multipoly, term_degrees

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(ComplexRational, small_fractions, small_fractions)
monomials = st.tuples(*(st.integers(0, 3) for _ in range(4)))
polys = st.dictionaries(monomials, scalars, max_size=4).map(MultiPoly)
points = st.tuples(*(scalars for _ in range(4)))


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


@given(scalars)
def test_conjugation_is_involution(z):
    assert z.conj().conj() == z


@given(scalars)
def test_abs2_nonnegative_and_definite(z):
    assert z.abs2() >= 0
    assert (z.abs2() == 0) == z.is_zero


@given(scalars, scalars)
def test_scalar_division_roundtrip(z, w):
    if not w.is_zero:
        assert (z / w) * w == z


# ---------------------------------------------------------------------------
# polynomial arithmetic
# ---------------------------------------------------------------------------


def test_monomial_product():
    assert P1 * P1 == MultiPoly({(2, 0, 0, 0): 1})


def test_difference_of_squares():
    assert (P1 + MASS) * (P1 - MASS) == P1 * P1 - MASS * MASS


def test_cancellation_leaves_empty_term_map():
    diff = P1 * P1 - P1 * P1
    assert diff.is_zero
    assert diff.num_terms() == 0


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


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
        assert len(term_degrees(a)) == len(term_degrees(b)) == 1
        prod = a * b
        assert term_degrees(prod) <= {d1 + d2}


def _random_composition(rng, total):
    cuts = sorted(rng.randint(0, total) for _ in range(3))
    return (cuts[0], cuts[1] - cuts[0], cuts[2] - cuts[1], total - cuts[2])


@given(polys, polys, points)
@settings(max_examples=60)
def test_evaluation_is_a_homomorphism(a, b, pt):
    assert evaluate(a * b, pt) == evaluate(a, pt) * evaluate(b, pt)
    assert evaluate(a + b, pt) == evaluate(a, pt) + evaluate(b, pt)


def test_evaluate_examples():
    poly = P1 * P1 + MASS * MASS
    assert evaluate(poly, (2, 0, 0, 3)) == ComplexRational(13)
    assert evaluate(MultiPoly.zero(), (7, 1, 2, 3)) == ComplexRational(0)
    assert evaluate(P1 * P2 - P2 * P1, (5, 7, 0, 0)) == ComplexRational(0)
    assert evaluate(P1 * P3 * ComplexRational(0, 1), (ComplexRational(1, 1), 0, 2, 0)) == ComplexRational(-2, 2)


# ---------------------------------------------------------------------------
# energy polynomials
# ---------------------------------------------------------------------------


def test_derivative_power_rule():
    e4 = EPoly([0, 0, 0, 0, 1])
    assert e4.derivative() == EPoly([0, 0, 0, 4])


def test_derivative_with_polynomial_coefficients(rng):
    c = random_multipoly(rng)
    d = random_multipoly(rng)
    q = EPoly([d, c, MultiPoly.constant(1)])  # E^2 + c E + d
    assert q.derivative() == EPoly([c, MultiPoly.constant(2)])


def test_derivative_of_constant_is_zero(rng):
    assert EPoly([random_multipoly(rng)]).derivative() == EPoly.zero()
    assert EPoly.zero().derivative() == EPoly.zero()


def _modulus(massless=False):
    """The squared energy s = p.p + m^2, or p.p when massless, built term by term."""
    s = P1 * P1 + P2 * P2 + P3 * P3
    return s if massless else s + MASS * MASS


def _e_squared_minus_s(massless=False):
    return EPoly([-_modulus(massless), MultiPoly.zero(), MultiPoly.constant(1)])


def test_reduce_e_squared():
    pair = reduce_at_dispersion(EPoly([0, 0, 1]))
    assert pair.even_part == _modulus()
    assert pair.odd_part.is_zero


def test_reduce_already_reduced():
    pair = reduce_at_dispersion(EPoly([0, 2]))
    assert pair.even_part.is_zero
    assert pair.odd_part == MultiPoly.constant(2)


def test_reduce_e_cubed_matches_long_division():
    q = EPoly([0, 0, 0, 1])
    _, oracle_rem = epoly_long_division(q, _e_squared_minus_s())
    pair = reduce_at_dispersion(q)
    assert EPoly([pair.even_part, pair.odd_part]) == oracle_rem
    assert pair.even_part.is_zero
    assert pair.odd_part == _modulus()


@pytest.mark.parametrize("massless", [False, True])
def test_reduction_reconstructs_input(massless):
    rng = random.Random(99)
    divisor = _e_squared_minus_s(massless)
    for _ in range(200):
        q = random_epoly(rng, max_degree=6)
        quot, oracle_rem = epoly_long_division(q, divisor)
        pair = reduce_at_dispersion(q, massless)
        assert EPoly([pair.even_part, pair.odd_part]) == oracle_rem
        assert divisor * quot + oracle_rem == q
        assert oracle_rem.degree <= 1


# Gaussian coefficients like those of the audit-growth sets: small
# fractions mixed with numerators and denominators of up to 50 digits.
wide_fractions = st.one_of(
    small_fractions,
    st.builds(Fraction, st.integers(-(10**50), 10**50), st.integers(1, 10**50)),
)
wide_polys = st.dictionaries(monomials, st.builds(ComplexRational, wide_fractions, wide_fractions), max_size=4)
# degrees 0..6 in E, and the zero EPoly; m terms stay in massless input too
epolys = st.lists(wide_polys.map(MultiPoly), max_size=7).map(EPoly)


@given(epolys, st.booleans())
@example(EPoly.zero(), False)
@example(EPoly.zero(), True)
def test_reduction_matches_long_division(q, massless):
    _, oracle_rem = epoly_long_division(q, _e_squared_minus_s(massless))
    pair = reduce_at_dispersion(q, massless)
    assert EPoly([pair.even_part, pair.odd_part]) == oracle_rem


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
    poly = P1 * P1 - MASS * MASS
    assert render_multipoly(poly) == "p1^2 - m^2"
    assert render_multipoly(P1 - ComplexRational(0, 1) * P2) == "p1 - i*p2"
    assert render_multipoly(MultiPoly.zero()) == "0"
    # degree sorts first, then the exponent tuple of (p1, p2, p3, m)
    mixed = P1 * P2 + P3 + MASS * MASS * MASS
    assert render_multipoly(mixed) == "m^3 + p1*p2 + p3"


def test_epoly_rendering():
    q = EPoly([MASS ** 4, MultiPoly.zero(), MASS * MASS * (-2), MultiPoly.zero(), MultiPoly.constant(1)])
    assert render_epoly(q) == "E^4 - 2*m^2*E^2 + m^4"
    assert render_epoly(EPoly.zero()) == "0"
    two_term = EPoly([P1 + MASS, MultiPoly.constant(1)])
    assert render_epoly(two_term) == "E + p1 + m"
    assert render_epoly(EPoly([MultiPoly.zero(), P1 + MASS])) == "(p1 + m)*E"
