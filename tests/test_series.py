import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deltadyn.scalars import GaussianRational
from deltadyn.series import (
    XSeries,
    compositional_inverse,
    derivative_sequence,
    hurwitz_product,
    rational_binomial,
    seq_compose,
)

from oracle_utils import padd, pcomp, pmul
from strategies import GAUSSIANS, INTS, RATIONALS

X = XSeries.x()


def test_polynomial_basics():
    assert X * X == XSeries((0, 0, 1))
    assert (XSeries((0, -1, 1))).derivative() == XSeries((-1, 2))  # d(x^2 - x)
    assert XSeries((1, 1)) * XSeries((1, -1)) == XSeries((1, 0, -1))


def test_evaluate_and_degree():
    p = XSeries((1, 0, 2))
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 2)
    assert p.degree == 2
    assert XSeries.zero().degree == -1


def test_shift_exact_and_truncated():
    p = XSeries((1, -2, 0, 1))  # x^3 - 2x + 1
    assert p.shift(1) == XSeries((0, 1, 3, 1))  # (x+1)^3 - 2(x+1) + 1
    assert p.shift(1).shift(-1) == p


# Z, Q and Q(i), each field containing the ones before it
SHIFT_FIELDS = ((int, INTS), (Fraction, RATIONALS), (GaussianRational, GAUSSIANS))


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(range(3)), st.sampled_from(range(3)), st.data())
def test_shift_matches_composition_with_x_plus_a(fp, fa, data):
    p = data.draw(st.lists(SHIFT_FIELDS[fp][1], max_size=6))
    a = data.draw(SHIFT_FIELDS[fa][1])
    got = XSeries(p).shift(a)
    assert got == XSeries(pcomp(p, [a, 1]))
    # every nonzero coefficient lies in the field of p and a together
    field = SHIFT_FIELDS[max(fp, fa)][0]
    assert {type(c) for c in got.coeffs if c != 0} <= {field}


def test_ring_axioms_sampled():
    rng = random.Random(7)
    for _ in range(25):
        a, b, c = (
            XSeries([rng.randint(-3, 3) for _ in range(4)]) for _ in range(3)
        )
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert a + b == b + a


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SMALL_GAUSSIANS = st.builds(GaussianRational, SMALL_RATIONALS, SMALL_RATIONALS)


@st.composite
def series_triples(draw):
    """Three polynomials over one field (Q or Q(i))."""
    scalars = draw(st.sampled_from((SMALL_RATIONALS, SMALL_GAUSSIANS)))
    return tuple(XSeries(draw(st.lists(scalars, max_size=5))) for _ in range(3))


def agree_through(series, coeffs):
    """series matches the coefficient list, and is zero past it."""
    return all(
        series.coefficient(k) == (coeffs[k] if k < len(coeffs) else 0)
        for k in range(max(len(coeffs), len(series.coeffs)))
    )


@settings(max_examples=40, deadline=None)
@given(series_triples())
def test_ring_axioms_with_truncation(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a


@settings(max_examples=40, deadline=None)
@given(series_triples())
def test_truncation_order_propagates(triple):
    a, b, _ = triple
    assert agree_through(a + b, padd(a.coeffs, b.coeffs))
    assert agree_through(a * b, pmul(a.coeffs, b.coeffs))


def test_product_coefficients_have_the_type_of_their_field():
    # no pair of nonzero coefficients lands on x^1 and x^3 of p * p
    F = Fraction
    p = XSeries((F(1), F(0), F(1)))
    assert [type(c) for c in (p * p).coeffs] == [Fraction] * 5
    g = XSeries((GaussianRational(1), 0, 1))
    assert (g * g) == XSeries((1, 0, 2, 0, 1))
    assert {type(c) for c in (g * g).coeffs} == {GaussianRational}
    q = XSeries((1, 0, 1))
    assert [type(c) for c in (q * q).coeffs] == [int] * 5
    assert {type(c) for c in (q * p).coeffs} == {Fraction}


def test_scalar_multiplication_promotes():
    from deltadyn.scalars import GaussianRational

    g = GaussianRational(0, 1)
    p = g * X
    assert p.coefficient(1) == g
    assert (Fraction(1, 2) * X).coefficient(1) == Fraction(1, 2)


# --- hurwitz product ------------------------------------------------------

def test_hurwitz_square_of_x():
    F = derivative_sequence(X, 5)
    prod = hurwitz_product(F, F)
    # derivative tower of x^2, frozen by differentiating x^2 repeatedly
    assert prod[0] == XSeries((0, 0, 1))
    assert prod[1] == XSeries((0, 2))
    assert prod[2] == XSeries((2,))
    assert prod[3] == XSeries.zero()
    assert prod[4] == XSeries.zero()


def test_hurwitz_unit():
    f = XSeries((1, 2, 0, 1))
    F = derivative_sequence(f, 6)
    ONE = derivative_sequence(XSeries.one(), 6)
    assert hurwitz_product(F, ONE) == F


def test_hurwitz_matches_derivatives_of_product():
    f, g = X, XSeries((1, 1))
    left = hurwitz_product(derivative_sequence(f, 6), derivative_sequence(g, 6))
    right = derivative_sequence(f * g, 6)
    assert left == right
    assert right[0] == XSeries((0, 1, 1))  # x + x^2


def test_hurwitz_random_leibniz():
    rng = random.Random(11)
    for _ in range(10):
        f = XSeries([rng.randint(-3, 3) for _ in range(4)])
        g = XSeries([rng.randint(-3, 3) for _ in range(4)])
        left = hurwitz_product(
            derivative_sequence(f, 8), derivative_sequence(g, 8)
        )
        assert left == derivative_sequence(f * g, 8)


def test_hurwitz_product_of_scalar_rows():
    # Hurwitz coefficients n! [u^n] of exp(a u) are a^n; exp(a u) exp(b u)
    # = exp((a + b) u)
    for a, b in ((Fraction(1, 2), Fraction(-3)), (GaussianRational(1, 2), Fraction(2, 3))):
        left = hurwitz_product([a ** n for n in range(7)], [b ** n for n in range(7)])
        assert left == tuple((a + b) ** n for n in range(7))
    # u * u = 2 u^2 / 2!: the Hurwitz row (0, 1, 0, ...) squared
    assert hurwitz_product((0, 1, 0, 0), (0, 1, 0, 0)) == (0, 0, 2, 0)


def test_hurwitz_length_mismatch():
    with pytest.raises(ValueError):
        hurwitz_product(derivative_sequence(X, 3), derivative_sequence(X, 4))
    with pytest.raises(ValueError):
        derivative_sequence(X, 0)


# --- compositional inverse -------------------------------------------------

def test_inverse_identity():
    assert compositional_inverse((0, 1), 5) == (0, 1, 0, 0, 0, 0)


def test_inverse_of_exp_minus_one_is_log():
    import math

    p = (0,) + tuple(Fraction(1, math.factorial(k)) for k in range(1, 9))
    inv = compositional_inverse(p, 8)
    expected = (0,) + tuple(Fraction((-1) ** (n - 1), n) for n in range(1, 9))
    assert inv == expected


def test_inverse_of_tree_series():
    import math

    # p(u) = u e^u; the inverse has coefficients (-1)^(n-1) n^(n-1) / n!
    p = (0,) + tuple(Fraction(1, math.factorial(k - 1)) for k in range(1, 9))
    inv = compositional_inverse(p, 8)
    for n in range(1, 9):
        assert inv[n] == Fraction((-1) ** (n - 1) * n ** (n - 1), math.factorial(n))
    # oracle: composing back gives the identity
    rt = seq_compose(p, inv, 8)
    assert rt == (0, 1, 0, 0, 0, 0, 0, 0, 0)


def test_inverse_round_trip_random():
    rng = random.Random(3)
    for _ in range(6):
        p = (0, Fraction(rng.randint(1, 4))) + tuple(
            Fraction(rng.randint(-3, 3)) for _ in range(6)
        )
        inv = compositional_inverse(p, 7)
        rt = seq_compose(p, inv, 7)
        assert rt == (0, 1, 0, 0, 0, 0, 0, 0)


def test_inverse_preconditions():
    with pytest.raises(ValueError):
        compositional_inverse((1, 1), 4)
    with pytest.raises(ValueError):
        compositional_inverse((0, 0, 1), 4)


# --- rational binomial coefficients ----------------------------------------

def test_rational_binomial():
    assert rational_binomial(Fraction(-1, 2), 2) == Fraction(3, 8)
    assert rational_binomial(5, 2) == 10
    assert rational_binomial(Fraction(1, 2), 0) == 1


# --- oracle consistency: package multiplication vs list oracle -------------

def test_multiplication_against_list_oracle():
    rng = random.Random(23)
    for _ in range(10):
        a = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
        b = [Fraction(rng.randint(-4, 4)) for _ in range(5)]
        got = XSeries(a) * XSeries(b)
        expected = XSeries(pmul(a, b))
        assert got == expected
