import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from deltadyn.scalars import (
    GaussianRational,
    I,
    digits_over,
    format_scalar,
    parse_scalar,
    rational_sqrt,
)


def test_basic_arithmetic():
    a = GaussianRational(1, 2)
    b = GaussianRational(3, -1)
    assert a + b == GaussianRational(4, 1)
    assert a - b == GaussianRational(-2, 3)
    assert a * b == GaussianRational(5, 5)  # (1+2i)(3-i) = 3 - i + 6i + 2
    assert I * I == -1


def test_division_exact():
    a = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    b = GaussianRational(0, 1)
    assert (a / b) * b == a
    assert a * a.conjugate() == a.norm()
    with pytest.raises(ZeroDivisionError):
        a / GaussianRational(0, 0)


def test_mixing_with_rationals():
    a = GaussianRational(1, 1)
    assert a + Fraction(1, 2) == GaussianRational(Fraction(3, 2), 1)
    assert Fraction(1, 2) + a == GaussianRational(Fraction(3, 2), 1)
    assert 2 * a == GaussianRational(2, 2)
    assert Fraction(1, 2) * a == GaussianRational(Fraction(1, 2), Fraction(1, 2))
    assert 1 / GaussianRational(0, 1) == GaussianRational(0, -1)
    assert Fraction(3, 4) / GaussianRational(1, 0) == Fraction(3, 4)


def test_powers():
    assert I ** 2 == -1
    assert GaussianRational(1, 1) ** 4 == -4
    assert GaussianRational(2, 0) ** 0 == 1


def test_equality_and_hash_with_fraction():
    g = GaussianRational(Fraction(1, 2), 0)
    assert g == Fraction(1, 2)
    assert hash(g) == hash(Fraction(1, 2))
    assert GaussianRational(0, 1) != Fraction(1)
    assert {g, Fraction(1, 2)} == {Fraction(1, 2)}


@pytest.mark.parametrize(
    "text,field,expected",
    [
        ("5/7", "Q", Fraction(5, 7)),
        ("-3", "Q", Fraction(-3)),
        ("1/2+3/4*i", "Qi", GaussianRational(Fraction(1, 2), Fraction(3, 4))),
        ("1/2-3/4*i", "Qi", GaussianRational(Fraction(1, 2), Fraction(-3, 4))),
        ("-1*i", "Qi", GaussianRational(0, -1)),
        ("7", "Qi", GaussianRational(7, 0)),
        ("i", "Qi", GaussianRational(0, 1)),
        ("-i", "Qi", GaussianRational(0, -1)),
        ("1/2+i", "Qi", GaussianRational(Fraction(1, 2), 1)),
        ("-3-i", "Qi", GaussianRational(-3, -1)),
    ],
)
def test_parse(text, field, expected):
    assert parse_scalar(text, field) == expected


RATIONALS = st.fractions(max_denominator=10 ** 6)


@given(RATIONALS, RATIONALS)
def test_format_parse_round_trip_gaussian(re, im):
    z = GaussianRational(re, im)
    assert parse_scalar(format_scalar(z), "Qi") == z


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_scalar("1/2+i", "Q")
    with pytest.raises(ValueError):
        parse_scalar("abc", "Qi")
    with pytest.raises(ValueError):
        parse_scalar("1", "R")
    for text in ("1/2+-i", "ii", "1/2+*i", "i*", "1/2i", "+-i"):
        with pytest.raises(ValueError):
            parse_scalar(text, "Qi")


@pytest.mark.parametrize(
    "value,expected",
    [
        (Fraction(5, 7), "5/7"),
        (Fraction(-3), "-3"),
        (GaussianRational(Fraction(1, 2), Fraction(3, 4)), "1/2+3/4*i"),
        (GaussianRational(Fraction(1, 2), Fraction(-3, 4)), "1/2-3/4*i"),
        (GaussianRational(2, 0), "2"),
    ],
)
def test_format_round_trip(value, expected):
    assert format_scalar(value) == expected
    gaussian = value if isinstance(value, GaussianRational) else GaussianRational(value)
    assert parse_scalar(expected, "Qi") == gaussian


@pytest.mark.parametrize(
    "parts,expected",
    [
        ((1, 2), (Fraction(1), Fraction(2))),
        ((Fraction(1, 2), 3), (Fraction(1, 2), Fraction(3))),
        ((0.5,), (Fraction(1, 2), Fraction(0))),
    ],
)
def test_gaussian_parts_are_fractions(parts, expected):
    z = GaussianRational(*parts)
    assert (type(z.re), type(z.im)) == (Fraction, Fraction)
    assert (z.re, z.im) == expected


def test_rational_sqrt():
    assert rational_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert rational_sqrt(Fraction(1)) == 1
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(-1)) is None


@pytest.mark.parametrize(
    "text, field",
    [("1/0", "Q"), ("1/0", "Qi"), ("1/0*i", "Qi"), ("1+1/0*i", "Qi"), ("1/0-i", "Qi")],
)
def test_zero_denominator_is_a_value_error(text, field):
    with pytest.raises(ValueError, match="zero denominator"):
        parse_scalar(text, field)


@pytest.mark.parametrize(
    "text, field",
    [("1/" + "7" * 5000, "Q"), ("7" * 5000, "Qi"), ("1-" + "7" * 5000 + "*i", "Qi")],
    ids=["denominator", "real", "imaginary"],
)
def test_integer_past_cpython_digit_limit_is_a_plain_value_error(text, field):
    # one short message, without the input or CPython's advice
    with pytest.raises(ValueError) as exc:
        parse_scalar(text, field)
    assert str(exc.value) == "number has more than %d digits" % sys.get_int_max_str_digits()


@pytest.mark.parametrize("cap", [1, 3, 9, 10, 50, 700, 5000])
def test_digits_over_is_exact_at_the_boundary(cap):
    top = 10**cap - 1
    assert not digits_over(top, cap) and not digits_over(-top, cap)
    assert digits_over(top + 1, cap) and digits_over(-top - 1, cap)
    assert not digits_over(Fraction(-top, top - 1), cap)
    assert digits_over(Fraction(1, top + 1), cap)
    assert not digits_over(GaussianRational(Fraction(1, top), top), cap)
    assert digits_over(GaussianRational(0, Fraction(top + 1, 7)), cap)
