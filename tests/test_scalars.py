import contextlib
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from deltadyn import scalars
from deltadyn.scalars import (
    GaussianRational,
    I,
    digits_over,
    format_lanes,
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


SIXTY_SEVENS = int("7" * 60)


@given(RATIONALS, RATIONALS, st.integers(0, 12))
# parts that share factors with the common denominator d of c: (1+i)^12
# / 2^12 = -1/64 divides out 2, 4 and 8 in three rounds, the real part
# of (3+2i)^7 / 6^7 is divisible by 3, and 1/S - S*i is (1 - S^2 i) / S
@example(Fraction(1, 2), Fraction(1, 2), 12)
@example(Fraction(1, 2), Fraction(1, 3), 7)
@example(Fraction(1, SIXTY_SEVENS), Fraction(-SIXTY_SEVENS), 9)
@example(Fraction(2, 9), Fraction(4, 3), 12)
def test_power_is_the_repeated_product_in_lowest_terms(re, im, e):
    # the power runs on integer lanes; each part is a Fraction in lowest
    # terms, its common factors with d divided out by gcds against d and
    # the squares of the factors divided out
    c = GaussianRational(re, im)
    want = GaussianRational(1)
    for _ in range(e):
        want = want * c
    got = c ** e
    assert got == want
    for part in (got.re, got.im):
        assert type(part) is Fraction and part.denominator > 0
        assert math.gcd(part.numerator, part.denominator) == 1


@pytest.mark.parametrize(
    "c,e,want",
    [
        # (1+i)^2 = 2i, so both powers are real, over 2^64000 and 3^16000
        (GaussianRational(Fraction(1, 2), Fraction(1, 2)), 64000, Fraction(2**32000, 2**64000)),
        (GaussianRational(Fraction(1, 3), Fraction(1, 3)), 16000, Fraction(2**8000, 3**16000)),
    ],
    ids=["(1+i)/2", "(1+i)/3"],
)
def test_a_long_power_takes_logarithmically_many_gcds(monkeypatch, c, e, want):
    # the common factor 2^32000 of the first comes out in one round per
    # doubling of the power divided out, plus the last, by squaring the
    # divisor; the zero imaginary part of each takes no gcd at all
    calls = []
    real_gcd = math.gcd

    def spy(*args):
        calls.append(args)
        return real_gcd(*args)

    monkeypatch.setattr(math, "gcd", spy)
    got = c**e
    monkeypatch.undo()
    assert got == GaussianRational(want)
    assert len(calls) <= e.bit_length() + 1


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


@contextlib.contextmanager
def digit_limit(limit):
    """CPython's int-to-str limit set to limit, and restored after."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


LEAF, SWITCH = scalars._DC_LEAF_BITS, scalars._DC_MIN_BITS


@st.composite
def long_ints(draw):
    """Ints of 1 to 400k bits and either sign: random bits, or a low
    half of zero bits, or a long run of decimal zeros in the low half."""
    # the second range puts half of the draws past the switch-over
    bits = draw(st.integers(1, 400_000) | st.integers(SWITCH, 400_000))
    rng = random.Random(draw(st.integers(0, 2**32)))
    n = rng.getrandbits(bits) | 1 << (bits - 1)
    shape = draw(st.sampled_from(("random", "zero bits", "decimal zeros")))
    if shape == "zero bits":
        n = n >> (bits // 2) << (bits // 2)
    elif shape == "decimal zeros":
        k = bits * 3 // 20  # about half of the decimal digits
        n = (n >> (bits // 2)) * 10**k + rng.getrandbits(4)
    return draw(st.sampled_from((1, -1))) * n


def split_width_examples(test):
    """Hypothesis examples one bit either side of each split width
    LEAF * 2^j of _int_str, the powers it shares across calls: a
    negative int of random bits and 2^bits - 1 at each."""
    for j in range(7):
        for bits in ((LEAF << j) - 1, LEAF << j, (LEAF << j) + 1):
            n = random.Random(bits).getrandbits(bits) | 1 << (bits - 1)
            test = example(-n)(example(2**bits - 1)(test))
    return test


@settings(max_examples=20, deadline=None)
@given(long_ints())
@example(-(random.Random(0).getrandbits(400_000) | 1 << 399_999))
@split_width_examples
def test_int_str_is_str(n):
    with digit_limit(0):
        assert scalars._int_str(n) == str(n)


def test_int_str_at_the_leaf_and_switch_over_sizes():
    edges = [0, 1]
    for w in (LEAF, SWITCH, 2 * SWITCH + 1):
        k = int(w * 0.30103)  # 10^k < 2^w < 10^(k+1)
        edges += [2**w - 1, 2**w, 2**w + 1, 10**k - 1, 10**k, 10 ** (k + 1) - 1, 10 ** (k + 1)]
    with digit_limit(0):
        for n in edges:
            assert scalars._int_str(n) == str(n)
            assert scalars._int_str(-n) == str(-n)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 10**6),
    st.lists(st.integers(-60, 60), max_size=5),
    st.integers(0, 2),
    st.booleans(),
    st.data(),
)
def test_format_lanes_is_format_scalar_of_the_row(den, re, zeros, complex_, data):
    # a row of integer lanes prints as format_scalar of the XSeries made
    # from it, trailing zeros trimmed, with no entry for a zero row
    from deltadyn.flows import _rows_to_terms

    re = re + [0] * zeros
    im = None
    if complex_:
        im = data.draw(st.lists(st.integers(-60, 60), min_size=len(re), max_size=len(re)))
    (xs,) = _rows_to_terms(2 if complex_ else 1, [(den, re, im)])
    assert format_lanes(den, re, im) == [format_scalar(c) for c in xs.coeffs]


def _long_parts(n):
    """Scalars that print the odd int n as each kind of part: an int,
    a numerator, a denominator, and in each part of a Gaussian rational."""
    return [
        n,
        -n,
        Fraction(n, 2),
        Fraction(1, n),
        GaussianRational(1, Fraction(n, 2)),
        GaussianRational(Fraction(-1, n), 1),
    ]


@pytest.mark.parametrize("digits", [5000, 100_000])
def test_format_keeps_the_default_digit_limit(digits):
    n = 10 ** (digits - 1) + 1
    with digit_limit(sys.int_info.default_max_str_digits):
        with pytest.raises(ValueError) as expected:
            str(n)
        for value in _long_parts(n):
            with pytest.raises(ValueError) as exc:
                format_scalar(value)
            assert str(exc.value) == str(expected.value)


def test_format_under_a_raised_digit_limit():
    fits = 10**49_998 + 1  # 49 999 digits, past the switch-over
    over = 10**50_000 + 1  # 50 001 digits
    with digit_limit(50_000):
        s = str(fits)
        expected = [s, "-" + s, s + "/2", "1/" + s, "1+%s/2*i" % s, "-1/%s+1*i" % s]
        assert [format_scalar(v) for v in _long_parts(fits)] == expected
        for value in _long_parts(over):
            with pytest.raises(ValueError, match="Exceeds the limit"):
                format_scalar(value)
