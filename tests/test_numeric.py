import math
from fractions import Fraction

import pytest

from deltadyn.numeric import (
    CLOSED_FORM_KINDS,
    NumericConfig,
    SeriesDivergence,
    default_lambert_grid,
    lambert_w,
    lambert_w_residual,
    numeric_closed_form_check,
)
from deltadyn.umbral import stirling2


def test_lambert_w_trivial_values():
    assert lambert_w(0.0) == 0.0
    assert abs(lambert_w(math.e) - 1.0) < 1e-14


def test_lambert_w_omega_residual():
    # defining-equation residual at x = 1, no literature constant assumed
    assert lambert_w_residual(1.0) < 1e-12


def test_lambert_w_grid_residuals():
    for x in default_lambert_grid():
        assert lambert_w_residual(x) < 1e-12


def test_lambert_w_near_branch_point():
    assert abs(lambert_w(-1.0 / math.e) + 1.0) < 1e-6
    assert lambert_w_residual(-0.35) < 1e-12


def test_lambert_w_domain():
    with pytest.raises(ValueError):
        lambert_w(-1.0)


def test_forward_binomial_exact_case():
    # a = 1, t = 3: the sum collapses to C(3,1)+C(3,2)+C(3,3) = 7 = 2^3 - 1
    report = numeric_closed_form_check("forward", 1.0, 3.0)
    assert abs(report.closed_form - 7.0) < 1e-12
    assert report.deviation < 1e-12


def test_abel_zero_slope_trivial():
    report = numeric_closed_form_check("abel", 0.0, 0.7, alpha=1.0)
    assert report.partial_sum == 0.0
    assert report.closed_form == 0.0


def test_touchard_small_sample():
    report = numeric_closed_form_check("touchard", 1.0, 0.1)
    expected = math.exp(0.1 * (math.e - 1.0)) - 1.0
    assert abs(report.closed_form - expected) < 1e-15
    assert report.deviation < 1e-9


def test_convergent_grid_samples():
    config = NumericConfig()
    for kind in CLOSED_FORM_KINDS:
        report = numeric_closed_form_check(kind, 0.25, 0.5, config=config)
        assert report.deviation < 1e-9


def test_abel_diverges_beyond_branch_radius():
    # |alpha * a| = 1/2 > 1/e: the partial sums blow up and the check
    # refuses to report a deviation
    with pytest.raises(SeriesDivergence):
        numeric_closed_form_check("abel", 0.5, 0.1, alpha=1.0)


def test_one_term_reports_its_deviation():
    # a single term has no earlier term to be compared with
    report = numeric_closed_form_check(
        "forward", 0.25, 0.5, config=NumericConfig(depth=1)
    )
    assert report.terms == 1 and report.partial_sum == 0.125
    assert report.deviation == abs(0.125 - math.expm1(0.5 * math.log1p(0.25)))


def test_unknown_kind():
    with pytest.raises(ValueError):
        numeric_closed_form_check("sideways", 0.1, 0.1)


def test_unknown_kind_is_refused_at_a_zero_too():
    # the kind is checked before the shortcut that a = 0 takes
    with pytest.raises(ValueError, match="unknown kind 'bogus'"):
        numeric_closed_form_check("bogus", 0.0, 1.0)


def test_abel_beyond_float_range_diverges():
    # at depth 144 the exact Abel coefficients pass float range; the
    # check still reaches its verdict instead of overflowing
    with pytest.raises(SeriesDivergence):
        numeric_closed_form_check("abel", 0.5, 0.1, config=NumericConfig(depth=144))


def test_forward_converges_at_large_t():
    # q_n(11.5) has large coefficients of both signs, whose float Horner
    # sum loses every digit of the tail; the series itself converges
    report = numeric_closed_form_check("forward", 0.95, 11.5)
    assert abs(report.closed_form - (1.95 ** 11.5 - 1.0)) < 1e-9
    assert report.deviation < 1e-12 * report.closed_form


def _exact_terms(kind, a, t, depth):
    """a^n q_n(t) / n! for n = 1 .. depth, from the product forms of q_n."""
    a, t = Fraction(a), Fraction(t)
    q = {
        "forward": lambda n: math.prod(t - j for j in range(n)),
        "backward": lambda n: math.prod(t + j for j in range(n)),
        "abel": lambda n: t * (t - n) ** (n - 1),
        "touchard": lambda n: sum(stirling2(n, k) * t ** k for k in range(n + 1)),
    }[kind]
    return [a ** n * q(n) / math.factorial(n) for n in range(1, depth + 1)]


def test_partial_sum_within_stated_bound():
    # one rounding per term, then depth float additions:
    # |partial_sum - exact sum| <= gamma_depth * sum |term|, u = 2^-53
    depth = NumericConfig().depth
    u = 2.0 ** -53
    gamma = depth * u / (1 - depth * u)
    for kind, a, t in (
        ("forward", 1.0, 3.0),
        ("forward", 0.9, 3.7),
        ("backward", 0.5, 3.5),
        ("abel", 0.25, 3.0),
        ("touchard", 0.5, 4.0),
    ):
        report = numeric_closed_form_check(kind, a, t)
        terms = _exact_terms(kind, a, t, depth)
        error = abs(Fraction(report.partial_sum) - sum(terms))
        assert error <= gamma * sum(abs(x) for x in terms), (kind, a, t)
