from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from deltadyn.autonomous import classical_flow, semiflow
from deltadyn.flows import Flow, TSeries, taylor_compose
from deltadyn.scalars import GaussianRational
from deltadyn.series import XSeries
from deltadyn.umbral import basic_sequence_from_delta, forward

from oracle_utils import padd, pcomp, pmul, taylor_sum_compose

X = XSeries.x()


def _monomial_flow(coeff_lists, has_base=True):
    return Flow(tuple(XSeries(c) for c in coeff_lists), None, has_base)


def test_taylor_compose_identity_function():
    phi = classical_flow(XSeries((0, 1, -1)), 6)
    assert taylor_compose(X, phi) == phi.to_tseries()


def test_taylor_compose_square_on_x_plus_t():
    w = _monomial_flow([(0, 1)])  # x + t, order 1... need order 2 for t^2
    w = Flow((XSeries.one(), XSeries.zero()), None, True)  # x + t at order 2
    out = taylor_compose(X * X, w)
    assert out.coefficient(0) == XSeries((0, 0, 1))
    assert out.coefficient(1) == XSeries((0, 2))
    assert out.coefficient(2) == XSeries.one()


def test_taylor_compose_logistic_generator():
    # f = x(1-x), W = x + x t: hand expansion x(1-x) + x(1-2x) t - x^2 t^2
    f = XSeries((0, 1, -1))
    w = Flow((X, XSeries.zero()), None, True)
    out = taylor_compose(f, w)
    assert out.coefficient(0) == XSeries((0, 1, -1))
    assert out.coefficient(1) == XSeries((0, 1, -2))
    assert out.coefficient(2) == XSeries((0, 0, -1))


SMALL_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
SMALL_GAUSSIANS = st.builds(GaussianRational, SMALL_RATIONALS, SMALL_RATIONALS)


@st.composite
def polynomial_and_flow(draw):
    """f of degree <= 4 and the classical flow of some g, order <= 6."""
    scalars = draw(st.sampled_from((SMALL_RATIONALS, SMALL_GAUSSIANS)))
    f = XSeries(draw(st.lists(scalars, max_size=5)))
    g = XSeries(draw(st.lists(scalars, max_size=4)))
    return f, classical_flow(g, draw(st.integers(1, 6)))


@settings(max_examples=30, deadline=None)
@given(polynomial_and_flow())
def test_taylor_compose_matches_taylor_sum_on_centred_flows(pair):
    f, phi = pair
    got = taylor_compose(f, phi)
    assert got.order == phi.order
    assert got == taylor_sum_compose(f, phi)


def _composed_lists(f, w):
    """f(W) by composing the untruncated coefficient lists of f and of
    the TSeries W (in t, with XSeries entries); TSeries cuts the result
    at W's t-order."""
    full = pcomp(list(f.coeffs), list(w.coeffs))
    return TSeries([XSeries.zero() + c for c in full], w.order)


@st.composite
def polynomial_and_tseries(draw):
    """f of degree <= 4 and any W of t-order <= 5, over Q or Q(i)."""
    scalars = draw(st.sampled_from((SMALL_RATIONALS, SMALL_GAUSSIANS)))
    f = XSeries(draw(st.lists(scalars, max_size=5)))
    order = draw(st.integers(0, 5))
    w = [XSeries(draw(st.lists(scalars, max_size=3))) for _ in range(order + 1)]
    return f, TSeries(w, order)


@settings(max_examples=60, deadline=None)
@given(polynomial_and_tseries())
@example((X * X - 3, TSeries((XSeries.one(), XSeries.one()), 3)))
@example((XSeries((1, -2, 0, 1)), semiflow(XSeries((0, 1, -1)), 4)))
def test_taylor_compose_matches_list_composition_on_any_base(pair):
    f, w = pair
    ts = w.to_tseries() if isinstance(w, Flow) else w
    got = taylor_compose(f, w)
    assert got.order == ts.order
    assert got == _composed_lists(f, ts)


@st.composite
def tseries_pair(draw):
    """Two coefficient lists in t, of their own t-orders <= 5, over Q or
    Q(i), with whole zero coefficients mixed in."""
    scalars = draw(st.sampled_from((SMALL_RATIONALS, SMALL_GAUSSIANS)))
    coeff = st.one_of(st.just([]), st.lists(scalars, max_size=4))
    return [
        (draw(st.lists(coeff, max_size=order + 1)), order)
        for order in (draw(st.integers(0, 5)), draw(st.integers(0, 5)))
    ]


@settings(max_examples=60, deadline=None)
@given(tseries_pair())
def test_tseries_product_matches_list_double_loop(pair):
    (a, p), (b, q) = pair
    order = min(p, q)
    want = [[] for _ in range(order + 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            if i + j <= order:
                want[i + j] = padd(want[i + j], pmul(ai, bj))
    got = TSeries(map(XSeries, a), p) * TSeries(map(XSeries, b), q)
    assert got.order == order
    assert got.coeffs == tuple(map(XSeries, want))


def test_taylor_compose_uncentred_base():
    # f(x) = x^2 at W = 1 + t: coefficients (1, 2, 1)
    w = TSeries((XSeries.one(), XSeries.one(), XSeries.zero()), 2)
    out = taylor_compose(X * X, w)
    assert out.coefficient(0) == XSeries.one()
    assert out.coefficient(1) == XSeries((2,))
    assert out.coefficient(2) == XSeries.one()


def test_tseries_calculus():
    w = TSeries((XSeries((0, 0, 1)), XSeries((0, 3)), XSeries((5,))), 2)
    assert w.dt().coeffs == (XSeries((0, 3)), XSeries((10,)))
    assert w.dx().coeffs == (XSeries((0, 2)), XSeries((3,)), XSeries.zero())
    scaled = w.t_scale(Fraction(1, 2))
    assert scaled.coefficient(1) == XSeries((0, Fraction(3, 2)))
    assert scaled.coefficient(2) == XSeries((Fraction(5, 4),))
    assert w.evaluate(2, 3) == 9 + 9 * 2 + 5 * 4


def test_flow_evaluate_at_zero_gives_base():
    phi = classical_flow(XSeries((0, 2, -1)), 5)
    assert phi.evaluate(0, Fraction(1, 3)) == Fraction(1, 3)
    basis = basic_sequence_from_delta(forward(6), 6)
    basic = phi.to_basic(basis)
    assert basic.evaluate(0, Fraction(1, 3)) == Fraction(1, 3)


def test_basis_round_trip():
    phi = classical_flow(XSeries((0, 1, -1)), 6)
    basis = basic_sequence_from_delta(forward(8), 8)
    there = phi.to_basic(basis)
    back = there.to_monomial()
    assert back.coeffs == phi.coeffs
    again = back.to_basic(basis)
    assert again.coeffs == there.coeffs


def test_composition_commutes_with_x_derivative():
    # d/dx f(Phi) = f'(Phi) dPhi/dx, coefficient by coefficient
    for f in (XSeries((0, 1, -1)), XSeries((1, -2, 0, 3))):
        for gen in (XSeries((0, 1, 1)), XSeries((0, 0, 1))):
            phi = classical_flow(gen, 8)
            lhs = taylor_compose(f, phi).dx()
            rhs = taylor_compose(f.derivative(), phi) * phi.to_tseries().dx()
            assert lhs == rhs.truncate(lhs.order)


def test_flow_coefficient_access():
    phi = classical_flow(X, 4)
    assert phi.coefficient(1) == X
    assert phi.coefficient(4) == X * Fraction(1, 24)
    with pytest.raises(ValueError):
        phi.coefficient(5)
    semi = phi.minus_base()
    assert not semi.has_base
    assert semi.to_tseries().coefficient(0) == XSeries.zero()


def test_taylor_compose_raises_past_the_truncation_order():
    # W = x + t: the t^2 coefficient is f''/2, so 1 + x + 5x^2 and
    # 1 + x + 7x^2 give 5 and 7
    w = classical_flow(XSeries((1,)), 3)
    for c in (5, 7):
        assert taylor_compose(XSeries((1, 1, c)), w).coefficient(2) == XSeries((c,))


def test_a_negative_power_has_coefficient_zero():
    # not the entry counted from the top, which a negative index reads
    assert basic_sequence_from_delta(forward(4), 4).beta(-1, 3) == 0
    assert XSeries((1, 2, 3)).coefficient(-1) == 0
    w = TSeries([XSeries.one(), XSeries.x()], 1)
    assert w.coefficient(-1) == XSeries.zero()
