"""The point form of the flow identities against their bivariate form.

group_law_residuals, pde_residual, verify_delta_ode and
delta_pde_identity_residuals evaluate their residuals at D + 1 integer
points; the oracles in oracle_utils expand the same identities as
series in t (and s) with polynomial coefficients, or on the terms A_n.  The two must return equal residuals, zero or
nonzero, including on autonomous sequences whose last row has a wrong
numerator.
"""

import contextlib
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from deltadyn import autonomous, deltaflow, points
from deltadyn.autonomous import AutonomousSequence, group_law_residuals, pde_residual
from deltadyn.deltaflow import delta_pde_identity_residuals, verify_delta_ode
from deltadyn.flows import _rows_to_terms
from deltadyn.points import _Degree, _points
from deltadyn.scalars import GaussianRational, to_lanes
from deltadyn.series import XSeries, _Gaussian
from deltadyn.umbral import (
    DeltaOp,
    abel,
    backward,
    basic_sequence_from_delta,
    derivative,
    forward,
    touchard,
)
from deltadyn.verifysuite import _max_abs, run_checks

from oracle_utils import (
    delta_ode_by_series,
    delta_pde_identity_by_series,
    group_law_by_series,
    pde_residual_by_series,
)
from strategies import GAUSSIAN_INTEGERS, GAUSSIANS, INTS, RATIONALS, polys

FIELDS = st.sampled_from((RATIONALS, GAUSSIANS))


@st.composite
def operators(draw, scalars, order):
    """A random delta operator of the given order over the scalars."""
    p1 = draw(scalars.filter(lambda c: c != 0))
    rest = draw(st.lists(scalars, min_size=order - 1, max_size=order - 1))
    return DeltaOp((0, p1) + tuple(rest))


@st.composite
def cases(draw, mutation=False):
    """(f, N, Q, basis): f of degree <= 3, an order N <= 6, a random
    delta operator Q of order N, and Q's basis or another operator's,
    all over Q or all over Q(i); with mutation, also a nonzero integer
    of f's own ring: Z[i] if f has a GaussianRational coefficient, else
    Z."""
    scalars = draw(FIELDS)
    f = draw(polys(scalars, max_size=4))
    N = draw(st.integers(1, 6))
    Q = draw(operators(scalars, N))
    other = draw(st.one_of(st.none(), operators(scalars, N)))
    case = (f, N, Q, None if other is None else basic_sequence_from_delta(other, N))
    if not mutation:
        return case
    gaussian = any(type(c) is GaussianRational for c in f.coeffs)
    return case + (draw((GAUSSIAN_INTEGERS if gaussian else INTS).filter(lambda c: c != 0)),)


def _assert_same(got, want):
    assert got == want
    # the verify report reads the largest size of each residual
    assert _max_abs(got) == _max_abs(want)


@settings(max_examples=12, deadline=None)
@given(cases())
def test_point_form_equals_the_bivariate_form(case):
    f, N, Q, basis = case
    _assert_same(group_law_residuals(f, N), group_law_by_series(f, N))
    _assert_same(pde_residual(f, N), pde_residual_by_series(f, N))
    _assert_same(verify_delta_ode(f, Q, N, basis), delta_ode_by_series(f, Q, N, basis))
    _assert_same(delta_pde_identity_residuals(f, N), delta_pde_identity_by_series(f, N))


def _formula_degree(f, N):
    """(deg f - 1) N + 1, the degree bound of every residual at order N."""
    return max(f.degree - 1, 0) * N + 1


def _vanishing(c, count):
    """c times the product of (x - x_i) over the first count points."""
    p = XSeries((c,))
    for x in _points(count):
        p = p * XSeries((-x, 1))
    return p


@contextlib.contextmanager
def _mutated(perturbation):
    """autonomous_sequence with the integral polynomial perturbation
    added to the numerator P_N of its last term A_N = P_N / d^N (or a
    function applied to P_N), installed where the package and the
    oracles read it.  The rows stay over d^n, as the kernel gives them,
    and the terms are read off them, A_1 included: at N = 1 the wrong
    row is A_1's, which the terms otherwise take from the generator."""
    real = autonomous.autonomous_sequence
    change = perturbation if callable(perturbation) else lambda P: P + perturbation

    def perturbed(g, order):
        kind, rows = real(g, order).numerators
        den, re, im = rows[-1]
        (P,) = _rows_to_terms(kind, [(1, re, im)])
        one, re, im, _ = to_lanes(change(P).coeffs)
        assert one == 1, "the perturbation must be integral"
        rows = rows[:-1] + ((den, re, im),)
        aut = AutonomousSequence(g, _rows_to_terms(kind, rows))
        aut._numerators = (kind, rows)
        return aut

    with mock.patch.object(autonomous, "autonomous_sequence", perturbed):
        with mock.patch.object(deltaflow, "autonomous_sequence", perturbed):
            yield


@settings(max_examples=10, deadline=None)
@given(cases(mutation=True), st.integers(0, 3))
def test_point_form_reports_a_wrong_term_like_the_bivariate_form(case, extra):
    # extra = 0: a perturbation of degree D vanishing at the first D
    # points, which only point D + 1 sees; extra > 0: a term of higher
    # degree than the formula allows, which must widen the point set.
    # c is an integer of f's ring, so the wrong row stays over d^N and
    # in f's field, as every row of the kernel does.
    f, N, Q, basis, c = case
    D = _formula_degree(f, N)
    with _mutated(_vanishing(c, D + extra)):
        group = group_law_residuals(f, N)
        _assert_same(group, group_law_by_series(f, N))
        pde = pde_residual(f, N)
        _assert_same(pde, pde_residual_by_series(f, N))
        ode = verify_delta_ode(f, Q, N, basis)
        _assert_same(ode, delta_ode_by_series(f, Q, N, basis))
        identity = delta_pde_identity_residuals(f, N)
        _assert_same(identity, delta_pde_identity_by_series(f, N))
    assert any(not r.is_zero for r in group)
    assert not pde.is_zero
    assert any(not r.is_zero for r in identity)


@pytest.mark.parametrize("f", [XSeries((0, 1, -1)), XSeries((GaussianRational(0, 1), 0, 1))])
def test_only_the_last_point_sees_a_perturbation_vanishing_at_the_others(f):
    N = 6
    D = _formula_degree(f, N)
    p = _vanishing(5, D)
    xs = _points(D + 1)
    assert all(p.evaluate(x) == 0 for x in xs[:-1]) and p.evaluate(xs[-1]) != 0
    with _mutated(p):  # d = 1, so p is added to A_N itself
        wrong = group_law_residuals(f, N)
        assert wrong == group_law_by_series(f, N)
        # residual (1, N-1) is A_N/(N-1)! less the unperturbed value
        assert wrong[N + 1 + N - 1] == p * Fraction(1, math.factorial(N - 1))
        assert pde_residual(f, N).coefficient(N - 1) == p * Fraction(1, math.factorial(N - 1))
        assert not verify_delta_ode(f, forward(N), N).is_zero


@pytest.mark.parametrize("f", [XSeries((0, 1, -1)), XSeries((GaussianRational(0, 1), 0, 1, 2))])
def test_a_wrong_term_of_lower_degree_is_recovered_exactly(f):
    # A_N = P_N (d = 1) without its top coefficient: the residuals keep
    # the degree of the right side, which only the degree recursion
    # through f sees
    N = 6
    with _mutated(lambda P: XSeries(P.coeffs[:-1])):
        group = group_law_residuals(f, N)
        assert group == group_law_by_series(f, N)
        pde = pde_residual(f, N)
        assert pde == pde_residual_by_series(f, N)
        assert verify_delta_ode(f, forward(N), N) == delta_ode_by_series(f, forward(N), N)
    assert max(r.degree for r in group) == _formula_degree(f, N)
    assert pde.coefficient(N - 1).degree == _formula_degree(f, N)


def test_the_delta_pde_identity_keeps_its_errors_and_its_zero():
    f = XSeries((0, 1, -1))
    with pytest.raises(ValueError, match="order must be >= 1"):
        delta_pde_identity_residuals(f, 0)
    assert delta_pde_identity_residuals(XSeries.zero(), 6) == [XSeries.zero()] * 6


def test_residual_polynomials_are_recovered_exactly():
    # a mismatched basis: every coefficient of the residual comes back
    # by interpolation, equal to the bivariate one
    f = XSeries((Fraction(1, 2), -1, 0, Fraction(3, 7)))
    N = 7
    basis = basic_sequence_from_delta(touchard(N), N)
    got = verify_delta_ode(f, forward(N), N, basis)
    assert not got.is_zero
    assert got == delta_ode_by_series(f, forward(N), N, basis)


# The flow shapes of the flow-session benchmark, whose oracle asks
# verify_delta_ode(f, Q, 4).is_zero of every flow request.
SESSION_GENERATORS = [
    XSeries((Fraction(1, 2), -2)),
    XSeries((1, Fraction(-2, 3), Fraction(3, 2))),
    XSeries((-1, Fraction(1, 3), 2, Fraction(-1, 2))),
    XSeries((GaussianRational(Fraction(1, 2), -1), GaussianRational(2, Fraction(1, 3)))),
    XSeries((GaussianRational(-1, 0), GaussianRational(0, 2), GaussianRational(Fraction(3, 2), -1))),
    XSeries(
        (
            GaussianRational(1, Fraction(-2, 3)),
            GaussianRational(0, 0),
            GaussianRational(Fraction(-1, 2), 1),
            GaussianRational(2, Fraction(1, 2)),
        )
    ),
]


@pytest.mark.parametrize(
    "f", SESSION_GENERATORS, ids=["Q-1", "Q-2", "Q-3", "Qi-1", "Qi-2", "Qi-3"]
)
@pytest.mark.parametrize(
    "Q", [forward(16), touchard(16), abel(Fraction(2, 3), 16)], ids=["forward", "touchard", "abel-2/3"]
)
def test_the_flow_session_oracle_holds(f, Q):
    assert verify_delta_ode(f, Q, 4).is_zero


def _is_integral(value):
    if type(value) is _Gaussian:
        return type(value.re) is int and type(value.im) is int
    return type(value) is int


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from((INTS, GAUSSIAN_INTEGERS, RATIONALS, GAUSSIANS)).flatmap(
        lambda s: polys(s, max_size=4)
    ),
    st.integers(1, 8),
    st.sampled_from((derivative, forward, backward, touchard)),
)
def test_an_integral_generator_gives_integral_point_values(f, N, make_q):
    # for f = F/d over Z, Q, Z[i] or Q(i), with F integral, the Hurwitz
    # coefficients at an integer point of the flow of F are the integers
    # P_n(x0), and the rows of the A_n' give integers too: every value
    # _certify passes to an identity's at (F, u and any further row
    # set), and every residual numerator at returns over an operator
    # with integer Hurwitz weights, is one, with no division on the way
    calls = []
    real = points._certify

    def spying(at, *args):
        seen = []
        calls.append(seen)

        def spy(*values):
            out = at(*values)
            seen.append(values + (out,))
            return out

        return real(spy, *args)

    with mock.patch.object(points, "_certify", spying):
        group_law_residuals(f, N)
        verify_delta_ode(f, make_q(N), N)
        delta_pde_identity_residuals(f, N)
    assert [len(seen[0]) for seen in calls] == [3, 3, 4]
    for degrees, *at_points in calls:
        # the degree pass first, then one call per point
        assert type(degrees[1][0]) is _Degree and at_points
        for values in at_points:
            assert all(_is_integral(v) for row_set in values for v in row_set)


def test_the_verify_checks_certify_rows_over_d_to_the_n(monkeypatch):
    # _flow_at reads no denominator, so row n of every row set that a
    # check of the autonomous and deltaflow groups certifies must be
    # over d^n, d that of F = d f, which _integral gives just before
    ds, certified = [], []
    real_integral, real_certify = points._integral, points._certify

    def integral(f):
        out = real_integral(f)
        ds.append(out[0])
        return out

    def certify(at, F, scales, kinds, *row_sets):
        certified.append((ds[-1], [[den for den, _, _ in rows] for rows in row_sets]))
        return real_certify(at, F, scales, kinds, *row_sets)

    monkeypatch.setattr(points, "_integral", integral)
    monkeypatch.setattr(points, "_certify", certify)
    for group in ("autonomous", "deltaflow"):
        assert all(row["pass"] for row in run_checks(8, 12, group))
    assert any(d > 1 for d, _ in certified)
    for d, row_sets in certified:
        for dens in row_sets:
            assert dens == [d**n for n in range(1, len(dens) + 1)]
