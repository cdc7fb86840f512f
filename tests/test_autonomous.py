import functools
import math
import random
from fractions import Fraction

import pytest

from deltadyn import autonomous, verifysuite
from deltadyn.autonomous import (
    AutonomousSequence,
    aut_add,
    aut_mul,
    aut_scale,
    autonomous_sequence,
    classical_flow,
    flow_factorize,
    group_law_residuals,
    h_sequence,
    pde_residual,
    semiflow,
)
from deltadyn.scalars import GaussianRational, I
from deltadyn.series import XSeries

X = XSeries.x()


def test_fixed_point_of_x():
    aut = autonomous_sequence(X, 4)
    assert aut.terms == (X, X, X, X)


def test_square_generator():
    aut = autonomous_sequence(X * X, 6)
    assert aut.terms[:3] == (
        XSeries((0, 0, 1)),
        XSeries((0, 0, 0, 2)),
        XSeries((0, 0, 0, 0, 6)),
    )
    for n in range(1, 7):
        assert aut.term(n) == XSeries.monomial(math.factorial(n), n + 1)


def test_affine_generator_closed_form():
    # A_n(ax + b) = a^(n-1) (ax + b), checked for a sample of scalars
    for a, b in ((Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(1))):
        f = XSeries((b, a))
        aut = autonomous_sequence(f, 8)
        for n in range(1, 9):
            assert aut.term(n) == f * a ** (n - 1)


def test_degree_bound():
    rng = random.Random(5)
    for _ in range(5):
        d = rng.randint(1, 4)
        f = XSeries([rng.randint(-3, 3) for _ in range(d)] + [rng.randint(1, 3)])
        aut = autonomous_sequence(f, 8)
        for n in range(1, 9):
            assert aut.term(n).degree <= n * (d - 1) + 1


def test_recursion_invariant():
    f = XSeries((0, 1, 2, -1))
    aut = autonomous_sequence(f, 7)
    assert aut.term(1) == f
    for n in range(1, 7):
        assert aut.term(n + 1) == f * aut.term(n).derivative()


# --- cross terms ------------------------------------------------------------

def test_h_sequence_zero_partner():
    f = XSeries((1, 2, 3))
    assert all(h.is_zero for h in h_sequence(f, XSeries.zero(), 6))


def test_h_sequence_one_step():
    H = h_sequence(X, X, 3)
    assert H[0] == XSeries.zero()
    assert H[1] == XSeries((0, 2))  # x*1 + x*1 + 2x*0


def test_h_sequence_measures_additivity_defect():
    rng = random.Random(9)
    for _ in range(8):
        f = XSeries([rng.randint(-3, 3) for _ in range(4)])
        g = XSeries([rng.randint(-3, 3) for _ in range(4)])
        H = h_sequence(f, g, 8)
        both = autonomous_sequence(f + g, 8)
        af = autonomous_sequence(f, 8)
        ag = autonomous_sequence(g, 8)
        for n in range(1, 9):
            assert H[n - 1] == both.term(n) - af.term(n) - ag.term(n)


def test_aut_add_examples():
    ax = autonomous_sequence(X, 6)
    zero = autonomous_sequence(XSeries.zero(), 6)
    assert aut_add(ax, zero).terms == ax.terms
    doubled = aut_add(ax, ax)
    for n in range(1, 7):
        assert doubled.term(n) == X * 2 ** n
    fg = aut_add(ax, autonomous_sequence(X * X, 6))
    assert fg.terms == autonomous_sequence(X + X * X, 6).terms


def test_aut_mul_examples():
    ax = autonomous_sequence(X, 6)
    one = autonomous_sequence(XSeries.one(), 6)
    assert aut_mul(ax, one).terms == ax.terms
    sq = aut_mul(ax, ax)
    assert sq.terms == autonomous_sequence(X * X, 6).terms
    logi = aut_mul(ax, autonomous_sequence(XSeries((1, -1)), 6))
    assert logi.terms == autonomous_sequence(XSeries((0, 1, -1)), 6).terms


def test_aut_scale_examples():
    ax = autonomous_sequence(X, 6)
    assert aut_scale(1, ax).terms == ax.terms
    neg = aut_scale(-1, ax)
    assert neg.terms == autonomous_sequence(-X, 6).terms
    sq = autonomous_sequence(X * X, 5)
    twice = aut_scale(2, sq)
    assert twice.terms == autonomous_sequence(2 * (X * X), 5).terms
    for n in range(1, 6):
        assert twice.term(n) == XSeries.monomial(2 ** n * math.factorial(n), n + 1)


def test_ring_ops_are_generator_homomorphisms():
    f = XSeries((0, 2, 1))
    g = XSeries((1, -1, 0, 1))
    F, G = autonomous_sequence(f, 6), autonomous_sequence(g, 6)
    assert aut_add(F, G).generator == f + g
    assert aut_mul(F, G).generator == f * g
    assert aut_scale(Fraction(-1, 2), F).generator == f * Fraction(-1, 2)


def test_order_mismatch_errors():
    with pytest.raises(ValueError):
        aut_add(autonomous_sequence(X, 3), autonomous_sequence(X, 4))
    with pytest.raises(ValueError):
        aut_mul(autonomous_sequence(X, 3), autonomous_sequence(X, 4))


def test_truncated_generator_raises_past_its_order():
    # the generator 1 + x has A_3 = (1 + x) * A_2' = 1 + x, not zero
    assert autonomous_sequence(XSeries((1, 1)), 4).term(3) == XSeries((1, 1))


# --- flows ------------------------------------------------------------------

def test_classical_flow_exponential():
    phi = classical_flow(X, 6)
    for n in range(1, 7):
        assert phi.coefficient(n) == X * Fraction(1, math.factorial(n))


def test_classical_flow_geometric():
    phi = classical_flow(X * X, 6)
    for n in range(1, 7):
        assert phi.coefficient(n) == XSeries.monomial(1, n + 1)


def test_classical_flow_of_zero():
    phi = classical_flow(XSeries.zero(), 5)
    assert all(c.is_zero for c in phi.coeffs)
    assert phi.evaluate(7, Fraction(2, 3)) == Fraction(2, 3)


def test_semiflow_drops_base():
    psi = semiflow(X, 5)
    assert not psi.has_base
    assert psi.evaluate(0, 5) == 0


def test_flow_factorize():
    single = flow_factorize([X * X], 6)
    assert single.coeffs == classical_flow(X * X, 6).coeffs
    logistic = flow_factorize([X, XSeries((1, -1))], 8)
    assert logistic.coeffs == classical_flow(XSeries((0, 1, -1)), 8).coeffs
    affine = flow_factorize([XSeries((1, 1)), XSeries((3, 2))], 8)
    assert affine.coeffs == classical_flow(XSeries((3, 5, 2)), 8).coeffs
    with pytest.raises(ValueError, match="empty factor list"):
        flow_factorize([], 5)


def _spy_numerators(monkeypatch):
    """Count the calls of the autonomous kernel, one per sequence built."""
    calls = []
    real = autonomous._numerators

    def spy(f, order):
        calls.append(f)
        return real(f, order)

    monkeypatch.setattr(autonomous, "_numerators", spy)
    return calls


def test_flow_factorize_builds_one_autonomous_sequence(monkeypatch):
    # the product is the pullback to the product of the generators, so
    # the flow of that product is the one sequence built
    calls = _spy_numerators(monkeypatch)
    factors = [X, XSeries((1, -1)), XSeries((Fraction(1, 2), 3))]
    flow = flow_factorize(factors, 8)
    assert calls == [X * XSeries((1, -1)) * XSeries((Fraction(1, 2), 3))]
    assert flow == classical_flow(calls[0], 8)


FACTOR_SCALARS = {
    "Z": lambda rng: rng.randint(-3, 3),
    "Q": lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    "Qi": lambda rng: GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)),
}


def _types(flow):
    """The type of every coefficient of a flow and of its generator."""
    return [[type(c) for c in p.coeffs] for p in flow.coeffs + (flow.generator,)]


@pytest.mark.parametrize("field", sorted(FACTOR_SCALARS))
@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_flow_factorize_is_the_classical_flow_of_the_product(field, count):
    scalar, rng = FACTOR_SCALARS[field], random.Random(count)
    for order in range(13):
        factors = [XSeries([scalar(rng) for _ in range(rng.randint(1, 3))]) for _ in range(count)]
        product = functools.reduce(lambda p, g: p * g, factors)
        if order == 0:
            with pytest.raises(ValueError, match="order must be >= 1"):
                flow_factorize(factors, order)
            continue
        flow, want = flow_factorize(factors, order), classical_flow(product, order)
        assert flow == want and _types(flow) == _types(want)


# --- flow properties --------------------------------------------------------

def test_pde_property():
    for f in (X, X * X, XSeries((0, 3, -4)), XSeries((0, -1, 0, 1))):
        assert pde_residual(f, 9).is_zero


def test_group_law_bivariate():
    for f in (X, X * X, XSeries((0, 1, -1))):
        residuals = group_law_residuals(f, 8)
        assert all(r.is_zero for r in residuals)


@pytest.mark.parametrize("order", [10, 12])
@pytest.mark.parametrize(
    "f",
    [X, XSeries((0, 1, -1)), XSeries((0, 0, -1, 1)), XSeries((I, 0, 1))],
    ids=["x", "x-x^2", "x^3-x^2", "i+x^2"],
)
def test_group_law_at_full_order(f, order):
    residuals = group_law_residuals(f, order)
    assert len(residuals) == (order + 1) * (order + 2) // 2
    assert all(r.is_zero for r in residuals)


def test_group_law_detects_a_wrong_autonomous_term(monkeypatch):
    # the right side comes from f alone, so a wrong A_N must show
    real = autonomous.autonomous_sequence

    def perturbed(f, order):
        # 1 more in the numerator P_N of the last row (d^N, P_N), which
        # stays over d^N as the kernel gives it
        kind, rows = real(f, order).numerators
        den, re, im = rows[-1]
        rows = rows[:-1] + ((den, [re[0] + 1, *re[1:]], im),)
        return AutonomousSequence._from_numerators((kind, rows), f)

    monkeypatch.setattr(autonomous, "autonomous_sequence", perturbed)
    residuals = group_law_residuals(XSeries((0, 1, -1)), 6)
    assert any(not r.is_zero for r in residuals)


def test_verify_runs_the_group_law_at_the_requested_order(monkeypatch):
    orders = []

    def spy(f, order):
        orders.append(order)
        return []

    monkeypatch.setattr(verifysuite, "group_law_residuals", spy)
    assert verifysuite._check_group_law(10, 16) == 0
    assert orders and set(orders) == {10}


def test_time_scaling():
    f = XSeries((0, 1, -1))
    a = Fraction(-3, 2)
    left = classical_flow(f * a, 8).to_tseries()
    right = classical_flow(f, 8).to_tseries().t_scale(a)
    assert left == right
