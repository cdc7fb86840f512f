import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deltadyn import autonomous, points, series, verifysuite
from deltadyn.autonomous import (
    autonomous_sequence,
    classical_flow,
)
from deltadyn.deltaflow import (
    _delta_ode_residuals,
    classical_delta_flow,
    connection_flow,
    connection_matrix,
    delta_flow,
    delta_pde_identity_residuals,
    delta_representation_residuals,
    flow_compose,
    flow_inverse,
    linear_semiflow_terms,
    matrix_product,
    monomial_power_identity,
    poly_flow_product,
    poly_flow_sum,
    rho_q,
    rhoq_add,
    rhoq_mul,
    rhoq_unit,
    verify_delta_ode,
)
from deltadyn.flows import Flow, taylor_compose
from deltadyn.scalars import GaussianRational
from deltadyn.series import XSeries
from deltadyn.solver import corpus_map
from deltadyn.umbral import (
    OPERATOR_NAMES,
    UmbralOperator,
    abel,
    backward,
    basic_sequence_from_delta,
    derivative,
    forward,
    operator,
    touchard,
)

from oracle_utils import delta_ode_by_series
from strategies import GAUSSIANS, RATIONALS, builtin_ops, delta_series, generators, polys

X = XSeries.x()
N = 10


def corpus_generators():
    return (
        X,                                   # g = 2x
        XSeries.one(),                       # g = x + 1
        XSeries((0, 1, -2)),                 # logistic mu = 2
        XSeries((0, Fraction(3, 2), Fraction(-5, 2))),  # logistic mu = 5/2
        XSeries((0, 3, -4)),                 # logistic mu = 4
        XSeries((Fraction(1, 2), -1, 1)),    # quadratic map c = 1/2
        XSeries((0, -1, 0, 1)),              # cubic
    )


# --- construction -----------------------------------------------------------

def test_delta_flow_over_derivative_is_classical():
    f = XSeries((0, 1, -1))
    df = delta_flow(f, derivative(N), N)
    assert df.to_tseries() == classical_flow(f, N).to_tseries()


def test_delta_flow_is_a_flow_carrying_its_generator():
    f = XSeries((0, 1, -1))
    df = delta_flow(f, forward(N), N)
    assert isinstance(df, Flow)
    assert df.generator == f
    assert df.minus_base().generator == f
    mono = df.to_monomial()
    assert mono.basis is None and mono.generator == f
    assert mono.to_basic(df.basis).generator == f


def test_flows_differing_only_in_generator_are_unequal():
    f = XSeries((0, 1, -1))
    df = delta_flow(f, forward(N), N)
    other = Flow(df.coeffs, df.basis, df.has_base, XSeries((0, 1)))
    bare = Flow(df.coeffs, df.basis, df.has_base)
    assert df == Flow(df.coeffs, df.basis, df.has_base, f)
    assert df != other
    assert df != bare


def test_delta_flow_of_zero():
    df = delta_flow(XSeries.zero(), forward(N), N)
    assert all(c.is_zero for c in df.coeffs)
    assert df.evaluate(5, Fraction(1, 7)) == Fraction(1, 7)


def test_forward_flow_of_linear_doubles():
    # f = x means g = 2x; at integer times the flow is x 2^t
    df = delta_flow(X, forward(12), 12)
    y = Fraction(1, 3)
    for t in range(9):
        assert df.evaluate(t, Fraction(1, 3)) == y
        y = 2 * y


def test_evaluate_at_zero():
    for Q in builtin_ops():
        df = delta_flow(XSeries((0, 3, -4)), Q, 8)
        assert df.evaluate(0, Fraction(2, 7)) == Fraction(2, 7)


# --- the delta flow equation -------------------------------------------------

def test_verify_delta_ode_zero_everywhere():
    for f in corpus_generators():
        assert all(r.is_zero for r in delta_pde_identity_residuals(f, N))
        for Q in builtin_ops():
            assert verify_delta_ode(f, Q, N).is_zero


def test_the_delta_ode_check_certifies_the_basic_form_once_per_generator(monkeypatch):
    # A_(m+1) = f A_m' is the same identity over every operator
    calls = []

    def counting(*args):
        calls.append(args)
        return delta_pde_identity_residuals(*args)

    monkeypatch.setattr(verifysuite, "delta_pde_identity_residuals", counting)
    rows = {row["name"]: row for row in verifysuite.run_checks(8, 12, "deltaflow")}
    assert rows["delta-ode"]["residual"] == "0"
    assert [args[0] for args in calls] == [f for _, f in verifysuite._corpus_generators()]


def test_the_delta_ode_check_shares_the_flow_and_f_of_phi_over_the_operators(monkeypatch):
    # per corpus generator, one certification of the basic form and one
    # of the transported equation for all six operators at once, which
    # computes F(u) once per point, not once per point and operator
    certified, composites = [], []
    certify, composite = points._certify, series._hurwitz_composite

    def spying_certify(at, *args):
        seen = []
        certified.append(seen)

        def spy(*values):
            seen.append(values)
            return at(*values)

        return certify(spy, *args)

    def spying_composite(*args):
        composites.append(args)
        return composite(*args)

    monkeypatch.setattr(points, "_certify", spying_certify)
    monkeypatch.setattr(series, "_hurwitz_composite", spying_composite)
    assert verifysuite._check_delta_ode(8, 12) == 0
    # the basic form reads a further row set, the A_m'; the batch does not
    assert [len(seen[0]) for seen in certified] == [3, 2] * len(verifysuite._corpus_generators())
    # the degree pass and every point of each batch, one F(u) apiece
    assert len(composites) == sum(len(seen) for seen in certified[1::2])


def residual_entries(ts):
    """(value, type) of every coefficient of a residual TSeries."""
    return [[(c, type(c)) for c in x.coeffs] for x in ts.coeffs]


@pytest.mark.parametrize(
    "f, nonzero_kinds",
    [
        (XSeries((0, 3, -4)), {Fraction, GaussianRational}),
        (corpus_map("quadratic-1/2")["g"] - X, {GaussianRational}),
        (XSeries((GaussianRational(0, 1), Fraction(1, 2), -1)), {GaussianRational}),
    ],
    ids=["logistic-4", "quadratic-1/2 over Q(i)", "i + x/2 - x^2"],
)
def test_one_batch_gives_what_one_call_per_operator_gives(f, nonzero_kinds):
    # the points of the batch cover the largest degree bound of all its
    # operators, which interpolates every residual to the same
    # polynomial, and each keeps the coefficient kind of its own call:
    # a real operator over a real basis stays real beside Abel's at a
    # Gaussian alpha
    order = 6
    ops = builtin_ops(order) + (abel(GaussianRational(Fraction(2, 3), Fraction(-5, 7)), order),)
    bases = [basic_sequence_from_delta(Q, order) for Q in ops]
    pairs = (
        [(Q, None) for Q in ops]
        + list(zip(ops, bases))
        + [(Q, bases[(i + 1) % len(ops)]) for i, Q in enumerate(ops)]
    )
    batch = _delta_ode_residuals(f, pairs, order)
    assert len(batch) == len(pairs)
    kinds = set()
    for (Q, basis), got in zip(pairs, batch):
        want = verify_delta_ode(f, Q, order, basis)
        assert residual_entries(got) == residual_entries(want)
        kinds |= {kind for x in residual_entries(want) for _, kind in x}
    # the mismatched bases give nonzero residuals, interpolated back
    assert kinds == nonzero_kinds


@pytest.mark.parametrize(
    "f",
    [XSeries((0, 3, -4)), corpus_map("quadratic-1/2")["g"] - X],
    ids=["logistic-4", "quadratic-1/2 over Q(i)"],
)
def test_verify_delta_ode_matches_the_recomputing_oracle(f):
    order = 8
    ops = builtin_ops(order)
    bases = [basic_sequence_from_delta(Q, order) for Q in ops]
    nonzero = 0
    for i, Q in enumerate(ops):
        # the matching basis gives 0; the next operator's basis does not
        for basis in (bases[i], bases[(i + 1) % len(ops)]):
            got = verify_delta_ode(f, Q, order, basis)
            assert got == delta_ode_by_series(f, Q, order, basis)
            nonzero += not got.is_zero
    assert nonzero > 0


@st.composite
def generator_and_operator(draw):
    """f of degree <= 3, a random delta operator Q and an order <= 6
    that Q covers, all over Q or all over Q(i)."""
    scalars = draw(st.sampled_from((RATIONALS, GAUSSIANS)))
    Q, _ = draw(delta_series(scalars))
    f = draw(polys(scalars, max_size=4))
    return f, Q, draw(st.integers(1, min(6, Q.order)))


@settings(max_examples=40, deadline=None)
@given(generator_and_operator())
def test_delta_flow_equation_on_random_generators_and_operators(case):
    # Q Phi_Q = L[f(Phi)], which composes f with the classical flow,
    # and Q Phi_Q = f(x) dPhi_Q/dx in basic coordinates
    f, Q, order = case
    assert verify_delta_ode(f, Q, order).is_zero
    assert all(r.is_zero for r in delta_pde_identity_residuals(f, order))


def test_verify_delta_ode_gaussian_field():
    c = GaussianRational(Fraction(1, 2), 0)
    f = XSeries((c, -1, 1))
    assert verify_delta_ode(f, forward(N), N).is_zero


def test_umbral_image_is_linear_not_multiplicative():
    # For nonlinear f the right side of the flow equation lives in the
    # transported ring: L[f(Phi)] differs from the literal composition
    # f(L[Phi]), and Q Phi_Q equals the former, never the latter.
    from deltadyn.flows import taylor_compose
    from deltadyn.umbral import UmbralOperator

    f = X * X
    Q = forward(12)
    df = delta_flow(f, Q, 8)
    mono = df.to_tseries()
    applied = Q.apply_tseries(mono)

    transported = UmbralOperator(df.basis).apply_tseries(
        taylor_compose(f, classical_flow(f, 8)).truncate(7)
    )
    literal = taylor_compose(f, mono).truncate(7)

    assert applied == transported
    assert transported != literal
    # the discrepancy starts in the t^1 coefficient at x^4
    diff = literal.coefficient(1) - transported.coefficient(1)
    assert diff.coefficient(4) != 0


# --- semiflow ring -----------------------------------------------------------

def test_rhoq_units():
    Q = forward(12)
    psi = rho_q(XSeries((0, 1, -1)), Q, 8)
    unit = rhoq_unit(Q, 8)
    assert unit.coeffs[0] == XSeries.one()
    assert all(c.is_zero for c in unit.coeffs[1:])
    prod = rhoq_mul(psi, unit)
    assert prod.coeffs == psi.coeffs
    zero = rho_q(XSeries.zero(), Q, 8)
    assert rhoq_add(psi, zero).coeffs == psi.coeffs


def test_rhoq_add_matches_generator_sum():
    Q = forward(12)
    f, g = XSeries((0, 1, -1)), XSeries((0, 0, 2))
    s = rhoq_add(rho_q(f, Q, 8), rho_q(g, Q, 8))
    assert s.generator == f + g
    assert s.coeffs == rho_q(f + g, Q, 8).coeffs


def test_rhoq_mul_matches_generator_product():
    Q = forward(12)
    s = rhoq_mul(rho_q(X, Q, 8), rho_q(X, Q, 8))
    assert s.coeffs == rho_q(X * X, Q, 8).coeffs
    assert s.generator == X * X


def test_rhoq_commutativity():
    Q = touchard(12)
    f, g = XSeries((0, 2, 1)), XSeries((1, -1))
    a = rhoq_mul(rho_q(f, Q, 8), rho_q(g, Q, 8))
    b = rhoq_mul(rho_q(g, Q, 8), rho_q(f, Q, 8))
    assert a.coeffs == b.coeffs


# The five built-in operators and Abel's at a Gaussian alpha, of order 6.
RING_OPERATORS = st.one_of(
    st.sampled_from(OPERATOR_NAMES).map(lambda name: operator(name, 6)),
    GAUSSIANS.filter(lambda c: c != 0).map(lambda alpha: abel(alpha, 6)),
)


@settings(max_examples=40, deadline=None)
@given(generators(), generators(), RING_OPERATORS, st.integers(1, 6))
def test_semiflow_ring_is_the_ring_of_generators(f, g, Q, order):
    # rho_Q carries f + g and f * g to the ring sum and product of the
    # semiflows, and the generator 1 to the unit q_1(t)
    pf, pg = rho_q(f, Q, order), rho_q(g, Q, order)
    total, product = rhoq_add(pf, pg), rhoq_mul(pf, pg)
    assert total.generator == f + g
    assert total.coeffs == rho_q(f + g, Q, order).coeffs
    assert product.generator == f * g
    assert product.coeffs == rho_q(f * g, Q, order).coeffs
    unit = rhoq_unit(Q, order)
    assert unit.coeffs == (XSeries.one(),) + (XSeries.zero(),) * (order - 1)
    assert rhoq_mul(pf, unit).coeffs == pf.coeffs
    assert rhoq_mul(unit, pf).coeffs == pf.coeffs


def test_mixed_bases_error():
    a = rho_q(X, forward(12), 8)
    b = rho_q(X, touchard(12), 8)
    with pytest.raises(ValueError):
        rhoq_add(a, b)
    with pytest.raises(ValueError):
        rhoq_mul(a, b)


# --- closed forms -------------------------------------------------------------

def test_linear_semiflow_unit_slope():
    df = linear_semiflow_terms(1, 0, forward(12), 8)
    for n in range(1, 9):
        assert df.coefficient(n) == X * Fraction(1, math.factorial(n))


def test_linear_semiflow_slope_two():
    # a^(n-1) (a x + b) = 2^(n-1) * 2x = 2^n x; oracle: the autonomous
    # recursion of the generator 2x gives the same sequence
    df = linear_semiflow_terms(2, 0, forward(12), 8)
    for n in range(1, 9):
        assert df.coefficient(n) == X * Fraction(2 ** n, math.factorial(n))
    assert df.coeffs == rho_q(2 * X, forward(12), 8).coeffs


def test_linear_semiflow_affine():
    df = linear_semiflow_terms(1, 1, forward(12), 8)
    for n in range(1, 9):
        assert df.coefficient(n) == XSeries((1, 1)) * Fraction(1, math.factorial(n))


def test_linear_semiflow_degenerate():
    df = linear_semiflow_terms(0, Fraction(5), forward(12), 8)
    assert df.coefficient(1) == XSeries((Fraction(5),))
    assert all(c.is_zero for c in df.coeffs[1:])
    assert df.generator == XSeries((Fraction(5),))


def test_monomial_power_identity_square_classical():
    # k = 2 over the derivative: both sides are the geometric semiflow
    residual = monomial_power_identity(1, 2, derivative(N), N)
    assert residual.is_zero
    psi = rho_q(X * X, derivative(N), N).to_tseries()
    for n in range(1, N + 1):
        assert psi.coefficient(n) == XSeries.monomial(1, n + 1)


def test_monomial_power_identity_cube_brute_force():
    # brute force: A_n(x^3) by the recursion, divided by n!
    aut = autonomous_sequence(XSeries((0, 0, 0, 1)), 8)
    psi = rho_q(XSeries((0, 0, 0, 1)), derivative(8), 8).to_tseries()
    for n in range(1, 9):
        assert psi.coefficient(n) == aut.term(n) * Fraction(1, math.factorial(n))
    assert monomial_power_identity(1, 3, derivative(8), 8).is_zero


def test_monomial_power_identity_builtins():
    for Q in (forward(12), touchard(12), abel(1, 12)):
        for k in (2, 3):
            for a in (1, Fraction(1, 2), -2):
                assert monomial_power_identity(a, k, Q, 8).is_zero


def test_monomial_power_identity_requires_k2():
    for order in (6, 0):
        with pytest.raises(ValueError, match="power identity needs k >= 2"):
            monomial_power_identity(1, 1, forward(12), order)


def test_monomial_power_identity_trivial_order():
    residual = monomial_power_identity(1, 5, forward(12), 0)
    assert residual.is_zero


def test_poly_flow_sum():
    Q = forward(12)
    single = poly_flow_sum(X * X, Q, 8)
    assert single.coeffs == rho_q(X * X, Q, 8).coeffs
    const = poly_flow_sum(XSeries((Fraction(3),)), Q, 8)
    assert const.coefficient(1) == XSeries((Fraction(3),))
    assert all(c.is_zero for c in const.coeffs[1:])
    both = poly_flow_sum(X + X * X, Q, 8)
    assert both.coeffs == rho_q(X + X * X, Q, 8).coeffs
    cubic = poly_flow_sum(XSeries((2, -1, 0, 5)), Q, 8)
    assert cubic.coeffs == rho_q(XSeries((2, -1, 0, 5)), Q, 8).coeffs
    # a ring power's generator is a product, with zeros of its field
    logistic = poly_flow_sum(XSeries((0, Fraction(3), Fraction(-4))), Q, 8)
    assert [type(c) for c in logistic.generator.coeffs] == [Fraction] * 3


def test_poly_flow_product_single_factor():
    Q = forward(12)
    one = poly_flow_product([(2, 3)], Q, 8)
    direct = linear_semiflow_terms(2, 3, Q, 8)
    assert one.coeffs == direct.coeffs


def test_poly_flow_product_logistic():
    Q = forward(12)
    factored = poly_flow_product([(1, 0), (-1, 1)], Q, 8)
    assert factored.coeffs == rho_q(XSeries((0, 1, -1)), Q, 8).coeffs


def test_poly_flow_product_gaussian_quadratic():
    alpha = GaussianRational(Fraction(1, 2), Fraction(1, 2))
    Q = forward(12)
    factored = poly_flow_product(
        [(1, -alpha), (1, -alpha.conjugate())], Q, 8
    )
    f = XSeries((Fraction(1, 2), -1, 1))
    assert factored.coeffs == rho_q(f, Q, 8).coeffs


def test_poly_flow_product_rejects_constant_factor():
    with pytest.raises(ValueError, match="factors must have a nonzero linear coefficient"):
        poly_flow_product([(0, 1)], forward(12), 6)
    with pytest.raises(ValueError, match="factors must have a nonzero linear coefficient"):
        poly_flow_product([(1, 0), (0, 1)], forward(12), 6)
    with pytest.raises(ValueError, match="empty factor list"):
        poly_flow_product([], forward(12), 6)


def _spy_numerators(monkeypatch):
    """Count the calls of the autonomous kernel, one per sequence built."""
    calls = []
    real = autonomous._numerators

    def spy(f, order):
        calls.append(f)
        return real(f, order)

    monkeypatch.setattr(autonomous, "_numerators", spy)
    return calls


@pytest.mark.parametrize(
    "factors",
    [
        [(1, Fraction(1, 2)), (Fraction(-2, 3), 1), (3, Fraction(1, 5))],
        [(1, GaussianRational(Fraction(1, 2), -1)), (GaussianRational(0, 2), 1), (-1, 3)],
    ],
    ids=["Q", "Qi"],
)
def test_poly_flow_product_builds_one_autonomous_sequence(monkeypatch, factors):
    calls = _spy_numerators(monkeypatch)
    Q = forward(12)
    psi = poly_flow_product(factors, Q, 8)
    product = functools.reduce(lambda p, g: p * g, [XSeries((b, a)) for a, b in factors])
    assert calls == [product]
    assert psi == rho_q(product, Q, 8)


def test_monomial_power_identity_builds_one_autonomous_sequence(monkeypatch):
    calls = _spy_numerators(monkeypatch)
    assert monomial_power_identity(Fraction(1, 2), 3, forward(12), 8).is_zero
    assert calls == [XSeries.monomial(Fraction(1, 2), 3)]


AFFINE_SCALARS = {
    "Z": lambda rng: rng.randint(-3, 3),
    "Q": lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
    "Qi": lambda rng: GaussianRational(Fraction(rng.randint(-3, 3), rng.randint(1, 4)), rng.randint(-2, 2)),
}


def _types(flow):
    """The type of every coefficient of a flow and of its generator."""
    return [[type(c) for c in p.coeffs] for p in flow.coeffs + (flow.generator,)]


@pytest.mark.parametrize("field", sorted(AFFINE_SCALARS))
@pytest.mark.parametrize("count", [1, 2, 3, 4])
def test_poly_flow_product_is_rho_q_of_the_product(field, count):
    # one factor keeps the closed form linear_semiflow_terms; more give
    # rho_q of the product of the generators, equal and of equal types
    scalar, rng = AFFINE_SCALARS[field], random.Random(count)
    for order in range(13):
        Q = rng.choice([forward(12), touchard(12), abel(Fraction(2, 3), 12)])
        factors = []
        while len(factors) < count:
            a, b = scalar(rng), scalar(rng)
            if a != 0:
                factors.append((a, b))
        if count == 1:
            psi, want = poly_flow_product(factors, Q, order), linear_semiflow_terms(*factors[0], Q, order)
        elif order == 0:
            with pytest.raises(ValueError, match="order must be >= 1"):
                poly_flow_product(factors, Q, order)
            continue
        else:
            product = functools.reduce(lambda p, g: p * g, [XSeries((b, a)) for a, b in factors])
            psi, want = poly_flow_product(factors, Q, order), rho_q(product, Q, order)
        assert psi == want and _types(psi) == _types(want)


# --- composition group ---------------------------------------------------------

def test_flow_compose_identity():
    f = XSeries((0, 1, -1))
    fwd = delta_flow(f, forward(12), 8)
    ident = classical_delta_flow(f, 8)
    composed = flow_compose(fwd, ident)
    assert composed.basis.polys == fwd.basis.polys
    assert composed.coeffs == fwd.coeffs


def test_flow_compose_inverse_gives_classical():
    f = XSeries((0, 1, -1))
    for Q in (forward(12), backward(12), abel(1, 12), touchard(12)):
        phi = delta_flow(f, Q, 8)
        round_trip = flow_compose(phi, flow_inverse(phi))
        classical = classical_delta_flow(f, 8)
        assert round_trip.to_tseries() == classical.to_tseries()


def test_flow_compose_associative():
    f = XSeries((0, 1, -1))
    a = delta_flow(f, forward(12), 8)
    b = delta_flow(f, touchard(12), 8)
    c = delta_flow(f, abel(1, 12), 8)
    left = flow_compose(flow_compose(a, b), c)
    right = flow_compose(a, flow_compose(b, c))
    assert left.basis.polys == right.basis.polys
    assert left.to_tseries() == right.to_tseries()


def test_flow_compose_generator_mismatch():
    a = delta_flow(X, forward(12), 8)
    b = delta_flow(X * X, touchard(12), 8)
    with pytest.raises(ValueError):
        flow_compose(a, b)


# --- connection matrices --------------------------------------------------------

def test_connection_matrix_of_monomials_is_identity():
    from deltadyn.umbral import monomial_basis

    B = connection_matrix(monomial_basis(6))
    for i in range(7):
        for j in range(7):
            assert B[i][j] == (1 if i == j else 0)


def test_connection_flow_matches_conversion():
    for Q in builtin_ops():
        for f in (X, XSeries((0, 3, -4))):
            left = connection_flow(f, Q, 8)
            right = delta_flow(f, Q, 8).to_monomial()
            assert left.coeffs == right.coeffs


def test_connection_flow_derivative_reproduces_classical():
    left = connection_flow(X * X, derivative(8), 8)
    assert left.coeffs == classical_flow(X * X, 8).coeffs


def test_anti_isomorphism():
    f = XSeries((0, 1, -1))
    pairs = (
        (forward(12), touchard(12)),
        (backward(12), abel(1, 12)),
    )
    for QA, QB in pairs:
        A = basic_sequence_from_delta(QA, 8)
        B = basic_sequence_from_delta(QB, 8)
        composed = flow_compose(delta_flow(f, QA, 8, A), delta_flow(f, QB, 8, B))
        left = connection_matrix(composed.basis)
        right = matrix_product(connection_matrix(B), connection_matrix(A))
        assert left == right


# --- misc -----------------------------------------------------------------------

def test_basis_depth_guard():
    basis = basic_sequence_from_delta(forward(12), 6)
    with pytest.raises(ValueError):
        delta_flow(X, forward(12), 8, basis)


def test_delta_representation():
    for Q in builtin_ops():
        df = delta_flow(XSeries((0, 1, -1)), Q, 8)
        assert all(r.is_zero for r in delta_representation_residuals(df))


def test_forward_operator_application_matches_literal_shift():
    # independent oracle: applying the forward operator to the monomial
    # form must equal the literal substitution Phi(t+1) - Phi(t)
    from math import comb

    f = XSeries((0, 3, -4))
    mono = delta_flow(f, forward(12), 8).to_tseries()
    applied = forward(12).apply_tseries(mono)
    shifted = [XSeries.zero() for _ in range(8)]
    for k in range(9):
        c = mono.coefficient(k)
        if c.is_zero:
            continue
        # (t+1)^k - t^k contributes binomials to lower powers
        for j in range(k):
            shifted[j] = shifted[j] + c * comb(k, j)
    from deltadyn.flows import TSeries

    assert applied == TSeries(shifted, 7)


def test_gaussian_abel_parameter():
    alpha = GaussianRational(0, 1)  # purely imaginary shift
    Q = abel(alpha, 8)
    basis = basic_sequence_from_delta(Q, 6)
    # q_2 = t(t - 2 alpha) stays the closed form with complex alpha
    assert basis.poly(2).coefficient(1) == -2 * alpha
    assert basis.poly(2).coefficient(2) == 1
    for n in range(1, 7):
        assert Q.apply_tpoly(basis.poly(n)) == n * basis.poly(n - 1)
    f = XSeries((0, 1, -1))
    assert verify_delta_ode(f, Q, 6).is_zero
