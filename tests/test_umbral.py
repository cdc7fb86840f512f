import math
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deltadyn import series
from deltadyn.cli import cli_main
from deltadyn.deltaflow import connection_matrix, delta_flow, matrix_product, verify_delta_ode
from deltadyn.flows import TSeries
from deltadyn.scalars import GaussianRational, parse_scalar
from deltadyn.series import XSeries, compositional_inverse, seq_compose, seq_mul
from deltadyn.umbral import (
    OPERATOR_NAMES,
    BasicSequence,
    DeltaOp,
    UmbralOperator,
    abel,
    apply_delta_series,
    backward,
    basic_sequence_by_recurrence,
    basic_sequence_from_delta,
    derivative,
    expansion_to_delta_series,
    first_expansion,
    forward,
    monomial_basis,
    operator,
    shift_operator,
    signed_stirling1,
    stirling2,
    touchard,
    umbral_compose,
    umbral_inverse,
)
from deltadyn.umbral import _first_expansion
from deltadyn.verifysuite import _CHECKS, _basic_axioms, _binomial_type

from oracle_utils import (
    abel_poly,
    basic_axioms_by_fractions,
    binomial_type_by_fractions,
    bivariate_add,
    bivariate_of_shift,
    bivariate_product,
    compositional_inverse_by_field_loop,
    expand_by_field_loop,
    falling_factorial,
    first_expansion_by_fractions,
    rising_factorial,
    stirling2_by_enumeration,
    unsigned_stirling1_by_enumeration,
)
from strategies import GAUSSIANS, RATIONALS, bases, delta_series, perturbed

DEPTH = 10


def all_builtins(order=DEPTH):
    return (
        derivative(order),
        forward(order),
        backward(order),
        abel(1, order),
        abel(-1, order),
        abel(Fraction(2, 3), order),
        touchard(order),
    )


# --- operator coefficient freezes ------------------------------------------

def test_forward_coefficients():
    Q = forward(6)
    assert Q.coeffs == (0, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24),
                        Fraction(1, 120), Fraction(1, 720))


def test_backward_coefficients():
    Q = backward(4)
    assert Q.coeffs == (0, 1, Fraction(-1, 2), Fraction(1, 6), Fraction(-1, 24))


def test_abel_coefficients():
    Q = abel(Fraction(1, 2), 4)
    expected = (0, 1, Fraction(1, 2), Fraction(1, 8), Fraction(1, 48))
    assert Q.coeffs == expected


def test_touchard_coefficients():
    Q = touchard(4)
    assert Q.coeffs == (0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4))


@pytest.mark.parametrize("alpha", [1, Fraction(-3, 2)])
def test_operator_registry_matches_constructors(alpha):
    direct = {
        "derivative": derivative(12),
        "forward": forward(12),
        "backward": backward(12),
        "abel": abel(alpha, 12),
        "touchard": touchard(12),
    }
    assert set(OPERATOR_NAMES) == set(direct)
    for name in OPERATOR_NAMES:
        assert operator(name, 12, alpha).coeffs == direct[name].coeffs
    with pytest.raises(ValueError):
        operator("shift", 12)


def test_delta_op_invariants():
    with pytest.raises(ValueError):
        DeltaOp((1, 1))
    with pytest.raises(ValueError):
        DeltaOp((0, 0, 1))
    with pytest.raises(ValueError):
        DeltaOp((0,))


# --- basic sequences ---------------------------------------------------------

def test_derivative_basis_is_monomial():
    basis = basic_sequence_from_delta(derivative(DEPTH), DEPTH)
    for n in range(DEPTH + 1):
        assert basis.poly(n) == XSeries.monomial(1, n)


def test_forward_basis_is_falling_factorials():
    basis = basic_sequence_from_delta(forward(DEPTH), DEPTH)
    assert basis.poly(2) == XSeries((0, -1, 1))  # t^2 - t
    for n in range(DEPTH + 1):
        assert list(basis.poly(n).coeffs) == falling_factorial(n)


def test_backward_basis_is_rising_factorials():
    basis = basic_sequence_from_delta(backward(DEPTH), DEPTH)
    assert basis.poly(2) == XSeries((0, 1, 1))  # t^2 + t
    for n in range(DEPTH + 1):
        assert list(basis.poly(n).coeffs) == rising_factorial(n)


@pytest.mark.parametrize("alpha", [1, -1, Fraction(2, 3)])
def test_abel_basis_closed_form(alpha):
    basis = basic_sequence_from_delta(abel(alpha, DEPTH), DEPTH)
    assert basis.poly(2) == XSeries((0, -2 * alpha, 1))  # t(t - 2 alpha)
    for n in range(DEPTH + 1):
        assert list(basis.poly(n).coeffs) == abel_poly(n, alpha)


def test_touchard_basis_is_stirling2():
    basis = basic_sequence_from_delta(touchard(DEPTH), DEPTH)
    assert basis.poly(3) == XSeries((0, 1, 3, 1))
    for n in range(DEPTH + 1):
        for k in range(n + 1):
            assert basis.beta(k, n) == stirling2(n, k)


def test_basic_set_axioms():
    for Q in all_builtins():
        basis = basic_sequence_from_delta(Q, DEPTH)
        assert basis.poly(0) == XSeries.one()
        for n in range(1, DEPTH + 1):
            qn = basis.poly(n)
            assert qn.evaluate(0) == 0
            assert qn.degree == n
            assert Q.apply_tpoly(qn) == n * basis.poly(n - 1)


def test_recurrence_oracle_agrees():
    for Q in all_builtins():
        a = basic_sequence_from_delta(Q, DEPTH)
        b = basic_sequence_by_recurrence(Q, DEPTH)
        assert a.polys == b.polys


def generating_identity_matrix(Q, depth):
    """beta(k, n) = (n!/k!) [u^n] pinv(u)^k, read off exp(t pinv(u)),
    pinv by Lagrange inversion in field arithmetic, which shares no code
    with the basis: compositional_inverse reads pinv off the basis."""
    pinv = compositional_inverse_by_field_loop(Q.coeffs, depth)
    powers = []
    power = (1,) + (0,) * depth
    for _ in range(depth + 1):
        powers.append(power)
        power = seq_mul(power, pinv, depth)
    return [
        [
            Fraction(math.factorial(n), math.factorial(k)) * powers[k][n]
            if k <= n else 0
            for n in range(depth + 1)
        ]
        for k in range(depth + 1)
    ]


@pytest.mark.parametrize(
    "Q",
    [derivative(24), forward(24), backward(24), abel(1, 24),
     abel(Fraction(-3, 2), 24), touchard(24)],
    ids=repr,
)
def test_basis_matches_generating_identity(Q):
    basis = basic_sequence_from_delta(Q, 24)
    assert connection_matrix(basis) == generating_identity_matrix(Q, 24)
    assert all(type(c) is Fraction for p in basis.polys for c in p.coeffs)


def test_gaussian_abel_basis_matches_oracle():
    alpha = parse_scalar("1/2+1/3*i", "Qi")
    Q = abel(alpha, 12)
    basis = basic_sequence_from_delta(Q, 12)
    assert basis.polys == basic_sequence_by_recurrence(Q, 12).polys
    assert isinstance(basis.beta(1, 2), GaussianRational)
    assert list(basis.poly(5).coeffs) == abel_poly(5, alpha)


@settings(max_examples=20, deadline=None)
@given(delta_series(GAUSSIANS))
def test_gaussian_basis_has_one_scalar_type(case):
    # q_0 and every constant term too are Gaussian, not Fraction
    Q, depth = case
    basis = basic_sequence_from_delta(Q, depth)
    assert all(type(c) is GaussianRational for p in basis.polys for c in p.coeffs)
    assert basis == basic_sequence_by_recurrence(Q, depth)


DELTA_SERIES_Q_QI = st.one_of(delta_series(), delta_series(GAUSSIANS))


@settings(max_examples=60, deadline=None)
@given(delta_series())
def test_random_delta_series_match_oracle(case):
    Q, depth = case
    a = basic_sequence_from_delta(Q, depth)
    b = basic_sequence_by_recurrence(Q, depth)
    assert a.polys == b.polys


def polys_in_t(draw, count, degree):
    return [
        XSeries(draw(st.lists(RATIONALS, max_size=degree + 1)))
        for _ in range(count)
    ]


def repeated_derivative_apply(coeffs, p):
    """sum_k coeffs[k] d^k p, differentiating p once per term."""
    out, dk = XSeries.zero(), p
    for c in coeffs:
        out = out + dk * c
        dk = dk.derivative()
    return out


def repeated_dt_apply(coeffs, w):
    """sum_k coeffs[k] (d/dt)^k w through t^(w.order - 1), one t-derivative
    of w per term."""
    out, dk = [XSeries.zero()] * max(w.order, 1), w
    for c in coeffs[: w.order + 1]:
        for m in range(min(dk.order + 1, len(out))):
            out[m] = out[m] + dk.coefficient(m) * c
        dk = dk.dt()
    return TSeries(out, max(w.order - 1, 0))


def per_power_umbral(basis, w):
    """Map t^m to q_m(t) by adding one TSeries per power of t."""
    out = TSeries.zero(w.order)
    for m in range(w.order + 1):
        c = w.coefficient(m)
        if not c.is_zero:
            out = out + TSeries([c * b for b in basis.poly(m).coeffs], w.order)
    return out


@settings(max_examples=30, deadline=None)
@given(DELTA_SERIES_Q_QI, st.data())
def test_shift_invariant_apply_matches_repeated_derivatives(case, data):
    Q, depth = case
    (p,) = polys_in_t(data.draw, 1, depth + 2)
    assert apply_delta_series(Q.coeffs, p) == repeated_derivative_apply(Q.coeffs, p)
    order = data.draw(st.integers(0, depth))
    w = TSeries(polys_in_t(data.draw, order + 1, 3), order)
    assert Q.apply_tseries(w) == repeated_dt_apply(Q.coeffs, w)


@settings(max_examples=30, deadline=None)
@given(DELTA_SERIES_Q_QI, st.data())
def test_umbral_tseries_matches_per_power_sum(case, data):
    Q, depth = case
    basis = basic_sequence_from_delta(Q, depth)
    order = data.draw(st.integers(0, depth))
    w = TSeries(polys_in_t(data.draw, order + 1, 3), order)
    assert UmbralOperator(basis).apply_tseries(w) == per_power_umbral(basis, w)


def test_negative_depth_rejected():
    for build in (basic_sequence_from_delta, basic_sequence_by_recurrence):
        with pytest.raises(ValueError, match="depth must be >= 0"):
            build(forward(4), -1)


def test_basis_cache_is_bounded():
    assert basic_sequence_from_delta.cache_info().maxsize == 64


def test_equal_operator_is_a_basis_cache_hit():
    first = basic_sequence_from_delta(abel(Fraction(5, 7), 11), 9)
    before = basic_sequence_from_delta.cache_info()
    again = basic_sequence_from_delta(abel(Fraction(5, 7), 11), 9)  # equal, a new object
    after = basic_sequence_from_delta.cache_info()
    assert again is first
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)


@pytest.mark.parametrize(
    "Q", [touchard(12), abel(GaussianRational(Fraction(2, 3), Fraction(-5, 7)), 12)], ids=["touchard", "abel-Qi"]
)
def test_the_inverse_series_is_read_off_the_basis(monkeypatch, Q):
    # compositional_inverse and umbral_inverse read pinv off row 1 of
    # beta and multiply no lanes; the inverse of an operator whose basis
    # is cached at its depth builds no basis, and umbral_inverse builds
    # only the basis of the inverse
    calls = []
    real = series._mul_lanes

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(series, "_mul_lanes", spy)
    basic_sequence_from_delta.cache_clear()
    A = basic_sequence_from_delta(Q, 8)
    pinv = compositional_inverse(Q.coeffs, 8)
    assert basic_sequence_from_delta.cache_info().misses == 1
    inv = umbral_inverse(A)
    assert basic_sequence_from_delta.cache_info().misses == 2
    assert calls == []
    assert pinv == compositional_inverse_by_field_loop(Q.coeffs, 8)
    assert inv.operator.coeffs == pinv
    # the spy sees the products of the composition that checks pinv
    assert seq_compose(Q.coeffs, pinv, 8) == (0, 1) + (0,) * 7
    assert calls


def test_the_operator_memo_is_bounded_and_typed():
    assert operator.cache_parameters() == {"maxsize": 64, "typed": True}
    assert forward(12) is operator("forward", 12) is forward(12)


def test_the_operator_memo_tells_the_fields_of_alpha_apart():
    # GaussianRational(2/3) == Fraction(2/3) and the two hash equal, but
    # they give abel series over Q(i) and over Q
    gaussian = operator("abel", 6, GaussianRational(Fraction(2, 3)))
    rational = operator("abel", 6, Fraction(2, 3))
    assert gaussian is not rational
    assert (gaussian.kinds, rational.kinds) == ((126, 126), (126, 0))
    assert operator("abel", 6, Fraction(2, 3)) is rational
    assert operator("abel", 6, GaussianRational(Fraction(2, 3))) is gaussian
    polys = basic_sequence_from_delta(gaussian, 6).polys
    assert {type(c) for q in polys[1:] for c in q.coeffs} == {GaussianRational}


@pytest.mark.parametrize(
    "argv",
    [
        ["flow", "--f=1/3,1", "--op", "forward", "--order", "12"],
        ["flow", "--f=0,1,-i", "--op", "abel", "--alpha=-3/2", "--order", "8", "--field", "Qi"],
    ],
    ids=["forward-Q", "abel-Qi"],
)
def test_a_repeated_flow_request_builds_and_hashes_no_operator(argv, capsys, monkeypatch):
    # the second request gets the memoised operator, whose hash was
    # computed when it was built, and finds its basis by identity
    calls = []
    init, key = DeltaOp.__init__, DeltaOp._key

    def spy_init(self, *args, **kwargs):
        calls.append("__init__")
        init(self, *args, **kwargs)

    def spy_key(self):
        calls.append("_key")
        return key(self)

    monkeypatch.setattr(DeltaOp, "__init__", spy_init)
    monkeypatch.setattr(DeltaOp, "_key", spy_key)
    assert cli_main(argv) == 0
    first = capsys.readouterr()
    calls.clear()
    assert cli_main(argv) == 0
    assert capsys.readouterr() == first
    assert calls == []


def test_a_gaussian_abel_flow_after_a_rational_one_prints_as_in_a_fresh_process(capsys):
    argv = ["flow", "--f=0,1,-1", "--op", "abel", "--alpha=2/3", "--order", "6", "--format", "csv"]
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert cli_main(argv + ["--field", "Qi"]) == 0
    out = capsys.readouterr().out
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "deltadyn.cli"] + argv + ["--field", "Qi"], env=env, capture_output=True, text=True
    )
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", out)


def test_equal_operators_of_two_fields_do_not_share_a_cached_basis():
    # in a fresh interpreter, so that the Gaussian twin is built first
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "from deltadyn.scalars import GaussianRational\n"
        "from deltadyn.umbral import abel, basic_sequence_from_delta, derivative\n"
        "basic_sequence_from_delta(abel(GaussianRational(0, 1), 1), 0)\n"
        "print(repr(basic_sequence_from_delta(derivative(1), 0).polys[0].coeffs))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "(Fraction(1, 1),)\n"


def test_to_basic_types_do_not_depend_on_which_field_was_built_first():
    # onto the forward basis, to_basic reads the basis of the inverse
    # operator, Touchard's; its twin with GaussianRational coefficients
    # is equal to it as a series
    flow = delta_flow(XSeries((0, 1, -1)), forward(4), 4)
    twin = DeltaOp(tuple(GaussianRational(c) for c in touchard(4).coeffs))
    assert twin.coeffs == touchard(4).coeffs
    for first in (touchard(4), twin):
        basic_sequence_from_delta.cache_clear()
        basic_sequence_from_delta(first, 4)
        back = flow.to_monomial().to_basic(flow.basis)
        assert back == flow
        assert {type(c) for xs in back.coeffs for c in xs.coeffs} == {Fraction}
        polys = basic_sequence_from_delta(touchard(4), 4).polys
        assert {type(c) for q in polys for c in q.coeffs} == {Fraction}
    polys = basic_sequence_from_delta(twin, 4).polys
    assert {type(c) for q in polys for c in q.coeffs} == {GaussianRational}


def test_binomial_type():
    for Q in all_builtins(8):
        basis = basic_sequence_from_delta(Q, 8)
        for n in range(9):
            left = bivariate_of_shift(basis.poly(n).coeffs)
            right = {}
            for k in range(n + 1):
                term = bivariate_product(
                    basis.poly(k).coeffs, basis.poly(n - k).coeffs
                )
                right = bivariate_add(right, term, math.comb(n, k))
            assert left == right


def bivariate_binomial(basis, n):
    """q_n(t+s) == sum_k C(n,k) q_k(t) q_(n-k)(s), on {(i, j): coeff}."""
    right = {}
    for k in range(n + 1):
        term = bivariate_product(basis.poly(k).coeffs, basis.poly(n - k).coeffs)
        right = bivariate_add(right, term, math.comb(n, k))
    return bivariate_of_shift(basis.poly(n).coeffs) == right


def hurwitz_residuals(basis, top):
    return [d for diffs in _binomial_type(basis, top) for d in diffs]


@settings(max_examples=40, deadline=None)
@given(bases())
def test_random_bases_are_of_binomial_type(basis):
    # the Hurwitz-row form of the verify check, and the bivariate form
    assert all(d == 0 for d in hurwitz_residuals(basis, basis.depth))
    assert all(bivariate_binomial(basis, n) for n in range(basis.depth + 1))


def test_binomial_type_residual_sees_each_wrong_beta():
    # Binomial type through n = top leaves beta(1, top), the u^top
    # coefficient of pinv, free; every other entry is pinned.
    top = 6
    basis = basic_sequence_from_delta(touchard(top), top)
    for n in range(top + 1):
        for k in range(n + 1):
            polys = list(basis.polys)
            polys[n] = polys[n] + XSeries.monomial(Fraction(1, 3), k)
            wrong = BasicSequence(basis.operator, tuple(polys))
            seen = any(d != 0 for d in hurwitz_residuals(wrong, top))
            assert seen == ((k, n) != (1, top))
            assert seen == (not all(bivariate_binomial(wrong, m) for m in range(top + 1)))


@settings(max_examples=60, deadline=None)
@given(bases(), st.data())
def test_the_integer_row_identities_match_their_fraction_forms(basis, data):
    # binomial type, the basic-set axioms and the first expansion, read
    # off the integer rows, against their field-arithmetic forms
    wrong = data.draw(perturbed(basis))
    top = wrong.depth
    assert list(_binomial_type(wrong, top)) == list(binomial_type_by_fractions(wrong, top))
    assert list(_basic_axioms(wrong)) == list(basic_axioms_by_fractions(wrong))
    a = data.draw(st.one_of(RATIONALS, GAUSSIANS))
    for T in (shift_operator(a, top), wrong.operator.coeffs, (0, 0) + wrong.operator.coeffs[2:]):
        assert _first_expansion(T, wrong) == first_expansion_by_fractions(T, wrong)


SPIED = [("umbral", "basic-set-axioms"), ("umbral", "binomial-type"), ("umbral", "first-expansion"),
         ("deltaflow", "delta-representation")]


def test_the_integer_row_checks_read_no_basis_as_scalars(monkeypatch):
    # the four checks read a basis only by its integer rows: no Hurwitz
    # product of scalars, no apply of a series to an XSeries, no
    # Fraction view of a basis
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def spied(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)

        return spied

    from deltadyn import umbral, verifysuite

    for module, name in ((series, "hurwitz_product"), (verifysuite, "hurwitz_product"),
                         (umbral, "apply_delta_series")):
        monkeypatch.setattr(module, name, spy(module, name))
    monkeypatch.setattr(BasicSequence, "_read_terms", spy(BasicSequence, "_read_terms"))
    checks = {(group, name): check for group, name, check in _CHECKS}
    assert [str(checks[key](8, 12)) for key in SPIED] == ["0"] * 4
    assert calls == []


# --- applying operators ------------------------------------------------------

def test_forward_difference_of_square():
    Q = forward(6)
    assert Q.apply_tpoly(XSeries((0, 0, 1))) == XSeries((1, 2))  # (t+1)^2 - t^2


def test_forward_difference_of_falling_factorial():
    Q = forward(8)
    f3 = XSeries(falling_factorial(3))
    f2 = XSeries(falling_factorial(2))
    assert Q.apply_tpoly(f3) == 3 * f2


def test_derivative_on_monomials():
    Q = derivative(8)
    for n in range(1, 8):
        assert Q.apply_tpoly(XSeries.monomial(1, n)) == XSeries.monomial(n, n - 1)
    assert Q.apply_tpoly(XSeries.one()) == XSeries.zero()


def test_operator_order_guard():
    Q = forward(3)
    with pytest.raises(ValueError):
        Q.apply_tpoly(XSeries.monomial(1, 4))


def test_shift_invariance_spot_check():
    p = XSeries((1, -2, 0, 1))
    for Q in all_builtins():
        for a in (1, Fraction(-1, 2)):
            assert Q.apply_tpoly(p.shift(a)) == Q.apply_tpoly(p).shift(a)


# --- umbral operators --------------------------------------------------------

def test_umbral_identity():
    mono = monomial_basis(6)
    p = XSeries((1, 2, 0, 5))
    assert UmbralOperator(mono).apply(p) == p


def test_umbral_falling_on_square():
    basis = basic_sequence_from_delta(forward(6), 6)
    assert UmbralOperator(basis).apply(XSeries((0, 0, 1))) == XSeries((0, -1, 1))


def test_umbral_touchard_degree_one():
    basis = basic_sequence_from_delta(touchard(6), 6)
    assert UmbralOperator(basis).apply(XSeries((1, 1))) == XSeries((1, 1))


def test_umbral_degree_guard():
    basis = basic_sequence_from_delta(forward(3), 3)
    with pytest.raises(ValueError):
        UmbralOperator(basis).apply(XSeries.monomial(1, 4))


# --- umbral composition group ------------------------------------------------

def test_compose_with_identity():
    mono = monomial_basis(8)
    basis = basic_sequence_from_delta(forward(16), 8)
    assert umbral_compose(basis, mono).polys == basis.polys
    assert umbral_compose(mono, basis).polys == basis.polys


def test_compose_operator_matches_series_composition():
    # the composed family is basic for p_A(p_B(delta))
    cases = (
        (forward(12), backward(12)),
        (touchard(12), forward(12)),
        (abel(1, 12), touchard(12)),
    )
    for QA, QB in cases:
        A = basic_sequence_from_delta(QA, 8)
        B = basic_sequence_from_delta(QB, 8)
        composed = umbral_compose(A, B)
        regenerated = basic_sequence_from_delta(composed.operator, 8)
        assert composed.polys == regenerated.polys


def test_falling_after_rising_is_not_monomial():
    # substituting rising factorials into the falling expansion gives the
    # basis of (e^(1-e^(-d)) - 1), not the monomials: r_3 = t^3 + t
    A = basic_sequence_from_delta(forward(12), 6)
    B = basic_sequence_from_delta(backward(12), 6)
    composed = umbral_compose(A, B)
    assert composed.poly(2) == XSeries((0, 0, 1))
    assert composed.poly(3) == XSeries((0, 1, 0, 1))


def test_inverse_of_identity():
    mono = monomial_basis(6)
    assert umbral_inverse(mono).polys == mono.polys


def test_inverse_of_falling_is_touchard():
    fwd = basic_sequence_from_delta(forward(12), 8)
    tou = basic_sequence_from_delta(touchard(12), 8)
    assert umbral_inverse(fwd).polys == tou.polys


def test_inverse_round_trips():
    for Q in (forward(12), backward(12), abel(1, 12), touchard(12)):
        basis = basic_sequence_from_delta(Q, 8)
        inv = umbral_inverse(basis)
        mono = monomial_basis(8)
        assert umbral_compose(basis, inv).polys == mono.polys
        assert umbral_compose(inv, basis).polys == mono.polys
        assert umbral_inverse(inv).polys == basis.polys


@pytest.mark.parametrize("depth", [0, 1, 5])
def test_umbral_inverse_inverts_through_the_basis_depth(depth):
    # forward(12) has order 12 > depth; the basis reads the inverse
    # series only through its depth, and equals the full-order inverse
    A = basic_sequence_from_delta(forward(12), depth)
    inv = umbral_inverse(A)
    assert inv.operator.order == max(A.depth, 1)
    full = DeltaOp(compositional_inverse(A.operator.coeffs, A.operator.order))
    assert inv.polys == basic_sequence_from_delta(full, depth).polys


def test_compose_associativity():
    a = basic_sequence_from_delta(forward(12), 6)
    b = basic_sequence_from_delta(abel(1, 12), 6)
    c = basic_sequence_from_delta(touchard(12), 6)
    left = umbral_compose(umbral_compose(a, b), c)
    right = umbral_compose(a, umbral_compose(b, c))
    assert left.polys == right.polys


# The group over random bases of depth 6, over Q and Q(i) (strategies.bases).

@settings(max_examples=6, deadline=None)
@given(bases())
def test_random_bases_have_inverses_on_both_sides(A):
    mono = monomial_basis(A.depth)
    inv = umbral_inverse(A)
    assert umbral_compose(A, inv).polys == mono.polys
    assert umbral_compose(inv, A).polys == mono.polys


@settings(max_examples=5, deadline=None)
@given(bases())
def test_monomial_basis_is_the_identity_of_random_bases(A):
    mono = monomial_basis(A.depth)
    assert umbral_compose(A, mono).polys == A.polys
    assert umbral_compose(mono, A).polys == A.polys


@settings(max_examples=5, deadline=None)
@given(bases(), bases(), bases())
def test_umbral_composition_of_random_bases_is_associative(A, B, C):
    AB = umbral_compose(A, B)
    left = umbral_compose(AB, C)
    right = umbral_compose(A, umbral_compose(B, C))
    assert (left.operator, left.polys) == (right.operator, right.polys)
    # r_n = sum_k beta_A(k, n) q^B_k: B's polynomials go into A's expansions
    assert list(AB.polys) == [XSeries(expand_by_field_loop(B, p.coeffs)) for p in A.polys]


@settings(max_examples=6, deadline=None)
@given(bases(), bases())
def test_connection_matrices_of_random_bases_are_anti_isomorphic(A, B):
    left = connection_matrix(umbral_compose(A, B))
    assert left == matrix_product(connection_matrix(B), connection_matrix(A))


# --- first expansion theorem --------------------------------------------------

def test_first_expansion_of_q_itself():
    for Q in (forward(10), touchard(10)):
        c = first_expansion(Q.coeffs, Q, 6)
        assert c == (0, 1, 0, 0, 0, 0, 0)


def test_first_expansion_of_shift_in_forward_powers():
    # E^1 q_k at 0 is the falling factorial at 1: nonzero only for k <= 1,
    # so E^1 = I + forward-difference exactly.
    c = first_expansion(shift_operator(1, 10), forward(10), 6)
    assert c == (1, 1, 0, 0, 0, 0, 0)
    rebuilt = expansion_to_delta_series(c, forward(10), 6)
    assert rebuilt == shift_operator(1, 6)


def test_first_expansion_derivative_trivial():
    Q = derivative(8)
    c = first_expansion(Q.coeffs, Q, 5)
    assert c == (0, 1, 0, 0, 0, 0)


def test_first_expansion_reconstruction():
    for Q in (forward(10), backward(10), abel(1, 10), touchard(10)):
        for T in (shift_operator(Fraction(1, 2), 10), touchard(10).coeffs):
            c = first_expansion(T, Q, 8)
            rebuilt = expansion_to_delta_series(c, Q, 8)
            assert rebuilt == tuple(T[: 9])


# --- shift operators -----------------------------------------------------------

def test_shift_operator_values():
    E0 = shift_operator(0, 5)
    assert E0 == (1, 0, 0, 0, 0, 0)
    E1 = shift_operator(1, 6)
    assert apply_delta_series(E1, XSeries((0, 0, 1))) == XSeries((1, 2, 1))
    a, b = Fraction(1, 3), Fraction(2)
    lhs = seq_mul(shift_operator(a, 8), shift_operator(b, 8), 8)
    assert lhs == shift_operator(a + b, 8)


# --- Stirling numbers ----------------------------------------------------------

def test_stirling2_values():
    for n in range(7):
        assert stirling2(n, n) == 1
    assert stirling2(3, 2) == 3
    for n in range(6):
        for k in range(n + 1):
            assert stirling2(n, k) == stirling2_by_enumeration(n, k)


def test_signed_stirling1_values():
    # (t)_3 = t^3 - 3 t^2 + 2 t
    assert signed_stirling1(3, 1) == 2
    assert signed_stirling1(3, 2) == -3
    for n in range(7):
        for k in range(n + 1):
            expected = falling_factorial(n)[k] if k < len(falling_factorial(n)) else 0
            assert signed_stirling1(n, k) == expected
    for n in range(6):
        for k in range(n + 1):
            assert abs(signed_stirling1(n, k)) == unsigned_stirling1_by_enumeration(n, k)


def test_stirling_numbers_past_the_recursion_limit():
    assert stirling2(600, 2) == 2 ** 599 - 1
    assert signed_stirling1(600, 599) == -math.comb(600, 2)


def test_stirling_range_errors():
    with pytest.raises(ValueError):
        stirling2(2, 3)
    with pytest.raises(ValueError):
        signed_stirling1(-1, 0)


def test_forward_beta_is_signed_stirling1():
    basis = basic_sequence_from_delta(forward(DEPTH), DEPTH)
    for n in range(DEPTH + 1):
        for k in range(n + 1):
            assert basis.beta(k, n) == signed_stirling1(n, k)


def test_backward_beta_is_unsigned_stirling1():
    basis = basic_sequence_from_delta(backward(DEPTH), DEPTH)
    for n in range(DEPTH + 1):
        for k in range(n + 1):
            assert basis.beta(k, n) == abs(signed_stirling1(n, k))


def test_umbral_operator_sends_monomials_to_basis():
    for Q in (forward(8), abel(1, 8), touchard(8)):
        basis = basic_sequence_from_delta(Q, 8)
        L = UmbralOperator(basis)
        for n in range(9):
            assert L.apply(XSeries.monomial(1, n)) == basis.poly(n)


# Each guard of the operator and basis kernels and of the delta flow
# equation, with its message.
GUARDS = {
    "reciprocal-constant-term": (
        lambda: series._hurwitz_reciprocal((0, 1), 3),
        "reciprocal requires a nonzero constant term",
    ),
    "compose-inner-constant-term": (
        lambda: seq_compose((0, 1), (1, 1), 3),
        "composition requires inner constant term 0",
    ),
    "apply-tseries-order": (
        lambda: forward(2).apply_tseries(TSeries([XSeries.one()] * 4, 3)),
        "operator order too small for this t-order",
    ),
    "umbral-apply-tseries-depth": (
        lambda: UmbralOperator(monomial_basis(2)).apply_tseries(TSeries([XSeries.one()] * 4, 3)),
        "t-order exceeds the basis depth",
    ),
    "expand-past-depth": (
        lambda: monomial_basis(2).expand([1, 1, 1, 1]),
        "basis index out of range",
    ),
    "basis-from-delta-order": (
        lambda: basic_sequence_from_delta(forward(2), 3),
        "operator order too small for this depth",
    ),
    "basis-by-recurrence-order": (
        lambda: basic_sequence_by_recurrence(forward(2), 3),
        "operator order too small for this depth",
    ),
    "compose-depth-mismatch": (
        lambda: umbral_compose(monomial_basis(2), monomial_basis(3)),
        "depth mismatch",
    ),
    "delta-ode-basis-depth": (
        lambda: verify_delta_ode(XSeries((0, 1, -1)), forward(6), 4, monomial_basis(3)),
        "basis depth is smaller than the flow order",
    ),
    "delta-ode-operator-order": (
        lambda: verify_delta_ode(XSeries((0, 1, -1)), forward(3), 4, monomial_basis(4)),
        "operator order too small for this t-order",
    ),
}


@pytest.mark.parametrize("guard", sorted(GUARDS))
def test_value_error_guards(guard):
    call, message = GUARDS[guard]
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        call()
