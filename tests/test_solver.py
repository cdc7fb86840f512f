import math
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from deltadyn.scalars import GaussianRational, I, digits_over, format_scalar, parse_scalar
from deltadyn.series import XSeries
from deltadyn.solver import (
    backward_relation_check,
    abel_scaling_check,
    corpus_map,
    iterate,
    iterate_table,
    load_corpus,
    logistic_map,
    quadratic_alpha,
    quadratic_map,
    solve_forward,
    solve_logistic,
    solve_quadratic_map,
)
from deltadyn import solver
from deltadyn.cli import cli_main
from deltadyn.deltaflow import delta_flow
from deltadyn.umbral import backward, forward

from oracle_utils import _closed_forms, closed_column_by_autonomous, iterate_by_horner
from strategies import SCALARS, polys

X = XSeries.x()
F = Fraction


def test_iterate_doubling():
    assert iterate(XSeries((0, 2)), F(1), 4) == (1, 2, 4, 8, 16)


def test_iterate_logistic_frozen():
    orbit = iterate(logistic_map(F(4)), F(1, 3), 3)
    assert orbit == (F(1, 3), F(8, 9), F(32, 81), F(6272, 6561))


def test_iterate_quadratic_gaussian():
    orbit = iterate(quadratic_map(F(1, 2)), GaussianRational(0), 3)
    assert orbit == (
        GaussianRational(0),
        GaussianRational(F(1, 2)),
        GaussianRational(F(3, 4)),
        GaussianRational(F(17, 16)),
    )


# Initial values whose denominators share the primes 2 and 3 with the
# leading coefficients and the common denominators of the maps drawn.
SHARED_PRIMES = st.builds(
    Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 8, 9, 12])
)
INITIAL = st.one_of(*SCALARS.values(), SHARED_PRIMES)


# g of degree 0 to 4 or the zero map, over Z, Q, Q(i) or mixed scalars,
# or over Q with the denominators of SHARED_PRIMES.
MAPS = st.sampled_from([*SCALARS.values(), SHARED_PRIMES]).flatmap(
    lambda scalars: polys(scalars, max_size=5)
)


@settings(max_examples=150, deadline=None)
@given(MAPS, INITIAL, st.integers(0, 4))
@example(XSeries((F(1, 4), 0, 1)), F(1, 2), 4)  # the fixed point of x^2 + 1/4
@example(XSeries((F(1, 4), 0, 1)), F(3, 8), 4)
# (8x^2 + 3)/12 from 3/8: gcd(N, D) = 24 at the first step, the 3 of C = 12 among it
@example(XSeries((F(1, 4), 0, F(2, 3))), F(3, 8), 4)
@example(XSeries((F(-1, 4), 0, 1)), F(1, 2), 3)  # the value 0 reduces all of D
@example(XSeries((0, 1, 2)), F(1, 2), 3)  # gcd(N, D) = 4 = G_d^d at the first step
# x^2 from (1+i)/3: 2i/9, then -4/81, so one part is zero from the first step on
@example(XSeries((0, 0, 1)), GaussianRational(F(1, 3), F(1, 3)), 4)
# x^2 + i from (1+i)/2: x0 over 2, where 1 + i divides the numerator
@example(XSeries((I, 0, 1)), GaussianRational(F(1, 2), F(1, 2)), 4)
# x^2 + 1/2 from 1 + i/5, over the split prime 5 = (2 + i)(2 - i):
# (5 + i)^2 / 25 = 24/25 + 10/25 i, and only the imaginary part divides out a 5
@example(XSeries((F(1, 2), 0, 1)), GaussianRational(1, F(1, 5)), 4)
# (2x^2 + i)/3 from (1+2i)/3: C = 3 shares its prime with x0's denominator,
# and the first value is -2/9 + 17/27 i
@example(XSeries((I / 3, 0, F(2, 3))), GaussianRational(F(1, 3), F(2, 3)), 4)
def test_iterate_matches_the_horner_orbit(g, x0, n):
    # value and type of every orbit value, as Horner's rule gives them
    got = iterate(g, x0, n)
    want = iterate_by_horner(g, x0, n)
    assert got == want
    assert [type(y) for y in got] == [type(y) for y in want]


def test_the_rational_orbit_takes_no_gcd_of_two_long_integers(monkeypatch):
    # every gcd of a step has the small modulus K = C |G_d|^d among its
    # arguments, and no Fraction is built by its normalising constructor
    calls = []
    real_gcd = math.gcd

    def spy(*args):
        calls.append(sorted(a.bit_length() for a in args))
        return real_gcd(*args)

    monkeypatch.setattr(math, "gcd", spy)
    monkeypatch.setattr(solver, "gcd", spy)
    orbit = iterate(XSeries((F(1, 3), F(-2, 5), F(7, 2))), F(4, 9), 9)
    monkeypatch.undo()
    assert orbit[-1].denominator.bit_length() > 2000
    assert calls and all(bits[-2] <= 64 for bits in calls)


def test_the_gaussian_orbit_takes_no_gcd_of_two_long_integers(monkeypatch):
    # each part is reduced against r = C b_0 = 22 or the square of a
    # factor it divided out, and no Fraction is built by its normalising
    # constructor
    calls = []
    real_gcd = math.gcd

    def spy(*args):
        calls.append(sorted(a.bit_length() for a in args))
        return real_gcd(*args)

    monkeypatch.setattr(math, "gcd", spy)
    monkeypatch.setattr(solver, "gcd", spy)
    orbit = iterate(quadratic_map(F(1, 2)), GaussianRational(F(3, 11), F(5, 11)), 12)
    monkeypatch.undo()
    assert orbit[-1].re.denominator.bit_length() > 2000
    assert calls and all(bits[-2] <= 64 for bits in calls)


# --- the forward closed form ---------------------------------------------------

def test_solve_forward_identity_map():
    # g = x has generator 0: the orbit is constant
    for n in range(6):
        assert solve_forward(X, F(1, 3), n) == F(1, 3)


def test_solve_forward_doubling():
    g = XSeries((0, 2))
    for n in range(10):
        assert solve_forward(g, F(1), n) == 2 ** n


def test_solve_forward_shift():
    g = XSeries((1, 1))
    for n in range(10):
        assert solve_forward(g, F(1, 5), n) == F(1, 5) + n


def test_solve_forward_affine_matches_iterate():
    g = XSeries((F(1, 3), F(5, 2)))
    orbit = iterate(g, F(1, 7), 9)
    for n in range(10):
        assert solve_forward(g, F(1, 7), n) == orbit[n]


def test_iterate_table_affine_all_equal():
    table = iterate_table(XSeries((1, 1)), F(0), 8)
    assert table.all_equal
    assert table.rows[8][1] == 8


def test_iterate_table_reports_both_routes():
    table = iterate_table(logistic_map(F(4)), F(1, 3), 3)
    ns, closed, iterated, equal = zip(*table.rows)
    assert ns == (0, 1, 2, 3)
    assert iterated == (F(1, 3), F(8, 9), F(32, 81), F(6272, 6561))
    # the first difference step always matches: Phi(1) = x + A_1 = g(x)
    assert equal[0] and equal[1]


# --- logistic ----------------------------------------------------------------

def test_iterate_table_evaluates_each_autonomous_term_once(monkeypatch):
    # one Taylor recursion at x0 yields each A_k(x0) once, and every
    # row shares them
    yielded = []
    real = solver._hurwitz_composite

    def counting(*args):
        for value in real(*args):
            yielded.append(value)
            yield value

    monkeypatch.setattr(solver, "_hurwitz_composite", counting)
    g, x0 = logistic_map(F(5, 2)), F(1, 7)
    table = solver.iterate_table(g, x0, 9)
    assert len(yielded) == 9
    monkeypatch.undo()
    assert [row[1] for row in table.rows] == [solve_forward(g, x0, n) for n in range(10)]
    assert [row[2] for row in table.rows] == list(iterate(g, x0, 9))


def test_the_closed_column_draws_no_value_past_its_first_long_row(monkeypatch):
    # row n reads A_1(x0) .. A_n(x0) only, so the recursion stops at
    # the first row past the cap instead of running all n_max steps
    yielded = []
    real = solver._hurwitz_composite

    def counting(*args):
        for value in real(*args):
            yielded.append(value)
            yield value

    monkeypatch.setattr(solver, "_hurwitz_composite", counting)
    with pytest.raises(solver.DigitLimitError, match="^the value at n = 42 has more than 60 decimal digits$"):
        list(solver._closed_column(logistic_map(F(4)), F(1, 3), 200, max_digits=60))
    assert 0 < len(yielded) <= 42


def test_iterate_stops_at_the_digit_cap():
    # y_n of 4 y (1 - y) from 1/3 has a denominator of 3^(2^n): 4 digits at n = 3
    assert len(iterate(logistic_map(F(4)), F(1, 3), 2, max_digits=3)) == 3
    with pytest.raises(solver.DigitLimitError, match="n = 3 has more than 3 decimal"):
        iterate(logistic_map(F(4)), F(1, 3), 5, max_digits=3)


def _digits(y):
    """About the most decimal digits of a numerator or denominator in y."""
    parts = (y.re, y.im) if isinstance(y, GaussianRational) else (y,)
    bits = max(n.bit_length() for q in parts for n in (F(q).numerator, F(q).denominator))
    return int(bits * 0.30103) + 1


@settings(max_examples=40, deadline=None)
@given(MAPS, INITIAL, st.integers(0, 6), st.integers(1, 100))
@example(logistic_map(F(4)), F(1, 3), 6, 65)
@example(XSeries((GaussianRational(F(2, 7), F(3, 5)), GaussianRational(F(-22, 7), F(1, 3)),
                  GaussianRational(F(13, 11), F(-5, 3)), GaussianRational(F(-7, 2), 1))),
         F(1, 3), 5, 40)
# parts over 2^10 and 3^7, each of 4 digits, over a common denominator of 7
@example(XSeries((1, 1)), GaussianRational(F(1, 1024), F(1, 2187)), 4, 100)
def test_iterate_refuses_where_the_orbit_first_passes_the_cap(g, x0, n, percent):
    # a value refused on the proven bound, before it is computed, is
    # refused at the same n with the same message as one computed and
    # then found too long; the cap is a share of the longest value
    orbit = iterate_by_horner(g, x0, n)
    cap = max(1, max(map(_digits, orbit)) * percent // 100)
    over = [k for k, y in enumerate(orbit) if digits_over(y, cap)]
    if not over:
        assert iterate(g, x0, n, max_digits=cap) == orbit
        return
    with pytest.raises(solver.DigitLimitError) as refused:
        iterate(g, x0, n, max_digits=cap)
    assert str(refused.value) == "the value at n = %d has more than %d decimal digits" % (over[0], cap)


GAUSSIAN_INTEGERS = st.tuples(st.integers(-6, 6), st.integers(-6, 6))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(GAUSSIAN_INTEGERS, min_size=1, max_size=5).filter(lambda G: G[-1] != (0, 0)),
    st.integers(1, 12),
    GAUSSIAN_INTEGERS,
    st.one_of(st.integers(1, 40), st.sampled_from([2, 4, 8, 16, 32, 64])),
)
@example([(0, 0), (0, 0), (0, 0), (1, 0)], 1, (1, 1), 2)  # ((1 + i)/2)^3 = (-1 + i)/4
@example([(1, 0), (0, 0), (1, 1)], 1, (3, 5), 8)
def test_the_gcd_of_a_step_divides_the_proven_factor(G, C, a, b):
    # the lemmas behind the bounds of iterate: with y = a/b reduced,
    # gcd(N_r, N_i, D) divides K over Q(i), and gcd(N, D) divides K over Q
    ar, ai = a
    assume(math.gcd(ar, ai, b) == 1)
    d = len(G) - 1
    nr = ni = 0
    pr, pi = 1, 0  # a^k
    for k, (gr, gi) in enumerate(G):
        bk = b ** (d - k)
        nr += (gr * pr - gi * pi) * bk
        ni += (gr * pi + gi * pr) * bk
        pr, pi = pr * ar - pi * ai, pr * ai + pi * ar
    D = C * b ** d
    assert solver._qi_factor([g[0] for g in G], [g[1] for g in G], C) % math.gcd(nr, ni, D) == 0
    if all(g[1] == 0 for g in G) and ai == 0:
        assert solver._q_factor([g[0] for g in G], C) % math.gcd(nr, D) == 0


def test_iterate_table_refuses_before_building_autonomous_terms(monkeypatch):
    def unused(*args):
        raise AssertionError("autonomous terms computed for a refused orbit")

    monkeypatch.setattr(solver, "autonomous_sequence", unused)
    monkeypatch.setattr(solver, "_hurwitz_composite", unused)
    with pytest.raises(solver.DigitLimitError, match="n = 3 has more than 3 decimal"):
        iterate_table(logistic_map(F(4)), F(1, 3), 40, max_digits=3)


def _closed_by_binomials(x0, values, n):
    """x0 + sum_k values[k-1] C(n, k) in the scalars' own arithmetic."""
    acc = x0
    for k in range(1, n + 1):
        acc = acc + values[k - 1] * math.comb(n, k)
    return acc


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(list(SCALARS.values())).flatmap(
    lambda scalars: st.tuples(scalars, st.lists(scalars, max_size=8))
))
def test_closed_forms_match_the_binomial_sum(case):
    x0, values = case
    got = list(_closed_forms(x0, values, len(values)))
    want = [_closed_by_binomials(x0, values, n) for n in range(len(values) + 1)]
    assert got == want
    assert [format_scalar(c) for c in got] == [format_scalar(c) for c in want]


# A degree-8 map over Q(i) whose autonomous polynomials at 256 steps
# are too large to build within the CLI's time cap; 0 is a fixed point.
DEGREE_8 = XSeries([parse_scalar(c, "Qi") for c in (
    "0", "2/7+3/5*i", "-22/7+1/3*i", "13/11-5/3*i", "-7/2+i",
    "1/3-2/9*i", "5/7+i", "-3/11+1/2*i", "2/13-3/7*i",
)])


@st.composite
def closed_column_cases(draw):
    """(g, x0, n): g of degree up to 8 over Z, Q or Q(i), x0 of any
    field, and n up to 64, lower for a high degree, so that the
    oracle's autonomous polynomials stay small."""
    g = draw(st.sampled_from(["Z", "Q", "Qi"]).flatmap(lambda field: polys(SCALARS[field], max_size=9)))
    return g, draw(INITIAL), draw(st.integers(0, 64 // max(g.degree - 1, 1)))


@settings(max_examples=40, deadline=None)
@given(closed_column_cases())
@example((X, F(1, 3), 12))  # g = x: f = 0, every A_k the zero polynomial
@example((XSeries((1, 1)), GaussianRational(F(1, 2), 1), 12))  # shift: f = 1
@example((XSeries((F(1, 3), F(5, 2))), F(1, 7), 20))  # affine f
@example((XSeries((3, -2, 0, 1)), -2, 16))  # f in Z[x] at an integer x0
@example((XSeries((F(1, 4), 0, 1)), F(1, 2), 40))  # the fixed point of x^2 + 1/4
@example((DEGREE_8, GaussianRational(0), 32))  # a fixed point of degree 8
@example((DEGREE_8, F(1, 3), 8))
@example((XSeries((F(1, 2), F(3, 2))), 2, 0))  # row 0 has the type of x0 alone
def test_the_closed_column_matches_the_autonomous_polynomials(case):
    # the column streamed from the Taylor recursion at x0 against the
    # A_k built, evaluated by Horner's rule and summed on lanes: equal
    # rows of identical types, whose forward differences at 0 are the
    # A_k(x0)
    g, x0, n = case
    want_values, want = closed_column_by_autonomous(g, x0, n)
    got = list(solver._closed_column(g, x0, n))
    assert got == want
    assert [type(c) for c in got] == [type(c) for c in want]
    diffs, values = got, []
    while len(diffs) > 1:
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        values.append(diffs[0])
    assert values == want_values
    closed = solve_forward(g, x0, n)
    assert closed == want[-1] and type(closed) is type(want[-1])


def test_logistic_fixed_points_exact():
    for mu in (F(2), F(5, 2), F(4)):
        for n in range(0, 9):
            assert solve_logistic(mu, F(0), n) == 0
            fp = (mu - 1) / mu
            assert solve_logistic(mu, fp, n) == fp


def test_logistic_factored_equals_direct_closed_form():
    for mu in (F(2), F(5, 2), F(4)):
        g = logistic_map(mu)
        for n in range(0, 9):
            assert solve_logistic(mu, F(1, 3), n) == solve_forward(g, F(1, 3), n)


def test_logistic_first_step_is_map():
    for mu in (F(2), F(4)):
        g = logistic_map(mu)
        x0 = F(1, 5)
        assert solve_logistic(mu, x0, 1) == g.evaluate(x0)


def test_logistic_rejects_zero_mu():
    with pytest.raises(ValueError):
        solve_logistic(F(0), F(1, 2), 3)


# --- quadratic map --------------------------------------------------------------

def test_quadratic_alpha_representable():
    alpha = quadratic_alpha(F(1, 2))
    assert alpha == GaussianRational(F(1, 2), F(1, 2))
    # (x - alpha)(x - conj) = x^2 - x + 1/2
    assert alpha * alpha.conjugate() == F(1, 2)
    assert alpha + alpha.conjugate() == 1
    assert quadratic_alpha(F(1)) is None


def test_quadratic_fixed_point_constant():
    alpha = quadratic_alpha(F(1, 2))
    for n in range(6):
        assert solve_quadratic_map(F(1, 2), alpha, n) == alpha
    orbit = iterate(quadratic_map(F(1, 2)), alpha, 5)
    assert all(z == alpha for z in orbit)


def test_quadratic_factored_equals_forward_closed_form():
    g = quadratic_map(F(1, 2))
    for z0 in (GaussianRational(0), GaussianRational(0, F(1, 2))):
        for n in range(8):
            factored = solve_quadratic_map(F(1, 2), z0, n)
            direct = solve_forward(g, z0, n)
            assert factored == direct


def test_quadratic_fallback():
    # 4c - 1 = 3 is not a rational square: falls back to the plain form
    g = quadratic_map(F(1))
    for n in range(6):
        assert solve_quadratic_map(F(1), F(1, 3), n) == solve_forward(g, F(1, 3), n)


# --- backward and Abel identities ------------------------------------------------

def test_backward_relation_zero():
    for f in (X, XSeries((0, 1, -1)), XSeries((0, 3, -4)), XSeries((0, -1, 0, 1))):
        assert backward_relation_check(f, 10).is_zero


def test_backward_series_of_zero():
    df = delta_flow(XSeries.zero(), backward(6), 6)
    assert all(c.is_zero for c in df.coeffs)


def test_backward_series_linear_coefficients():
    import math

    a = F(2)
    df = delta_flow(a * X, backward(8), 8)
    for n in range(1, 9):
        assert df.coefficient(n) == X * F(a ** n, math.factorial(n))


def test_backward_series_matches_scaled_forward():
    # reflection identity Phi_bwd(t, x, f) = Phi_fwd(-t, x, -f), monomial form
    f = XSeries((0, 1, -1))
    bwd = delta_flow(f, backward(8), 8).to_tseries()
    fwd = delta_flow(-f, forward(8), 8).to_tseries().t_scale(-1)
    assert bwd == fwd


def test_abel_scaling_zero():
    for a in (2, -1):
        for f in (X, X * X):
            assert abel_scaling_check(1, a, f, 10).is_zero
    assert abel_scaling_check(F(1, 2), F(2, 3), XSeries((0, 1, -1)), 8).is_zero


def test_abel_scaling_trivial_a_one():
    assert abel_scaling_check(1, 1, XSeries((0, 3, -4)), 8).is_zero


# --- corpus -----------------------------------------------------------------------

def test_corpus_contents():
    names = [e["name"] for e in load_corpus()]
    assert names == [
        "double",
        "shift",
        "logistic-2",
        "logistic-5/2",
        "logistic-4",
        "quadratic-1/2",
        "cubic",
    ]
    cubic = corpus_map("cubic")
    assert cubic["g"] == XSeries((0, 0, 0, 1))
    quad = corpus_map("quadratic-1/2")
    assert quad["field"] == "Qi"
    assert quad["g"].coefficient(0) == GaussianRational(F(1, 2))
    with pytest.raises(KeyError, match="^\"no corpus map named 'nope'\"$"):
        corpus_map("nope")


def test_the_corpus_returns_fresh_entries():
    # corpus.json is parsed once; what a caller gets is its own to change
    want = load_corpus()
    first = load_corpus()
    first[2]["params"]["mu"] = "7"
    first[2].clear()
    first.clear()
    entry = corpus_map("logistic-2")
    entry["params"].clear()
    entry["name"] = "x"
    assert load_corpus() == want
    assert corpus_map("logistic-2") == want[2]
    assert want[2]["params"] == {"mu": "2"} and want[2]["g"] == logistic_map(2)


def test_a_repeated_named_map_parses_no_corpus_entry(capsys, monkeypatch):
    calls = []
    real = solver._parse_entry

    def spy(entry):
        calls.append(entry["name"])
        return real(entry)

    monkeypatch.setattr(solver, "_parse_entry", spy)
    argv = ["solve", "--map", "logistic-2", "--x0", "3/7", "--steps", "11"]
    cli_main(argv)
    first = capsys.readouterr()
    calls.clear()
    cli_main(argv)
    assert capsys.readouterr() == first
    assert calls == []
