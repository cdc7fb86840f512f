"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line.  Criteria 1 and 11 encode oracle equivalences that the
umbral closed forms cannot meet (nonlinear maps iterate by composition,
which the transported flow equation does not track, and the Abel
partial sums diverge beyond the branch radius |alpha a| = 1/e); they
are implemented exactly as stated and left red rather than weakened.
"""

import math
import random
from fractions import Fraction

from deltadyn.autonomous import aut_add, autonomous_sequence, classical_flow, flow_factorize
from deltadyn.deltaflow import (
    connection_matrix,
    delta_flow,
    flow_compose,
    matrix_product,
    poly_flow_product,
    poly_flow_sum,
    rho_q,
    verify_delta_ode,
)
from deltadyn.numeric import (
    SeriesDivergence,
    default_lambert_grid,
    lambert_w_residual,
    numeric_closed_form_check,
)
from deltadyn.scalars import GaussianRational
from deltadyn.series import XSeries
from deltadyn.solver import (
    abel_scaling_check,
    backward_relation_check,
    iterate,
    logistic_factors,
    logistic_map,
    quadratic_alpha,
    quadratic_map,
    solve_forward,
    solve_logistic,
)
from deltadyn.umbral import (
    abel,
    backward,
    basic_sequence_from_delta,
    derivative,
    forward,
    monomial_basis,
    signed_stirling1,
    stirling2,
    touchard,
    umbral_compose,
    umbral_inverse,
)

from oracle_utils import (
    abel_poly,
    bivariate_add,
    bivariate_of_shift,
    bivariate_product,
    falling_factorial,
)

F = Fraction
X = XSeries.x()
ORDER = 10
DEPTH = 16


def _report(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = (" - " + detail) if detail and not ok else ""
    print("ACCEPTANCE %02d %s: %s%s" % (number, label, status, suffix))
    return ok


def _corpus():
    return (
        ("double", XSeries((0, 2)), "Q"),
        ("shift", XSeries((1, 1)), "Q"),
        ("logistic-2", logistic_map(F(2)), "Q"),
        ("logistic-5/2", logistic_map(F(5, 2)), "Q"),
        ("logistic-4", logistic_map(F(4)), "Q"),
        ("quadratic-1/2", quadratic_map(GaussianRational(F(1, 2))), "Qi"),
        ("cubic", XSeries((0, 0, 0, 1)), "Q"),
    )


def _ops(order):
    return (
        derivative(order),
        forward(order),
        backward(order),
        abel(1, order),
        abel(-1, order),
        touchard(order),
    )


def test_criterion_01_difference_oracle_equivalence():
    mismatches = []
    for name, g, field in _corpus():
        starts = (F(1, 3), F(1, 5), F(0))
        if field == "Qi":
            starts = tuple(GaussianRational(s) for s in starts)
        for x0 in starts:
            orbit = iterate(g, x0, 12)
            for n in range(13):
                closed = solve_forward(g, x0, n)
                if closed != orbit[n]:
                    mismatches.append((name, str(x0), n))
    ok = _report(
        1,
        "difference-equation oracle equivalence",
        not mismatches,
        "%d mismatching (map, x0, n) cases, first %s" % (len(mismatches), mismatches[:1]),
    )
    assert ok, (
        "closed form != iterate for %d cases (nonlinear maps iterate by "
        "composition; the umbral closed form tracks the transported flow "
        "equation instead), e.g. %s" % (len(mismatches), mismatches[:3])
    )


def test_criterion_02_logistic_fixed_points():
    ok = True
    for mu in (F(2), F(5, 2), F(4)):
        fp = (mu - 1) / mu
        for n in range(0, 13):
            ok = ok and solve_logistic(mu, F(0), n) == 0
            ok = ok and solve_logistic(mu, fp, n) == fp
    assert _report(2, "logistic fixed points exact", ok)


def test_criterion_03_delta_ode_residual():
    ok = True
    for name, g, field in _corpus():
        f = g - X
        for Q in _ops(DEPTH):
            residual = verify_delta_ode(f, Q, ORDER)
            ok = ok and residual.is_zero
    assert _report(3, "delta flow equation residual zero through order 9", ok)


def test_criterion_04_basis_correctness():
    ok = True
    fwd = basic_sequence_from_delta(forward(DEPTH), ORDER)
    tou = basic_sequence_from_delta(touchard(DEPTH), ORDER)
    for n in range(ORDER + 1):
        ff = falling_factorial(n)
        for k in range(n + 1):
            ok = ok and fwd.beta(k, n) == signed_stirling1(n, k) == ff[k]
            ok = ok and tou.beta(k, n) == stirling2(n, k)
    for alpha in (1, -1):
        ab = basic_sequence_from_delta(abel(alpha, DEPTH), ORDER)
        for n in range(ORDER + 1):
            ok = ok and list(ab.poly(n).coeffs) == abel_poly(n, alpha)
    assert _report(4, "builtin bases match closed forms", ok)


def test_criterion_05_binomial_type():
    ok = True
    for Q in _ops(DEPTH):
        basis = basic_sequence_from_delta(Q, ORDER)
        for n in range(ORDER + 1):
            left = bivariate_of_shift(basis.poly(n).coeffs)
            right = {}
            for k in range(n + 1):
                term = bivariate_product(
                    basis.poly(k).coeffs, basis.poly(n - k).coeffs
                )
                right = bivariate_add(right, term, math.comb(n, k))
            ok = ok and left == right
    assert _report(5, "binomial type identity for builtin bases", ok)


def test_criterion_06_ring_cross_validation():
    rng = random.Random(1234)
    ok = True
    pairs = 0
    while pairs < 20:
        f = XSeries([rng.randint(-3, 3) for _ in range(4)])
        g = XSeries([rng.randint(-3, 3) for _ in range(4)])
        if f.is_zero or g.is_zero:
            continue
        pairs += 1
        via_h = aut_add(autonomous_sequence(f, ORDER), autonomous_sequence(g, ORDER))
        direct = autonomous_sequence(f + g, ORDER)
        ok = ok and via_h.terms == direct.terms
    assert _report(6, "sum via cross terms equals direct autonomous sequence", ok)


def test_criterion_07_factorization_theorems():
    ok = True
    # logistic, classical factorization: f = (-x) * (mu x - (mu - 1))
    for mu in (F(2), F(5, 2), F(4)):
        factor2 = XSeries((-(mu - 1), mu))
        f = -X * factor2
        factored = flow_factorize([-X, factor2], ORDER)
        direct = classical_flow(f, ORDER)
        ok = ok and factored.to_tseries() == direct.to_tseries()
    # forward-difference factorizations, product and sum routes
    Q = forward(DEPTH)
    for mu in (F(2), F(5, 2), F(4)):
        f = XSeries((0, mu - 1, -mu))
        direct = rho_q(f, Q, ORDER)
        prod = poly_flow_product(logistic_factors(mu), Q, ORDER)
        sum_route = poly_flow_sum(f, Q, ORDER)
        ok = ok and prod.coeffs == direct.coeffs
        ok = ok and sum_route.coeffs == direct.coeffs
    alpha = quadratic_alpha(F(1, 2))
    fq = XSeries((GaussianRational(F(1, 2)), -1, 1))
    direct = rho_q(fq, Q, ORDER)
    prod = poly_flow_product([(1, -alpha), (1, -alpha.conjugate())], Q, ORDER)
    ok = ok and prod.coeffs == direct.coeffs
    sum_route = poly_flow_sum(fq, Q, ORDER)
    ok = ok and sum_route.coeffs == direct.coeffs
    assert _report(7, "factored flows equal direct flows through order 10", ok)


def test_criterion_08_backward_and_abel_identities():
    ok = True
    for name, g, field in _corpus():
        if field != "Q":
            continue
        f = g - X
        if f.is_zero:
            continue
        ok = ok and backward_relation_check(f, ORDER).is_zero
    for a in (2, -1):
        for f in (X, X * X, XSeries((0, 3, -4))):
            ok = ok and abel_scaling_check(1, a, f, ORDER).is_zero
    assert _report(8, "backward reflection and Abel scaling residuals zero", ok)


def test_criterion_09_connection_matrix():
    ok = True
    f = XSeries((0, 1, -1))
    for Q in _ops(DEPTH):
        from deltadyn.deltaflow import connection_flow

        left = connection_flow(f, Q, ORDER)
        right = delta_flow(f, Q, ORDER).to_monomial()
        ok = ok and left.coeffs == right.coeffs
    for QA, QB in ((forward(DEPTH), touchard(DEPTH)), (backward(DEPTH), abel(1, DEPTH))):
        A = basic_sequence_from_delta(QA, 8)
        B = basic_sequence_from_delta(QB, 8)
        composed = flow_compose(delta_flow(f, QA, 8, A), delta_flow(f, QB, 8, B))
        ok = ok and connection_matrix(composed.basis) == matrix_product(
            connection_matrix(B), connection_matrix(A)
        )
    assert _report(9, "connection matrices and anti-isomorphism", ok)


def test_criterion_10_umbral_group():
    ok = True
    mono = monomial_basis(8)
    for Q in (forward(DEPTH), backward(DEPTH), abel(1, DEPTH), touchard(DEPTH)):
        basis = basic_sequence_from_delta(Q, 8)
        inv = umbral_inverse(basis)
        ok = ok and umbral_compose(basis, inv).polys == mono.polys
        ok = ok and umbral_compose(inv, basis).polys == mono.polys
    assert _report(10, "umbral inverses compose to the monomial basis", ok)


def test_criterion_11_numeric_closed_forms():
    failures = []
    for kind in ("forward", "backward", "abel", "touchard"):
        for a, t in ((0.5, 0.1), (0.25, 0.5)):
            try:
                report = numeric_closed_form_check(kind, a, t, alpha=1.0)
                if report.deviation >= 1e-9:
                    failures.append((kind, a, t, "deviation %.3e" % report.deviation))
            except SeriesDivergence as exc:
                failures.append((kind, a, t, "diverged: %s" % exc))
    worst_w = max(lambert_w_residual(x) for x in default_lambert_grid())
    if worst_w >= 1e-12:
        failures.append(("lambert", None, None, "residual %.3e" % worst_w))
    ok = _report(
        11,
        "numeric closed forms within 1e-9 and Lambert W within 1e-12",
        not failures,
        "; ".join(str(f) for f in failures),
    )
    assert ok, (
        "numeric closed-form failures: %s (the Abel series in a has "
        "convergence radius 1/e, so a = 1/2 lies outside it)" % failures
    )
