"""Machine-checkable invariant suite behind the `verify` CLI command.

Every check recomputes one of the exact identities of the package and
reports the largest residual it saw (always "0" on a healthy build).
Checks are grouped by area so the CLI can run a subset; the sampling
inside is seeded and the ordering fixed, making two runs byte
identical.
"""

import random
from fractions import Fraction

from .autonomous import (
    aut_add,
    aut_scale,
    autonomous_sequence,
    classical_flow,
    flow_factorize,
    group_law_residuals,
    pde_residual,
)
from .deltaflow import (
    classical_delta_flow,
    connection_flow,
    connection_matrix,
    delta_flow,
    delta_pde_identity_residuals,
    delta_representation_residuals,
    flow_compose,
    flow_inverse,
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
from .flows import TSeries, taylor_compose
from .scalars import GaussianRational
from .series import (
    XSeries,
    compositional_inverse,
    derivative_sequence,
    hurwitz_product,
    seq_compose,
)
from .solver import (
    abel_scaling_check,
    backward_relation_check,
    iterate,
    load_corpus,
    logistic_factors,
    solve_forward,
    solve_logistic,
)
from .umbral import (
    abel,
    backward,
    basic_sequence_by_recurrence,
    basic_sequence_from_delta,
    derivative,
    expansion_to_delta_series,
    first_expansion,
    forward,
    monomial_basis,
    shift_operator,
    signed_stirling1,
    stirling2,
    touchard,
    umbral_compose,
    umbral_inverse,
)

__all__ = ["run_checks", "all_pass", "GROUPS"]

_SEED = 20240901

GROUPS = ("core", "autonomous", "umbral", "deltaflow", "solver")


def _abs_scalar(v):
    if isinstance(v, GaussianRational):
        return v.norm()
    return abs(Fraction(v))


def _max_abs(residual):
    """Largest absolute value inside nested residual containers."""
    if residual is None:
        return Fraction(0)
    if isinstance(residual, XSeries):
        vals = [_abs_scalar(c) for c in residual.coeffs]
    elif isinstance(residual, TSeries):
        vals = [_max_abs(c) for c in residual.coeffs]
    elif isinstance(residual, (list, tuple)):
        vals = [_max_abs(r) for r in residual]
    else:
        vals = [_abs_scalar(residual)]
    return max(vals, default=Fraction(0))


def _random_polys(rng, count, degree=3, lo=-3, hi=3):
    out = []
    while len(out) < count:
        p = XSeries([rng.randint(lo, hi) for _ in range(degree + 1)])
        if not p.is_zero:
            out.append(p)
    return out


def _builtin_ops(order):
    return (
        ("derivative", derivative(order)),
        ("forward", forward(order)),
        ("backward", backward(order)),
        ("abel(1)", abel(1, order)),
        ("abel(-1)", abel(-1, order)),
        ("touchard", touchard(order)),
    )


def _corpus_generators():
    return [(e["name"], e["g"] - XSeries.x()) for e in load_corpus()]


# ---------------------------------------------------------------------------
# core

def _check_ring_axioms(order, depth):
    rng = random.Random(_SEED)
    worst = Fraction(0)
    for _ in range(8):
        a, b, c = _random_polys(rng, 3)
        worst = max(worst, _max_abs((a * b) * c - a * (b * c)))
        worst = max(worst, _max_abs(a * (b + c) - (a * b + a * c)))
        worst = max(worst, _max_abs(a * b - b * a))
    return worst


def _check_hurwitz(order, depth):
    rng = random.Random(_SEED + 1)
    worst = Fraction(0)
    for _ in range(6):
        f, g = _random_polys(rng, 2)
        left = hurwitz_product(
            derivative_sequence(f, order), derivative_sequence(g, order)
        )
        right = derivative_sequence(f * g, order)
        worst = max(worst, _max_abs([l - r for l, r in zip(left, right)]))
    return worst


def _check_inverse_roundtrip(order, depth):
    worst = Fraction(0)
    for _, Q in _builtin_ops(order):
        inv = compositional_inverse(Q.coeffs, order)
        rt = seq_compose(Q.coeffs, inv, order)
        expected = [0, 1] + [0] * (order - 1)
        worst = max(worst, _max_abs([a - b for a, b in zip(rt, expected)]))
    return worst


def _check_taylor_chain_rule(order, depth):
    worst = Fraction(0)
    f = XSeries((0, 1, -1))
    for g, _ in ((XSeries((0, 1, 1)), 0),):
        phi = classical_flow(g, order)
        comp = taylor_compose(f, phi)
        lhs = comp.dx()
        rhs = taylor_compose(f.derivative(), phi) * phi.to_tseries().dx()
        worst = max(worst, _max_abs(lhs - rhs.truncate(lhs.order)))
    return worst


# ---------------------------------------------------------------------------
# autonomous

def _check_h_cross(order, depth):
    rng = random.Random(_SEED + 2)
    worst = Fraction(0)
    for _ in range(6):
        f, g = _random_polys(rng, 2)
        direct = autonomous_sequence(f + g, order)
        viah = aut_add(autonomous_sequence(f, order), autonomous_sequence(g, order))
        worst = max(
            worst, _max_abs([a - b for a, b in zip(direct.terms, viah.terms)])
        )
    return worst


def _check_scaling(order, depth):
    f = XSeries((0, 1, -1))
    a = Fraction(3, 2)
    scaled = aut_scale(a, autonomous_sequence(f, order))
    direct = autonomous_sequence(f * a, order)
    worst = _max_abs([p - q for p, q in zip(scaled.terms, direct.terms)])
    left = classical_flow(f * a, order).to_tseries()
    right = classical_flow(f, order).to_tseries().t_scale(a)
    return max(worst, _max_abs(left - right))


def _check_pde(order, depth):
    worst = Fraction(0)
    for _, f in _corpus_generators():
        worst = max(worst, _max_abs(pde_residual(f, order)))
    return worst


def _check_group_law(order, depth):
    worst = Fraction(0)
    for f in (XSeries((0, 1)), XSeries((0, 1, -1))):
        worst = max(worst, _max_abs(group_law_residuals(f, order)))
    return worst


def _check_factorize(order, depth):
    cases = (
        [XSeries((0, 1)), XSeries((1, -1))],
        [XSeries((1, 1)), XSeries((3, 2))],
    )
    worst = Fraction(0)
    for factors in cases:
        product = factors[0]
        for g in factors[1:]:
            product = product * g
        left = flow_factorize(factors, order)
        right = classical_flow(product, order)
        worst = max(worst, _max_abs(left.to_tseries() - right.to_tseries()))
    return worst


# ---------------------------------------------------------------------------
# umbral

def _check_basic_axioms(order, depth):
    worst = Fraction(0)
    for _, Q in _builtin_ops(depth):
        basis = basic_sequence_from_delta(Q, depth)
        worst = max(worst, _max_abs(basis.poly(0) - 1))
        for n in range(1, depth + 1):
            qn = basis.poly(n)
            worst = max(worst, _abs_scalar(qn.evaluate(0)))
            image = Q.apply_tpoly(qn) - n * basis.poly(n - 1)
            worst = max(worst, _max_abs(list(image.coeffs)))
    return worst


def _check_recurrence_oracle(order, depth):
    worst = Fraction(0)
    for _, Q in _builtin_ops(depth):
        a = basic_sequence_from_delta(Q, depth)
        b = basic_sequence_by_recurrence(Q, depth)
        for n in range(depth + 1):
            diff = a.poly(n) - b.poly(n)
            worst = max(worst, _max_abs(list(diff.coeffs)))
    return worst


def _check_binomial_type(order, depth):
    worst = Fraction(0)
    from math import comb

    for _, Q in _builtin_ops(depth):
        basis = basic_sequence_from_delta(Q, depth)
        for n in range(min(order, depth) + 1):
            left = {}
            qn = basis.poly(n)
            for k in range(qn.degree + 1):
                c = qn.coefficient(k)
                if c == 0:
                    continue
                for i in range(k + 1):
                    key = (i, k - i)
                    left[key] = left.get(key, 0) + c * comb(k, i)
            right = {}
            for k in range(n + 1):
                qk, qnk = basis.poly(k), basis.poly(n - k)
                w = comb(n, k)
                for i in range(qk.degree + 1):
                    ci = qk.coefficient(i)
                    if ci == 0:
                        continue
                    for j in range(qnk.degree + 1):
                        cj = qnk.coefficient(j)
                        if cj != 0:
                            key = (i, j)
                            right[key] = right.get(key, 0) + w * ci * cj
            keys = set(left) | set(right)
            worst = max(
                worst,
                max(
                    (_abs_scalar(left.get(k, 0) - right.get(k, 0)) for k in keys),
                    default=Fraction(0),
                ),
            )
    return worst


def _check_stirling_bases(order, depth):
    worst = Fraction(0)
    fwd = basic_sequence_from_delta(forward(depth), depth)
    bwd = basic_sequence_from_delta(backward(depth), depth)
    tou = basic_sequence_from_delta(touchard(depth), depth)
    for n in range(depth + 1):
        for k in range(n + 1):
            worst = max(worst, _abs_scalar(fwd.beta(k, n) - signed_stirling1(n, k)))
            worst = max(worst, _abs_scalar(bwd.beta(k, n) - abs(signed_stirling1(n, k))))
            worst = max(worst, _abs_scalar(tou.beta(k, n) - stirling2(n, k)))
    return worst


def _check_abel_closed_form(order, depth):
    from math import comb

    worst = Fraction(0)
    for alpha in (Fraction(1), Fraction(-1), Fraction(2, 3)):
        basis = basic_sequence_from_delta(abel(alpha, depth), depth)
        for n in range(1, depth + 1):
            # t (t - n alpha)^(n-1), expanded by the binomial theorem
            coeffs = [0] * (n + 1)
            for j in range(n):
                coeffs[j + 1] = comb(n - 1, j) * (-n * alpha) ** (n - 1 - j)
            diff = [basis.beta(k, n) - coeffs[k] for k in range(n + 1)]
            worst = max(worst, _max_abs(diff))
    return worst


def _check_umbral_group(order, depth):
    d = min(depth, 8)
    mono = monomial_basis(d)
    worst = Fraction(0)
    ops = (forward(depth), backward(depth), abel(1, depth), touchard(depth))
    bases = [basic_sequence_from_delta(Q, d) for Q in ops]
    for basis in bases:
        left = umbral_compose(basis, umbral_inverse(basis))
        right_ = umbral_compose(umbral_inverse(basis), basis)
        for n in range(d + 1):
            worst = max(worst, _max_abs(list((left.poly(n) - mono.poly(n)).coeffs)))
            worst = max(worst, _max_abs(list((right_.poly(n) - mono.poly(n)).coeffs)))
        ident = umbral_compose(basis, mono)
        for n in range(d + 1):
            worst = max(worst, _max_abs(list((ident.poly(n) - basis.poly(n)).coeffs)))
    a, b, c = bases[0], bases[1], bases[3]
    left = umbral_compose(umbral_compose(a, b), c)
    right_ = umbral_compose(a, umbral_compose(b, c))
    for n in range(d + 1):
        worst = max(worst, _max_abs(list((left.poly(n) - right_.poly(n)).coeffs)))
    return worst


def _check_shift_invariance(order, depth):
    worst = Fraction(0)
    p = XSeries((1, -2, 0, 1))
    for _, Q in _builtin_ops(depth):
        for a in (1, Fraction(-1, 2)):
            left = Q.apply_tpoly(p.shift(a))
            right = Q.apply_tpoly(p).shift(a)
            worst = max(worst, _max_abs(list((left - right).coeffs)))
    return worst


def _check_first_expansion(order, depth):
    worst = Fraction(0)
    d = min(depth, 10)
    for _, Q in _builtin_ops(depth):
        for T in (shift_operator(1, depth), shift_operator(Fraction(-1, 2), depth)):
            c = first_expansion(T, Q, d)
            rebuilt = expansion_to_delta_series(c, Q, d)
            diff = [rebuilt[k] - T[k] for k in range(d + 1)]
            worst = max(worst, _max_abs(diff))
    return worst


# ---------------------------------------------------------------------------
# deltaflow

def _check_delta_ode(order, depth):
    worst = Fraction(0)
    for _, f in _corpus_generators():
        for _, Q in _builtin_ops(max(order, depth)):
            worst = max(worst, _max_abs(verify_delta_ode(f, Q, order)))
            worst = max(worst, _max_abs(delta_pde_identity_residuals(f, Q, order)))
    return worst


def _check_basis_roundtrip(order, depth):
    worst = Fraction(0)
    f = XSeries((0, 1, -1))
    for _, Q in _builtin_ops(max(order, depth)):
        df = delta_flow(f, Q, order)
        back = df.to_monomial().to_basic(df.basis)
        worst = max(
            worst, _max_abs([a - b for a, b in zip(back.coeffs, df.coeffs)])
        )
    return worst


def _check_connection(order, depth):
    worst = Fraction(0)
    f = XSeries((0, 1, -1))
    for _, Q in _builtin_ops(max(order, depth)):
        left = connection_flow(f, Q, order)
        right = delta_flow(f, Q, order).to_monomial()
        worst = max(
            worst, _max_abs([a - b for a, b in zip(left.coeffs, right.coeffs)])
        )
    return worst


def _check_anti_isomorphism(order, depth):
    d = min(depth, 8)
    worst = Fraction(0)
    pairs = (
        (forward(depth), touchard(depth)),
        (backward(depth), abel(1, depth)),
    )
    f = XSeries((0, 1, -1))
    for QA, QB in pairs:
        A = basic_sequence_from_delta(QA, d)
        B = basic_sequence_from_delta(QB, d)
        phi_a = delta_flow(f, QA, d, A)
        phi_b = delta_flow(f, QB, d, B)
        composed = flow_compose(phi_a, phi_b)
        left = connection_matrix(composed.basis)
        right = matrix_product(connection_matrix(B), connection_matrix(A))
        diff = [
            left[i][j] - right[i][j] for i in range(d + 1) for j in range(d + 1)
        ]
        worst = max(worst, _max_abs(diff))
    return worst


def _check_rhoq_ring(order, depth):
    rng = random.Random(_SEED + 3)
    worst = Fraction(0)
    Q = forward(max(order, depth))
    for _ in range(4):
        f, g = _random_polys(rng, 2, degree=2)
        pf, pg = rho_q(f, Q, order), rho_q(g, Q, order)
        s = rhoq_add(pf, pg)
        direct = rho_q(f + g, Q, order)
        worst = max(worst, _max_abs([a - b for a, b in zip(s.coeffs, direct.coeffs)]))
        p = rhoq_mul(pf, pg)
        directm = rho_q(f * g, Q, order)
        worst = max(worst, _max_abs([a - b for a, b in zip(p.coeffs, directm.coeffs)]))
        unit = rhoq_unit(Q, order)
        worst = max(
            worst,
            _max_abs(
                [a - b for a, b in zip(rhoq_mul(pf, unit).coeffs, pf.coeffs)]
            ),
        )
    return worst


def _check_poly_flow_routes(order, depth):
    worst = Fraction(0)
    Q = forward(max(order, depth))
    f = XSeries((0, Fraction(3), Fraction(-4)))  # logistic mu=4 generator
    direct = rho_q(f, Q, order)
    via_sum = poly_flow_sum(f, Q, order)
    worst = max(
        worst, _max_abs([a - b for a, b in zip(via_sum.coeffs, direct.coeffs)])
    )
    via_prod = poly_flow_product(logistic_factors(Fraction(4)), Q, order)
    worst = max(
        worst, _max_abs([a - b for a, b in zip(via_prod.coeffs, direct.coeffs)])
    )
    return worst


def _check_power_identity(order, depth):
    worst = Fraction(0)
    Q = forward(max(order, depth))
    for k in (2, 3):
        worst = max(worst, _max_abs(monomial_power_identity(1, k, Q, order)))
        worst = max(
            worst, _max_abs(monomial_power_identity(Fraction(1, 2), k, Q, order))
        )
    return worst


def _check_flow_group(order, depth):
    d = min(depth, 8)
    f = XSeries((0, 1, -1))
    worst = Fraction(0)
    fwd = delta_flow(f, forward(depth), d)
    classical = classical_delta_flow(f, d)
    with_identity = flow_compose(fwd, classical)
    worst = max(worst, _max_abs(with_identity.to_tseries() - fwd.to_tseries()))
    inv = flow_compose(fwd, flow_inverse(fwd))
    worst = max(worst, _max_abs(inv.to_tseries() - classical.to_tseries()))
    a = delta_flow(f, forward(depth), d)
    b = delta_flow(f, touchard(depth), d)
    c = delta_flow(f, abel(1, depth), d)
    left = flow_compose(flow_compose(a, b), c)
    right = flow_compose(a, flow_compose(b, c))
    worst = max(worst, _max_abs(left.to_tseries() - right.to_tseries()))
    return worst


def _check_delta_representation(order, depth):
    worst = Fraction(0)
    f = XSeries((0, 1, -1))
    for _, Q in _builtin_ops(max(order, depth)):
        df = delta_flow(f, Q, order)
        worst = max(worst, _max_abs(delta_representation_residuals(df)))
    return worst


# ---------------------------------------------------------------------------
# solver

def _check_backward_relation(order, depth):
    worst = Fraction(0)
    for f in (XSeries.zero(), XSeries((0, 1)), XSeries((0, 1, -1))):
        if f.is_zero:
            continue
        worst = max(worst, _max_abs(backward_relation_check(f, order)))
    return worst


def _check_abel_scaling(order, depth):
    worst = Fraction(0)
    for a in (2, -1):
        for f in (XSeries((0, 1)), XSeries((0, 0, 1))):
            worst = max(worst, _max_abs(abel_scaling_check(1, a, f, order)))
    return worst


def _check_fixed_points(order, depth):
    worst = Fraction(0)
    for mu in (Fraction(2), Fraction(5, 2), Fraction(4)):
        worst = max(worst, _abs_scalar(solve_logistic(mu, Fraction(0), 6)))
        fp = (mu - 1) / mu
        worst = max(worst, _abs_scalar(solve_logistic(mu, fp, 6) - fp))
    return worst


def _check_affine_oracle(order, depth):
    worst = Fraction(0)
    for g in (XSeries((0, 2)), XSeries((1, 1))):
        for x0 in (Fraction(1, 3), Fraction(1, 5), Fraction(0)):
            orbit = iterate(g, x0, 10)
            for n in range(11):
                worst = max(
                    worst, _abs_scalar(solve_forward(g, x0, n) - orbit[n])
                )
    return worst


def _check_factored_route(order, depth):
    worst = Fraction(0)
    mu = Fraction(4)
    from .solver import logistic_map

    g = logistic_map(mu)
    for n in range(0, 8):
        left = solve_logistic(mu, Fraction(1, 3), n)
        right = solve_forward(g, Fraction(1, 3), n)
        worst = max(worst, _abs_scalar(left - right))
    return worst


_CHECKS = (
    ("core", "ring-axioms", _check_ring_axioms),
    ("core", "hurwitz-isomorphism", _check_hurwitz),
    ("core", "compositional-inverse-roundtrip", _check_inverse_roundtrip),
    ("core", "taylor-chain-rule", _check_taylor_chain_rule),
    ("autonomous", "sum-cross-terms", _check_h_cross),
    ("autonomous", "generator-scaling", _check_scaling),
    ("autonomous", "flow-pde", _check_pde),
    ("autonomous", "flow-group-law", _check_group_law),
    ("autonomous", "flow-factorization", _check_factorize),
    ("umbral", "basic-set-axioms", _check_basic_axioms),
    ("umbral", "recurrence-oracle", _check_recurrence_oracle),
    ("umbral", "binomial-type", _check_binomial_type),
    ("umbral", "stirling-bases", _check_stirling_bases),
    ("umbral", "abel-closed-form", _check_abel_closed_form),
    ("umbral", "composition-group", _check_umbral_group),
    ("umbral", "shift-invariance", _check_shift_invariance),
    ("umbral", "first-expansion", _check_first_expansion),
    ("deltaflow", "delta-ode", _check_delta_ode),
    ("deltaflow", "basis-roundtrip", _check_basis_roundtrip),
    ("deltaflow", "connection-flow", _check_connection),
    ("deltaflow", "anti-isomorphism", _check_anti_isomorphism),
    ("deltaflow", "semiflow-ring", _check_rhoq_ring),
    ("deltaflow", "poly-flow-routes", _check_poly_flow_routes),
    ("deltaflow", "power-identity", _check_power_identity),
    ("deltaflow", "flow-composition-group", _check_flow_group),
    ("deltaflow", "delta-representation", _check_delta_representation),
    ("solver", "backward-relation", _check_backward_relation),
    ("solver", "abel-scaling", _check_abel_scaling),
    ("solver", "logistic-fixed-points", _check_fixed_points),
    ("solver", "affine-oracle", _check_affine_oracle),
    ("solver", "factored-vs-direct", _check_factored_route),
)


def run_checks(order=10, depth=16, ops="all"):
    """Run the invariant suite; returns a list of result dicts."""
    if ops != "all" and ops not in GROUPS:
        raise ValueError("unknown check group %r" % ops)
    results = []
    for group, name, fn in _CHECKS:
        if ops != "all" and group != ops:
            continue
        residual = fn(order, depth)
        results.append(
            {
                "group": group,
                "name": name,
                "pass": residual == 0,
                "residual": str(residual),
            }
        )
    return results


def all_pass(results):
    return all(r["pass"] for r in results)
