"""Machine-checkable invariant suite behind the `verify` CLI command.

Every check recomputes one of the exact identities of the package and
reports the largest residual it saw (always "0" on a healthy build).
A check is a generator that yields its residuals: scalars, XSeries,
TSeries or nested lists of them.  `@_check(group, name)` registers it
in `_CHECKS` in definition order, which is the report order, and
reduces what it yields to the largest size: the absolute value, or
the norm |z|^2 over Q(i).  Two sides compared entry by entry go
through `_diffs`, which raises ValueError when their lengths differ
rather than drop the tail of the longer one.
Checks are grouped by area so the CLI can run a subset; the sampling
inside is seeded and the ordering fixed, making two runs byte
identical.

Two kinds of check share the suite.  An identity of the production
rows reads the integer rows that the package computes with and divides
once per nonzero residual entry: basic-set-axioms and binomial-type
(_basic_axioms, _binomial_type), first-expansion
(umbral._first_expansion), delta-representation, and the point checks
delta-ode, flow-group-law and flow-pde (points).  An independent
oracle stays in field arithmetic, which is what makes it independent
of the integer route it watches: recurrence-oracle, stirling-bases,
abel-closed-form, connection-flow, and taylor-chain-rule, which checks
the Fraction series layer itself.
"""

import functools
import random
from fractions import Fraction
from math import comb

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
    _delta_ode_residuals,
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
)
from .flows import TSeries, taylor_compose
from .scalars import GaussianRational, _combine, _quotients
from .series import (
    XSeries,
    compositional_inverse,
    derivative_sequence,
    hurwitz_product,
    seq_compose,
)
from .solver import (
    _closed_column,
    abel_scaling_check,
    backward_relation_check,
    iterate,
    load_corpus,
    logistic_factors,
    logistic_map,
    solve_logistic,
)
from .umbral import (
    _int_apply,
    abel,
    backward,
    basic_sequence_by_recurrence,
    basic_sequence_from_delta,
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

__all__ = ["run_checks", "all_pass", "GROUPS"]

_SEED = 20240901

GROUPS = ("core", "autonomous", "umbral", "deltaflow", "solver")

_CHECKS = []  # (group, name, check) in report order


def _abs_scalar(v):
    if isinstance(v, GaussianRational):
        return v.norm()
    return abs(Fraction(v))


# the size of a residual with no nonzero scalar
_ZERO = Fraction(0)


def _max_abs(residual):
    """Largest size of a scalar inside nested residual containers: the
    absolute value of a rational, the norm |z|^2 of a Gaussian one.
    Exact zeros and empty containers are skipped; with nothing else
    left the size is _ZERO."""
    if isinstance(residual, XSeries):
        vals = [_abs_scalar(c) for c in residual.coeffs if c]
    elif isinstance(residual, TSeries):
        vals = [_max_abs(c) for c in residual.coeffs]
    elif isinstance(residual, (list, tuple)):
        vals = [_max_abs(r) for r in residual if r]
    else:
        vals = [_abs_scalar(residual)]
    return max(vals, default=_ZERO)


def _check(group, name):
    """Register a residual generator as check `name` of `group`.

    The registered check(order, depth) returns the largest absolute
    residual the generator yields, or 0 when it yields none.
    """

    def register(gen):
        @functools.wraps(gen)
        def check(order, depth):
            return max([size for size in map(_max_abs, gen(order, depth)) if size], default=_ZERO)

        _CHECKS.append((group, name, check))
        return check

    return register


def _diffs(left, right):
    """Entrywise left - right; sides of different lengths raise."""
    left, right = list(left), list(right)
    if len(left) != len(right):
        raise ValueError(
            "residual sides differ in length: %d vs %d" % (len(left), len(right))
        )
    return [a - b for a, b in zip(left, right)]


def _random_polys(rng, count, degree=3):
    out = []
    while len(out) < count:
        p = XSeries([rng.randint(-3, 3) for _ in range(degree + 1)])
        if not p.is_zero:
            out.append(p)
    return out


# (name, alpha) of the six operators most checks run over
_BUILTINS = (
    ("derivative", 1),
    ("forward", 1),
    ("backward", 1),
    ("abel", 1),
    ("abel", -1),
    ("touchard", 1),
)


def _builtin_ops(order):
    return [operator(name, order, alpha) for name, alpha in _BUILTINS]


def _corpus_generators():
    return [(e["name"], e["g"] - XSeries.x()) for e in load_corpus()]


# ---------------------------------------------------------------------------
# core

@_check("core", "ring-axioms")
def _check_ring_axioms(order, depth):
    rng = random.Random(_SEED)
    for _ in range(8):
        a, b, c = _random_polys(rng, 3)
        yield (a * b) * c - a * (b * c)
        yield a * (b + c) - (a * b + a * c)
        yield a * b - b * a


@_check("core", "hurwitz-isomorphism")
def _check_hurwitz(order, depth):
    rng = random.Random(_SEED + 1)
    for _ in range(6):
        f, g = _random_polys(rng, 2)
        left = hurwitz_product(
            derivative_sequence(f, order), derivative_sequence(g, order)
        )
        yield _diffs(left, derivative_sequence(f * g, order))


@_check("core", "compositional-inverse-roundtrip")
def _check_inverse_roundtrip(order, depth):
    for Q in _builtin_ops(order):
        inv = compositional_inverse(Q.coeffs, order)
        rt = seq_compose(Q.coeffs, inv, order)
        yield _diffs(rt, [0, 1] + [0] * (order - 1))


@_check("core", "taylor-chain-rule")
def _check_taylor_chain_rule(order, depth):
    f = XSeries((0, 1, -1))
    phi = classical_flow(XSeries((0, 1, 1)), order)
    lhs = taylor_compose(f, phi).dx()
    rhs = taylor_compose(f.derivative(), phi) * phi.to_tseries().dx()
    yield lhs - rhs.truncate(lhs.order)


# ---------------------------------------------------------------------------
# autonomous

@_check("autonomous", "sum-cross-terms")
def _check_h_cross(order, depth):
    rng = random.Random(_SEED + 2)
    for _ in range(6):
        f, g = _random_polys(rng, 2)
        direct = autonomous_sequence(f + g, order)
        viah = aut_add(autonomous_sequence(f, order), autonomous_sequence(g, order))
        yield _diffs(direct.terms, viah.terms)


@_check("autonomous", "generator-scaling")
def _check_scaling(order, depth):
    f = XSeries((0, 1, -1))
    a = Fraction(3, 2)
    scaled = aut_scale(a, autonomous_sequence(f, order))
    yield _diffs(scaled.terms, autonomous_sequence(f * a, order).terms)
    left = classical_flow(f * a, order).to_tseries()
    yield left - classical_flow(f, order).to_tseries().t_scale(a)


@_check("autonomous", "flow-pde")
def _check_pde(order, depth):
    for _, f in _corpus_generators():
        yield pde_residual(f, order)


@_check("autonomous", "flow-group-law")
def _check_group_law(order, depth):
    for f in (XSeries((0, 1)), XSeries((0, 1, -1))):
        yield group_law_residuals(f, order)


@_check("autonomous", "flow-factorization")
def _check_factorize(order, depth):
    cases = (
        [XSeries((0, 1)), XSeries((1, -1))],
        [XSeries((1, 1)), XSeries((3, 2))],
    )
    for factors in cases:
        product = functools.reduce(lambda p, g: p * g, factors)
        left = flow_factorize(factors, order)
        right = classical_flow(product, order)
        yield _diffs(left.to_monomial().coeffs, right.to_monomial().coeffs)


# ---------------------------------------------------------------------------
# umbral

def _basic_axioms(basis):
    """Residuals of the basic-set axioms of a basis and its operator Q:
    the lane of q_0 - 1, the values q_n(0) for n >= 1, then the lane of
    Q q_n - n q_(n-1) for each n >= 1.

    They are read off the integer rows (den, re, im) of the basis
    (BasicSequence.numerators), and Q applies by its step matrix over
    dq (DeltaOp._int_steps): the last is Q q_n den_(n-1) less
    n q_(n-1) den_n dq, over den_n dq den_(n-1).
    """
    dq, q_kind, steps = basis.operator._int_steps
    kind, rows = basis.numerators
    kind = max(kind, q_kind)
    den, re, im = rows[0]
    yield _quotients(_combine(re, 1, [1], den), im, den, kind)
    yield [_quotients(re[:1], im, den, kind)[0] if re else 0 for den, re, im in rows[1:]]
    for n in range(1, len(rows)):
        (pden, pre, pim), (den, re, im) = rows[n - 1], rows[n]
        qr, qi = _int_apply(steps, re, im)
        scale = n * den * dq
        qi = _combine(qi, pden, pim, scale) if qi or pim else None
        yield _quotients(_combine(qr, pden, pre, scale), qi, den * dq * pden, kind)


@_check("umbral", "basic-set-axioms")
def _check_basic_axioms(order, depth):
    for Q in _builtin_ops(depth):
        yield from _basic_axioms(basic_sequence_from_delta(Q, depth))


@_check("umbral", "recurrence-oracle")
def _check_recurrence_oracle(order, depth):
    for Q in _builtin_ops(depth):
        a = basic_sequence_from_delta(Q, depth)
        b = basic_sequence_by_recurrence(Q, depth)
        yield _diffs(a.polys, b.polys)


def _binomial_type(basis, top):
    """Residuals of binomial type through degree top, in the Hurwitz ring.

    Row i of the basis matrix, beta(i, n) for n = 0 .. top, holds the
    Hurwitz coefficients n! [u^n] of pinv(u)^i / i!, so the basis is of
    binomial type through top exactly when row 0 is (1, 0, ..., 0) and
    (i+1) row_(i+1) = row_i * row_1 in the Hurwitz ring for i < top.
    Both are read off B = beta db, the integer matrix of the basis
    (BasicSequence._int_rows), on re and im lanes: row 0 less db over
    db, and (i+1) B(i+1, n) db less sum_k C(n, k) B(i, k) B(1, n-k)
    over db^2, the sum over the nonzero entries of rows i and 1.
    """
    db, kind, matrix = basis._int_rows
    size = top + 1
    rows = [[(e[0], e[1], e[2] if len(e) == 4 else 0) for e in row if e[0] < size] for row in matrix[:size]]

    def lanes(i, scale):
        re, im = [0] * size, [0] * size
        for n, x, y in rows[i]:
            re[n], im[n] = x * scale, y * scale
        return re, im

    re, im = lanes(0, 1)
    re[0] -= db
    yield _quotients(re, im, db, kind)
    for i in range(top):
        re, im = lanes(i + 1, (i + 1) * db)
        for k, x, y in rows[i]:
            for m, u, v in rows[1]:
                n = k + m
                if n > top:
                    break
                c = comb(n, k)
                re[n] -= c * (x * u - y * v)
                im[n] -= c * (x * v + y * u)
        yield _quotients(re, im, db * db, kind)


@_check("umbral", "binomial-type")
def _check_binomial_type(order, depth):
    for Q in _builtin_ops(depth):
        yield from _binomial_type(basic_sequence_from_delta(Q, depth), min(order, depth))


@_check("umbral", "stirling-bases")
def _check_stirling_bases(order, depth):
    fwd = basic_sequence_from_delta(forward(depth), depth)
    bwd = basic_sequence_from_delta(backward(depth), depth)
    tou = basic_sequence_from_delta(touchard(depth), depth)
    for n in range(depth + 1):
        for k in range(n + 1):
            yield fwd.beta(k, n) - signed_stirling1(n, k)
            yield bwd.beta(k, n) - abs(signed_stirling1(n, k))
            yield tou.beta(k, n) - stirling2(n, k)


@_check("umbral", "abel-closed-form")
def _check_abel_closed_form(order, depth):
    for alpha in (Fraction(1), Fraction(-1), Fraction(2, 3)):
        basis = basic_sequence_from_delta(abel(alpha, depth), depth)
        for n in range(1, depth + 1):
            # t (t - n alpha)^(n-1), expanded by the binomial theorem
            coeffs = [0] * (n + 1)
            for j in range(n):
                coeffs[j + 1] = comb(n - 1, j) * (-n * alpha) ** (n - 1 - j)
            yield [basis.beta(k, n) - coeffs[k] for k in range(n + 1)]


@_check("umbral", "composition-group")
def _check_umbral_group(order, depth):
    d = min(depth, 8)
    mono = monomial_basis(d)
    ops = (forward(depth), backward(depth), abel(1, depth), touchard(depth))
    bases = [basic_sequence_from_delta(Q, d) for Q in ops]
    for basis in bases:
        inverse = umbral_inverse(basis)
        yield _diffs(umbral_compose(basis, inverse).polys, mono.polys)
        yield _diffs(umbral_compose(inverse, basis).polys, mono.polys)
        yield _diffs(umbral_compose(basis, mono).polys, basis.polys)
    a, b, c = bases[0], bases[1], bases[3]
    left = umbral_compose(umbral_compose(a, b), c)
    right = umbral_compose(a, umbral_compose(b, c))
    yield _diffs(left.polys, right.polys)


@_check("umbral", "shift-invariance")
def _check_shift_invariance(order, depth):
    p = XSeries((1, -2, 0, 1))
    for Q in _builtin_ops(depth):
        for a in (1, Fraction(-1, 2)):
            yield Q.apply_tpoly(p.shift(a)) - Q.apply_tpoly(p).shift(a)


@_check("umbral", "first-expansion")
def _check_first_expansion(order, depth):
    d = min(depth, 10)
    for Q in _builtin_ops(depth):
        for T in (shift_operator(1, depth), shift_operator(Fraction(-1, 2), depth)):
            rebuilt = expansion_to_delta_series(first_expansion(T, Q, d), Q, d)
            yield _diffs(rebuilt, T[: d + 1])


# ---------------------------------------------------------------------------
# deltaflow

@_check("deltaflow", "delta-ode")
def _check_delta_ode(order, depth):
    pairs = [(Q, None) for Q in _builtin_ops(max(order, depth))]
    for _, f in _corpus_generators():
        yield delta_pde_identity_residuals(f, order)
        yield _delta_ode_residuals(f, pairs, order)


@_check("deltaflow", "basis-roundtrip")
def _check_basis_roundtrip(order, depth):
    f = XSeries((0, 1, -1))
    for Q in _builtin_ops(max(order, depth)):
        df = delta_flow(f, Q, order)
        back = df.to_monomial().to_basic(df.basis)
        yield _diffs(back.coeffs, df.coeffs)


@_check("deltaflow", "connection-flow")
def _check_connection(order, depth):
    f = XSeries((0, 1, -1))
    for Q in _builtin_ops(max(order, depth)):
        left = connection_flow(f, Q, order)
        right = delta_flow(f, Q, order).to_monomial()
        yield _diffs(left.coeffs, right.coeffs)


@_check("deltaflow", "anti-isomorphism")
def _check_anti_isomorphism(order, depth):
    d = min(depth, 8)
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
        yield [left[i][j] - right[i][j] for i in range(d + 1) for j in range(d + 1)]


@_check("deltaflow", "semiflow-ring")
def _check_rhoq_ring(order, depth):
    rng = random.Random(_SEED + 3)
    Q = forward(max(order, depth))
    unit = rhoq_unit(Q, order)
    for _ in range(4):
        f, g = _random_polys(rng, 2, degree=2)
        pf, pg = rho_q(f, Q, order), rho_q(g, Q, order)
        yield _diffs(rhoq_add(pf, pg).coeffs, rho_q(f + g, Q, order).coeffs)
        yield _diffs(rhoq_mul(pf, pg).coeffs, rho_q(f * g, Q, order).coeffs)
        yield _diffs(rhoq_mul(pf, unit).coeffs, pf.coeffs)


@_check("deltaflow", "poly-flow-routes")
def _check_poly_flow_routes(order, depth):
    Q = forward(max(order, depth))
    f = XSeries((0, Fraction(3), Fraction(-4)))  # logistic mu=4 generator
    direct = rho_q(f, Q, order).coeffs
    yield _diffs(poly_flow_sum(f, Q, order).coeffs, direct)
    via_prod = poly_flow_product(logistic_factors(Fraction(4)), Q, order)
    yield _diffs(via_prod.coeffs, direct)


@_check("deltaflow", "power-identity")
def _check_power_identity(order, depth):
    Q = forward(max(order, depth))
    for k in (2, 3):
        yield monomial_power_identity(1, k, Q, order)
        yield monomial_power_identity(Fraction(1, 2), k, Q, order)


@_check("deltaflow", "flow-composition-group")
def _check_flow_group(order, depth):
    d = min(depth, 8)
    f = XSeries((0, 1, -1))
    fwd = delta_flow(f, forward(depth), d)
    classical = classical_delta_flow(f, d)
    with_identity = flow_compose(fwd, classical)
    yield _diffs(with_identity.to_monomial().coeffs, fwd.to_monomial().coeffs)
    inv = flow_compose(fwd, flow_inverse(fwd))
    yield _diffs(inv.to_monomial().coeffs, classical.to_monomial().coeffs)
    b = delta_flow(f, touchard(depth), d)
    c = delta_flow(f, abel(1, depth), d)
    left = flow_compose(flow_compose(fwd, b), c)
    right = flow_compose(fwd, flow_compose(b, c))
    yield _diffs(left.to_monomial().coeffs, right.to_monomial().coeffs)


@_check("deltaflow", "delta-representation")
def _check_delta_representation(order, depth):
    f = XSeries((0, 1, -1))
    for Q in _builtin_ops(max(order, depth)):
        yield delta_representation_residuals(delta_flow(f, Q, order))


# ---------------------------------------------------------------------------
# solver

@_check("solver", "backward-relation")
def _check_backward_relation(order, depth):
    for f in (XSeries.zero(), XSeries((0, 1)), XSeries((0, 1, -1))):
        yield backward_relation_check(f, order)


@_check("solver", "abel-scaling")
def _check_abel_scaling(order, depth):
    for a in (2, -1):
        for f in (XSeries((0, 1)), XSeries((0, 0, 1))):
            yield abel_scaling_check(1, a, f, order)


@_check("solver", "logistic-fixed-points")
def _check_fixed_points(order, depth):
    for mu in (Fraction(2), Fraction(5, 2), Fraction(4)):
        yield solve_logistic(mu, Fraction(0), 6)
        fp = (mu - 1) / mu
        yield solve_logistic(mu, fp, 6) - fp


@_check("solver", "affine-oracle")
def _check_affine_oracle(order, depth):
    for g in (XSeries((0, 2)), XSeries((1, 1))):
        for x0 in (Fraction(1, 3), Fraction(1, 5), Fraction(0)):
            yield _diffs(_closed_column(g, x0, 10), iterate(g, x0, 10))


@_check("solver", "factored-vs-direct")
def _check_factored_route(order, depth):
    mu, x0 = Fraction(4), Fraction(1, 3)
    g = logistic_map(mu)
    for n, closed in enumerate(_closed_column(g, x0, 7)):
        yield solve_logistic(mu, x0, n) - closed


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
