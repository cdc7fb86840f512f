"""Delta flows: solutions of Q Phi = f(Phi) over a basic-sequence basis.

A delta flow replaces the monomials of the classical flow by the basic
polynomials of a delta operator Q,

    Phi_Q(t, x) = x + sum_n A_n(x) q_n(t) / n!,

a flows.Flow over the basis of Q that carries f as its generator.  It
is the umbral image L[Phi] of the classical flow.  Because L is
linear but not multiplicative, the right hand side f(Phi_Q) of the
flow equation lives in the transported ring: the defining identity is

    Q Phi_Q = L[f(Phi)] = f(x) dPhi_Q/dx.

verify_delta_ode checks the first equality and
delta_pde_identity_residuals the second in basic coordinates, where it
reads A_(m+1) = f A_m' for every Q and takes f alone.  Both run at
integer points through points, the second with the rows of the A_m' as
a further row set, as autonomous does for the group law: each
coefficient of a residual is a polynomial in x, zero at more points
than its degree only if identically zero.  The right side of the first
does not depend on Q either, so _delta_ode_residuals checks it for
several operators in one pass over the points, with the flow and
f(Phi) at each point computed once.  At Q = d/dt, whose
basic sequence is the monomials, L is the identity and the equation is
the flow PDE d/dt Phi = f(Phi) of the classical flow, which
autonomous.pde_residual certifies through verify_delta_ode.

Semiflows of fixed Q form a ring under the transported sum (cross
terms H_n) and product (pullback to the product of generators); flows
of a fixed generator over varying bases form a group under umbral
composition of the bases, anti-isomorphic to their connection
matrices.
"""

import math
from fractions import Fraction

from .autonomous import (
    autonomous_sequence,
    flow_from_autonomous,
    h_sequence,
)
from .flows import Flow, TSeries
from .scalars import _combine, _quotients
from .series import XSeries, _horner, rational_binomial
from .umbral import (
    UmbralOperator,
    _int_apply,
    _int_matrix,
    _is_gaussian,
    basic_sequence_from_delta,
    derivative,
    umbral_compose,
    umbral_inverse,
)

__all__ = [
    "delta_flow",
    "classical_delta_flow",
    "rho_q",
    "rhoq_add",
    "rhoq_mul",
    "rhoq_unit",
    "verify_delta_ode",
    "delta_pde_identity_residuals",
    "linear_semiflow_terms",
    "monomial_power_identity",
    "poly_flow_sum",
    "poly_flow_product",
    "flow_compose",
    "flow_inverse",
    "connection_matrix",
    "connection_flow",
    "matrix_product",
    "delta_representation_residuals",
]


def delta_flow(f, Q, order, basis=None):
    """Phi_Q for generator f: coefficients A_n(f)/n! against q_n(t),
    over the given basis of Q or else the one of depth order."""
    if basis is None:
        basis = basic_sequence_from_delta(Q, order)
    return flow_from_autonomous(autonomous_sequence(f, order), basis)


def classical_delta_flow(f, order):
    """The classical flow packaged over the monomial basic sequence.

    This is the identity element of the composition group.
    """
    return delta_flow(f, derivative(max(order, 1)), order)


def rho_q(f, Q, order):
    """Semiflow: delta_flow without the base point."""
    return delta_flow(f, Q, order).minus_base()


def _check_ring_operands(a, b):
    if a.basis != b.basis:
        raise ValueError("mixed bases")
    if a.order != b.order:
        raise ValueError("order mismatch")


def rhoq_add(a, b):
    """Transported sum: coefficientwise sum corrected by H_n(f, g)/n!.

    The result is the semiflow of f + g; computing it through the H_n
    recursion keeps the route independent from autonomous_sequence.
    """
    _check_ring_operands(a, b)
    H = h_sequence(a.generator, b.generator, a.order)
    coeffs = tuple(
        ca + cb + h * Fraction(1, math.factorial(n + 1))
        for n, (ca, cb, h) in enumerate(zip(a.coeffs, b.coeffs, H))
    )
    return Flow(coeffs, a.basis, False, a.generator + b.generator)


def rhoq_mul(a, b):
    """Transported product: pullback to the product of the generators."""
    _check_ring_operands(a, b)
    return delta_flow(
        a.generator * b.generator, a.basis.operator, a.order, a.basis
    ).minus_base()


def rhoq_unit(Q, order):
    """Multiplicative unit of the semiflow ring: q_1(t), generator 1."""
    return rho_q(XSeries.one(), Q, order)


# ---------------------------------------------------------------------------
# the delta flow equation

def verify_delta_ode(f, Q, order, basis=None):
    """Residual of Q Phi_Q = L[f(Phi)] through t-order N-1, over the
    given basis or else Q's own of depth N; zero when the basis is Q's.
    It is _delta_ode_residuals of the one pair (Q, basis)."""
    return _delta_ode_residuals(f, [(Q, basis)], order)[0]


def _delta_ode_residuals(f, pairs, order):
    """verify_delta_ode of f for each (Q, basis) of pairs, a residual
    TSeries each, with the flow and f(Phi) computed once for all.

    The left side applies Q in t to the monomial form of the delta
    flow; the right side maps the monomials of f(Phi), Phi the
    classical flow, through the umbral operator t^m -> q_m(t) of the
    basis.  At a point x0, with u the Hurwitz coefficients there of the
    flow of F = d f (the flow of f with t scaled by d), the delta flow is
    x0 + sum_n beta(k, n) u_n t^k / (d^n n!) and f(Phi) is
    sum_m F(u)_m t^m / (d^(m+1) m!); neither u nor F(u) depends on Q.
    With the matrix of beta over its denominator db
    (BasicSequence._int_rows) and the step matrix of Q over its
    denominator dq (DeltaOp._int_steps), both sides times dq db d^N N!
    are products of those matrices and point values by
    umbral._int_apply, the two sides as the two lanes of one walk over
    beta; a Gaussian matrix is first made point values, so that no
    value, a points._Degree included, is split into lanes.  The
    residuals of every pair are computed at the same integer points by
    one points._certify, with the largest degree bound of the batch:
    more points interpolate to the same polynomials, each with the
    coefficient kind of its own pair.
    """
    from .points import _certify, _integral
    from .series import _hurwitz_composite, _lane

    N = order
    fact = math.factorial
    ops = []
    for Q, basis in pairs:
        if basis is None:
            basis = basic_sequence_from_delta(Q, order)
        elif basis.depth < order:
            raise ValueError("basis depth is smaller than the flow order")
        if Q.order < order:
            raise ValueError("operator order too small for this t-order")
        db, basis_kind, beta = basis._int_rows
        dq, q_kind, steps = Q._int_steps
        beta, steps = (
            [[(j, _lane(x, y)) for j, x, y, _ in row] for row in m[: N + 1]] if _is_gaussian(m) else m
            for m in (beta, steps)
        )
        ops.append((beta, steps, dq, db, max(basis_kind, q_kind)))
    rows = autonomous_sequence(f, N).numerators[1]
    d, F, kind = _integral(f)
    lhs_scale = [fact(N) // fact(n) * d ** (N - n) for n in range(N + 1)]
    rhs_scale = [fact(N) // fact(m) * d ** (N - 1 - m) for m in range(N)]

    def at(F, u):
        # the monomial coefficients of Phi_Q, and the right side from
        # F(u), a series in t alone
        lhs = [0] + [c * s for c, s in zip(u[1:], lhs_scale[1:])]
        F_u = _hurwitz_composite(F, [[c] for c in u], [1] * N)
        rhs = [value * s for (value,), s in zip(F_u, rhs_scale)] + [0]
        out = []
        for beta, steps, dq, _, _ in ops:
            # one walk over beta: both sides are the two lanes of a call
            W, R = _int_apply(beta, lhs, [dq * v for v in rhs])
            out += [q - r for q, r in zip(_int_apply(steps, W)[0], R[:N])]
        return out

    scales, kinds = [], []
    for _, _, dq, db, op_kind in ops:
        scales += [Fraction(1, dq * db * d ** N * fact(N))] * N
        kinds += [max(kind, op_kind)] * N
    residuals = _certify(at, F, scales, kinds, rows)
    return [TSeries(residuals[i * N : (i + 1) * N], N - 1) for i in range(len(ops))]


def delta_pde_identity_residuals(f, order):
    """Residuals of Q Phi_Q = f(x) dPhi_Q/dx in basic coordinates.

    As Q q_n = n q_(n-1), residual m < N, at q_m, is A_(m+1)/m! less
    f A_m'/m!, with A_0' = 1, the same for every delta operator Q; all
    are zero.  points._certify computes them at integer points x0: with
    f = F/d, residual m times d^(m+1) m! is d^(m+1) A_(m+1)(x0) less
    F(x0) d^m A_m'(x0), the rows of the A_m' read as a further row set.
    """
    from .points import _certify, _integral

    rows = autonomous_sequence(f, order).numerators[1]
    d, F, kind = _integral(f)
    drows = [
        (den,) + tuple(v and [j * c for j, c in enumerate(v)][1:] for v in (re, im))
        for den, re, im in rows[: order - 1]
    ]

    def at(F, u, du):
        fx = _horner(F, u[0])
        return [v - fx * w for v, w in zip(u[1:], [1] + du[1:])]

    scales = [Fraction(1, d ** (m + 1) * math.factorial(m)) for m in range(order)]
    return _certify(at, F, scales, [kind] * order, rows, drows)


# ---------------------------------------------------------------------------
# closed forms for polynomial generators

def linear_semiflow_terms(a, b, Q, order):
    """Semiflow of the affine generator a*x + b.

    The coefficient of q_n is a^(n-1) (a x + b) / n!; for a = 0 that
    is the single term b q_1(t), since 0^0 = 1.
    """
    gen = XSeries((b, a))
    coeffs = []
    power = 1
    for n in range(1, order + 1):
        coeffs.append(gen * (power * Fraction(1, math.factorial(n))))
        power = power * a
    return Flow(coeffs, basic_sequence_from_delta(Q, order), False, gen)


def monomial_power_identity(a, k, Q, order):
    """Residual of the power closed form for the generator a*x^k, k >= 2.

    The semiflow of a*x^k, the k-fold ring product of the semiflows of
    a*x and x, matches the umbral image of
    x (1 - a(k-1) x^(k-1) t)^(-1/(k-1)) - x, expanded through the
    binomial series; the residual vanishes through t-order N.
    """
    if k < 2:
        raise ValueError("power identity needs k >= 2")
    if order == 0:
        return TSeries.zero(0)
    lhs = rho_q(XSeries.monomial(a, k), Q, order).to_tseries()

    r = Fraction(-1, k - 1)
    scale = -(a * (k - 1))
    closed = [XSeries.zero()]
    power = 1
    for n in range(1, order + 1):
        power = power * scale
        closed.append(XSeries.monomial(rational_binomial(r, n) * power, (k - 1) * n + 1))
    basis = basic_sequence_from_delta(Q, order)
    rhs = UmbralOperator(basis).apply_tseries(TSeries(closed, order))
    return lhs - rhs


def poly_flow_sum(f, Q, order):
    """Semiflow of a polynomial f assembled monomial by monomial.

    Each term a_k x^k contributes its semiflow: linear_semiflow_terms
    for k <= 1, else the ring power, rho_q of a_k x times x^(k-1) (a
    product of generators, so its zeros are in the field of a_k).  The
    pieces are folded with the transported sum, exercising the H_n
    route end to end.  Equals rho_q(f) exactly.
    """
    pieces = []
    for k in range(f.degree + 1):
        c = f.coefficient(k)
        if c == 0:
            continue
        if k == 0:
            pieces.append(linear_semiflow_terms(0, c, Q, order))
        elif k == 1:
            pieces.append(linear_semiflow_terms(c, 0, Q, order))
        else:
            pieces.append(rho_q(XSeries((0, c)) * XSeries.monomial(1, k - 1), Q, order))
    if not pieces:
        return rho_q(XSeries.zero(), Q, order)
    acc = pieces[0]
    for piece in pieces[1:]:
        acc = rhoq_add(acc, piece)
    return acc


def poly_flow_product(factors, Q, order):
    """Semiflow of a product of affine factors (a_k x + b_k), a_k != 0.

    A lone factor keeps its closed form linear_semiflow_terms.  The
    ring product of several is the pullback (rhoq_mul), built once as
    rho_q of their product; for the logistic map at mu = 4, -x (4x - 3):

    >>> from deltadyn.umbral import forward
    >>> Q = forward(6)
    >>> poly_flow_product([(-1, 0), (4, -3)], Q, 6) == rho_q(XSeries((0, 3, -4)), Q, 6)
    True
    """
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    if any(a == 0 for a, _ in factors):
        raise ValueError("factors must have a nonzero linear coefficient")
    if len(factors) == 1:
        return linear_semiflow_terms(*factors[0], Q, order)
    gens = [XSeries((b, a)) for a, b in factors]
    return rho_q(math.prod(gens[1:], start=gens[0]), Q, order)


# ---------------------------------------------------------------------------
# the composition group of flows with a fixed generator

def flow_compose(phi_a, phi_b):
    """Compose two delta flows of the same generator.

    The coefficients are untouched; the basis of the result is the
    umbral composition of the bases.
    """
    if phi_a.generator != phi_b.generator:
        raise ValueError("generator mismatch")
    if phi_a.order != phi_b.order:
        raise ValueError("order mismatch")
    composed = umbral_compose(phi_a.basis, phi_b.basis)
    return Flow(phi_a.coeffs, composed, phi_a.has_base, phi_a.generator)


def flow_inverse(phi):
    """Inverse element: same coefficients over the inverse basis."""
    return Flow(
        phi.coeffs, umbral_inverse(phi.basis), phi.has_base, phi.generator
    )


# ---------------------------------------------------------------------------
# connection matrices

def connection_matrix(basis):
    """Upper-triangular change of basis: entry [n][i] extracts the
    t^n coefficient of q_i.  Multiplying it against the vector
    (A_i / i!) yields the monomial coefficients of the flow."""
    d = basis.depth
    return [[basis.beta(n, i) for i in range(d + 1)] for n in range(d + 1)]


def matrix_product(A, B):
    n = len(A)
    return [
        [sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def connection_flow(f, Q, order):
    """Monomial flow built directly from the connection matrix.

    Coefficient of t^n is the row-n dot product of the matrix with the
    Hadamard product of the autonomous terms and (1/i!).  Must equal
    the basis conversion of delta_flow exactly.
    """
    basis = basic_sequence_from_delta(Q, order)
    aut = autonomous_sequence(f, order)
    scaled = [aut.term(i) * Fraction(1, math.factorial(i)) for i in range(1, order + 1)]
    mono = []
    for n in range(1, order + 1):
        acc = XSeries.zero()
        for i in range(n, order + 1):
            beta = basis.beta(n, i)
            if beta != 0:
                acc = acc + scaled[i - 1] * beta
        mono.append(acc)
    return Flow(tuple(mono), None, True)


# ---------------------------------------------------------------------------
# delta representation (verification-only reconstruction)

def delta_representation_residuals(df):
    """Check Phi_Q = sum_n [Q^n Phi_Q at t=0] q_n(t) / n!.

    Reapplies Q to the monomial form n times, reads the value at t = 0
    and compares it against n! times the stored coefficients.  Returns
    the list of differences (base term first), XSeries in x.

    It runs on integer rows.  With S the step matrix of Q over dq
    (DeltaOp._int_steps) and M the monomial rows over their common
    denominator D, as a matrix from t-power to x-power, the value at
    t = 0 of Q^n Phi_Q is M r_n over D dq^n, r_n = row 0 of S^n, so
    that r_n is S^T r_(n-1), from r_0 = (1, 0, ..., 0): two
    umbral._int_apply products per n, and one division per nonzero
    residual entry.  The t^0 term of the monomial form is the base
    term itself, so the first difference is zero.
    """
    N = df.order
    if df.basis.operator.order < N:
        raise ValueError("operator order too small for this t-order")
    dq, q_kind, steps = df.basis.operator._int_steps
    kind, mono = df.to_monomial().numerators
    D = math.lcm(*[den for den, _, _ in mono])
    width = max((len(re) for _, re, _ in mono), default=0)
    M = _int_matrix(
        [(m, D // den * re[i], D // den * im[i] if im else 0)
         for m, (den, re, im) in enumerate(mono, 1) if i < len(re)]
        for i in range(width)
    )
    size = max(N + 1, width)
    ST = [[] for _ in range(size)]  # S^T through t-power N
    for m, row in enumerate(steps[: N + 1]):
        for entry in row:
            if entry[0] > N:
                break
            ST[entry[0]].append((m,) + entry[1:])
    kind = max(kind, q_kind, 1)
    _, coeffs = df.numerators
    r, ri = [1] + [0] * (size - 1), None
    den, fact = D, 1
    residuals = [XSeries.zero()]
    for n, (cden, cre, cim) in enumerate(coeffs, 1):
        r, ri = _int_apply(ST, r, ri)
        vr, vi = _int_apply(M, r, ri)
        den, fact = den * dq, fact * n
        scale = fact * den
        vr, vi = _combine(vr, cden, cre, scale), _combine(vi, cden, cim, scale)
        residuals.append(XSeries(_quotients(vr, vi, scale * cden, kind)))
    return residuals
