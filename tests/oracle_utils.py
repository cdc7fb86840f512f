"""Independent oracles used by the tests.

Everything here up to the last section is deliberately written against
plain coefficient lists with Fraction entries, without touching the
package's own series classes, so expected values come from a second
route.  The last section keeps the field-arithmetic loops that the
package's integer kernels replaced; they run on whatever scalars and
XSeries they are given: the autonomous recursion, the basis expansion,
the flow coefficients A_n * 1/n!, the Fraction route of the flows
(coefficients divided out, then expanded as scalars), basic
coordinates by back substitution against beta, the series
reciprocal in ordinary coordinates and Rota's recurrence on it,
composition by the powers of the inner series, Lagrange inversion,
the step-table apply of a shift-invariant series, the Horner orbit,
and the closed column of solve from the autonomous polynomials
evaluated at x0, summed on integer lanes by Pascal's rule.  The Taylor
sum form of composition, which Horner's rule replaced in the package,
follows them, and then the bivariate forms of
the group law, the flow PDE and the delta flow equation, and the delta
PDE identity in basic coordinates, which the package now evaluates at
integer points.  These read autonomous_sequence, classical_flow and
delta_flow through their modules, so a test that replaces one of them
there changes the oracle and the package alike.
"""

import math
from fractions import Fraction
from itertools import permutations


def padd(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    ]


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def pder(a):
    return [i * c for i, c in enumerate(a)][1:]


def peval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def pcomp(outer, inner):
    acc = []
    for c in reversed(outer):
        acc = padd(pmul(acc, inner), [c])
    return acc


def falling_factorial(n):
    """Coefficient list of t(t-1)...(t-n+1)."""
    out = [Fraction(1)]
    for j in range(n):
        out = pmul(out, [-j, 1])
    return out


def rising_factorial(n):
    """Coefficient list of t(t+1)...(t+n-1)."""
    out = [Fraction(1)]
    for j in range(n):
        out = pmul(out, [j, 1])
    return out


def abel_poly(n, alpha):
    """Coefficient list of t (t - n alpha)^(n-1)."""
    if n == 0:
        return [Fraction(1)]
    out = [0, 1]
    for _ in range(n - 1):
        out = pmul(out, [-n * alpha, 1])
    return out


def stirling2_by_enumeration(n, k):
    """Count set partitions of {0..n-1} into k nonempty blocks."""
    if n == 0:
        return 1 if k == 0 else 0

    def partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] + [head]] + part[i + 1 :]
            yield part + [[head]]

    return sum(1 for p in partitions(list(range(n))) if len(p) == k)


def unsigned_stirling1_by_enumeration(n, k):
    """Count permutations of n elements with exactly k cycles."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    for perm in permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
        if cycles == k:
            count += 1
    return count


def bivariate_of_shift(coeffs):
    """Expand p(t+s) into {(i, j): coeff} from the coefficients of p."""
    from math import comb

    out = {}
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        for i in range(k + 1):
            key = (i, k - i)
            out[key] = out.get(key, 0) + c * comb(k, i)
    return {k: v for k, v in out.items() if v != 0}


def bivariate_product(pt, ps):
    """Outer product {(i, j): pt[i] * ps[j]}."""
    out = {}
    for i, a in enumerate(pt):
        if a == 0:
            continue
        for j, b in enumerate(ps):
            if b == 0:
                continue
            out[(i, j)] = out.get((i, j), 0) + a * b
    return out


def bivariate_add(acc, other, scale=1):
    for key, v in other.items():
        acc[key] = acc.get(key, 0) + scale * v
    return {k: v for k, v in acc.items() if v != 0}


# ---------------------------------------------------------------------------
# the field-arithmetic routes of the integer kernels

def autonomous_by_field_loop(f, order):
    """A_1 = f, A_(n+1) = f * dA_n/dx in the scalars' own arithmetic."""
    terms = [f]
    for _ in range(order - 1):
        terms.append(f * terms[-1].derivative())
    return tuple(terms)


def expand_by_field_loop(basis, coeffs, zero=0):
    """sum_n coeffs[n] q_n(t) by monomial power, accumulated from zero
    over the nonzero beta(k, n) in the scalars' own arithmetic."""
    out = [zero] * len(coeffs)
    for n, c in enumerate(coeffs):
        for k, b in enumerate(basis.poly(n).coeffs):
            if b != 0:
                out[k] = out[k] + c * b
    return out


def flow_coeffs_by_factorial(aut):
    """A_n * Fraction(1, n!) for the terms A_n of an autonomous sequence."""
    return tuple(t * Fraction(1, math.factorial(n)) for n, t in enumerate(aut.terms, 1))


def flow_by_fractions(aut, basis=None):
    """The route flows took before they kept integer rows: each
    coefficient A_n / n! divided out of aut.numerators as a scalar
    P_n / (d^n n!), and over a basis the monomial form by
    BasicSequence.expand on those scalars.  Returns the pair
    (coefficients, monomial coefficients)."""
    from deltadyn.scalars import from_lanes
    from deltadyn.series import XSeries

    kind, rows = aut.numerators
    coeffs, fact = [], 1
    for n, (den, re, im) in enumerate(rows, 1):
        fact *= n
        entries = [from_lanes(r, im[k] if im else 0, den * fact, max(kind, 1)) for k, r in enumerate(re)]
        coeffs.append(XSeries(entries))
    coeffs = tuple(coeffs)
    if basis is None:
        return coeffs, coeffs
    return coeffs, tuple(basis.expand((XSeries.zero(),) + coeffs)[1:])


def to_basic_by_triangular_solve(flow, basis):
    """The flow in coordinates over basis by back substitution against
    the triangular beta, from the top coefficient down, in XSeries
    arithmetic: the route Flow.to_basic took before it ran the matrix
    of the umbral inverse.  A flow over another basis is read in its
    monomial form first."""
    from deltadyn.flows import Flow
    from deltadyn.series import XSeries, invert_scalar

    if flow.basis is not None:
        flow = flow.to_monomial()
    N = flow.order
    if basis.depth < N:
        raise ValueError("basis depth is smaller than the flow order")
    rest = list(flow.coeffs)  # rest[k-1]: what is left of the t^k coefficient
    out = [XSeries.zero()] * N
    for n in range(N, 0, -1):
        q = basis.poly(n)
        c = rest[n - 1] * invert_scalar(q.coefficient(n))
        out[n - 1] = c
        if not c.is_zero:
            for k in range(1, n + 1):
                b = q.coefficient(k)
                if b != 0:
                    rest[k - 1] = rest[k - 1] - c * b
    return Flow(out, basis, flow.has_base, flow.generator)


def seq_compose_by_field_loop(outer, inner, order):
    """outer(inner(u)) through the given order as the sum of c_k times
    the powers inner^k, each power by series._mul_lists in the scalars'
    own arithmetic."""
    from deltadyn.series import _mul_lists

    inner = list(inner)
    if inner and inner[0] != 0:
        raise ValueError("composition requires inner constant term 0")
    out = [0] * (order + 1)
    power = [1]
    for k, c in enumerate(outer):
        if k > order:
            break
        if c != 0:
            for i, p in enumerate(power):
                if i > order:
                    break
                out[i] = out[i] + c * p
        power = _mul_lists(power, inner, cap=order)
    return tuple(out)


def seq_reciprocal_by_field_loop(a, order):
    """1/a through the given order in ordinary coordinates, in the
    scalars' own arithmetic: out_0 = 1/a_0 and out_n = -(sum_k a_k
    out_(n-k)) / a_0 over the nonzero a_k, the sum started from the int
    0."""
    from deltadyn.series import invert_scalar

    a = list(a)
    if not a or a[0] == 0:
        raise ValueError("reciprocal requires a nonzero constant term")
    inv0 = invert_scalar(a[0])
    out = [inv0] + [0] * order
    for n in range(1, order + 1):
        acc = 0
        for k in range(1, n + 1):
            if k < len(a) and a[k] != 0:
                acc = acc + a[k] * out[n - k]
        out[n] = -acc * inv0
    return tuple(out)


def basic_sequence_by_field_loop(Q, depth):
    """Rota's recurrence q_(n+1) = t r(d) q_n in the scalars' own
    arithmetic: r = 1/p' by seq_reciprocal_by_field_loop, and each step
    the apply of r by apply_by_step_table, accumulated from the zero of
    the field of r (Fraction(0), or GaussianRational(0) when any r_k is
    Gaussian)."""
    from deltadyn.scalars import GaussianRational
    from deltadyn.series import XSeries
    from deltadyn.umbral import BasicSequence

    if depth < 0:
        raise ValueError("depth must be >= 0")
    if Q.order < depth:
        raise ValueError("operator order too small for this depth")
    top = max(depth, 1)
    r = seq_reciprocal_by_field_loop([k * Q.coeffs[k] for k in range(1, top + 1)], top - 1)
    gaussian = any(isinstance(rk, GaussianRational) for rk in r)
    zero = GaussianRational(0) if gaussian else Fraction(0)
    rows = [[zero + 1]]
    for _ in range(depth):
        rows.append([zero] + apply_by_step_table(r, rows[-1], zero))
    return BasicSequence(Q, tuple(XSeries(row) for row in rows))


def compositional_inverse_by_field_loop(p, order):
    """Lagrange inversion in the scalars' own arithmetic: coefficient n
    is [u^(n-1)] w^n * Fraction(1, n), w = u/p(u), w^n by
    series._mul_lists."""
    from deltadyn.series import _mul_lists

    p = list(p)
    if not p or (p[0] != 0):
        raise ValueError("inverse requires constant term 0")
    if len(p) < 2 or p[1] == 0:
        raise ValueError("inverse requires a nonzero linear term")
    w = seq_reciprocal_by_field_loop(p[1:], order)
    out = [0] * (order + 1)
    power = [1]
    for n in range(1, order + 1):
        power = _mul_lists(power, list(w), cap=order)
        out[n] = power[n - 1] * Fraction(1, n) if n - 1 < len(power) else 0
    return tuple(out)


def apply_by_step_table(coeffs, values, zero):
    """The shift-invariant apply of sum_k coeffs[k] d^k on the list
    values (index = power of t; scalars or XSeries), by the step table of
    the Hurwitz weights h_k = k! coeffs[k] in the scalars' own
    arithmetic: entry m is sum_k h_k C(m+k, k) values[m+k], accumulated
    from zero over the nonzero h_k in increasing k."""
    weights = [(k, math.factorial(k) * c) for k, c in enumerate(coeffs)]
    out = []
    for m in range(len(values)):
        acc = zero
        for k, h in weights:
            if h != 0 and m + k < len(values):
                acc = acc + values[m + k] * (h * math.comb(m + k, k))
        out.append(acc)
    return out


def iterate_by_horner(g, x0, n):
    """The orbit y_0 .. y_n, each step by XSeries.evaluate (Horner's
    rule in the scalars' own arithmetic)."""
    ys = [x0]
    for _ in range(n):
        ys.append(g.evaluate(ys[-1]))
    return tuple(ys)


def _closed_forms(x0, values, n_max):
    """Yield x0 + sum_(k <= n) values[k-1] C(n, k) for n = 0 .. n_max,
    values[k-1] = A_k(x0).

    Each row is summed on integer lanes over one common denominator,
    with C(n, k) stepped along Pascal's rule and the zero values
    skipped, and divided out once, in the field of x0 and the values
    (see scalars.to_lanes).
    """
    from deltadyn.scalars import from_lanes, to_lanes

    den, re, im, kind = to_lanes([x0] + list(values[:n_max]))
    terms = [k for k, r in enumerate(re) if r or (im and im[k])]
    binom = [1] + [0] * n_max  # C(n, k) for k = 0 .. n_max
    for n in range(n_max + 1):
        for k in range(n, 0, -1):
            binom[k] += binom[k - 1]
        r = sum(re[k] * binom[k] for k in terms)
        i = sum(im[k] * binom[k] for k in terms) if im else 0
        yield from_lanes(r, i, den, kind)


def closed_column_by_autonomous(g, x0, n):
    """The route solve took before the Taylor recursion at x0: each
    A_k of autonomous_sequence(g - x, n) evaluated at x0 by Horner's
    rule, and the column x0 + sum_k A_k(x0) C(m, k), m = 0 .. n,
    summed from those values by _closed_forms, the package's summation
    before its closed column streamed.  Returns (values, column)."""
    from deltadyn import autonomous
    from deltadyn.series import XSeries

    aut = autonomous.autonomous_sequence(g - XSeries.x(), max(n, 1))
    values = [aut.term(k).evaluate(x0) for k in range(1, n + 1)]
    return values, list(_closed_forms(x0, values, n))


def taylor_sum_compose(f, w):
    """f(W) as the Taylor sum sum_k f^(k)(x)/k! (W - x)^k.

    The sum is finite because W - x has t-order at least 1, so W must
    be centred at x: a Flow with base or a TSeries with t^0 term x.
    """
    from deltadyn.flows import Flow, TSeries
    from deltadyn.series import XSeries

    ts = w.to_tseries() if isinstance(w, Flow) else w
    if ts.coefficient(0) != XSeries.x():
        raise ValueError("flow must be centred at the base series x")
    N = ts.order
    dev = TSeries((XSeries.zero(),) + ts.coeffs[1:], N)
    out = TSeries.zero(N)
    power = TSeries.zero(N) + 1
    fk = f
    k = 0
    kfact = 1
    while True:
        if fk.is_zero:
            break
        out = out + power * (fk * Fraction(1, kfact))
        if k == N:
            break
        fk = fk.derivative()
        k += 1
        kfact *= k
        power = power * dev
    return out


# ---------------------------------------------------------------------------
# the flow identities as bivariate series

def group_law_by_series(f, order):
    """Coefficient residuals of Phi(t+s, x) = Phi(t, Phi(s, x)) as
    polynomials in (t, s) with XSeries coefficients, through total
    order N, listed for i = 0..N and j = 0..N-i.

    The right side is built from f alone by the Taylor recursion of
    phi' = f(phi) started at the series base Phi(s, x), run online: it
    keeps the t-coefficients P_k of the powers psi^k of the partial sum
    and, once rhs[m] is known, adds only P_k[m] = sum_a P_(k-1)[a]
    rhs[m-a], so that rhs[m+1] = [t^m] f(psi) / (m+1).
    """
    from deltadyn import autonomous
    from deltadyn.flows import TSeries
    from deltadyn.series import XSeries

    N = order
    aut = autonomous.autonomous_sequence(f, N)
    # rhs[i] = coefficient of t^i, a TSeries in s; powers[k-1] holds P_k
    rhs = [autonomous.classical_flow(f, N).to_tseries()]
    powers = [rhs] + [[] for _ in range(2, len(f.coeffs))]
    for m in range(N):
        for low, high in zip(powers, powers[1:]):
            terms = (low[a] * rhs[m - a] for a in range(m + 1))
            high.append(sum(terms, TSeries.zero(N - m)))
        c0 = f.coefficient(0) if m == 0 else 0
        fm = TSeries.zero(N - m) + c0
        for power, c in zip(powers, f.coeffs[1:]):
            if c != 0:
                fm = fm + power[m] * c
        rhs.append((fm * Fraction(1, m + 1)).truncate(N - m - 1))

    # lhs: Phi(t+s) has t^i s^j coefficient A_{i+j} C(i+j, i) / (i+j)!
    residuals = []
    for i in range(N + 1):
        for j in range(N + 1 - i):
            n = i + j
            if n == 0:
                lhs = XSeries.x()
            else:
                lhs = aut.term(n) * Fraction(math.comb(n, i), math.factorial(n))
            residuals.append(lhs - rhs[i].coefficient(j))
    return residuals


def _composite_by_series(f, order):
    """f(Phi) for the classical flow, through t-order N-1."""
    from deltadyn import autonomous
    from deltadyn.flows import taylor_compose

    return taylor_compose(f, autonomous.classical_flow(f, order)).truncate(order - 1)


def pde_residual_by_series(f, order):
    """d/dt Phi - f(Phi) through t-order N-1, on TSeries."""
    from deltadyn import autonomous

    dt = autonomous.classical_flow(f, order).to_tseries().dt()
    return dt - _composite_by_series(f, order)


def delta_ode_by_series(f, Q, order, basis=None):
    """Q Phi_Q - L[f(Phi)] through t-order N-1, on TSeries: Q applied
    in t to the monomial form of the delta flow, against f composed
    with the classical flow and mapped through the umbral operator."""
    from deltadyn import deltaflow
    from deltadyn.umbral import UmbralOperator

    df = deltaflow.delta_flow(f, Q, order, basis)
    lhs = Q.apply_tseries(df.to_tseries())
    return lhs - UmbralOperator(df.basis).apply_tseries(_composite_by_series(f, order))


def delta_pde_identity_by_series(f, order):
    """A_(m+1)/m! - f A_m'/m! for m = 0..N-1 on XSeries, with A_0 = x
    so that A_0' = 1: the coefficients of q_m in
    Q Phi_Q - f(x) dPhi_Q/dx."""
    from deltadyn import autonomous
    from deltadyn.series import XSeries

    A = (XSeries.x(),) + autonomous.autonomous_sequence(f, order).terms
    return [(A[m + 1] - f * A[m].derivative()) * Fraction(1, math.factorial(m)) for m in range(order)]
