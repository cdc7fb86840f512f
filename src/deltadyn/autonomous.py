"""Autonomous polynomials and classical flows.

The autonomous sequence of a generator f is A_1 = f,
A_{n+1} = f * dA_n/dx; these are the scaled Taylor coefficients of the
flow of phi' = f(phi), so the classical flow is
x + sum_n A_n(x) t^n / n!.  The sequences carry a commutative ring
structure: the sum is corrected by the cross terms H_n(f, g) and the
product pulls back to the product of generators (A_1 recovers the
generator exactly).
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from .flows import Flow, TSeries, taylor_compose
from .series import XSeries

__all__ = [
    "AutonomousSequence",
    "autonomous_sequence",
    "h_sequence",
    "aut_add",
    "aut_mul",
    "aut_scale",
    "classical_flow",
    "semiflow",
    "flow_factorize",
    "flow_from_autonomous",
    "pde_residual",
    "group_law_residuals",
]


@dataclass(frozen=True)
class AutonomousSequence:
    generator: XSeries
    terms: tuple  # A_1 .. A_N

    @property
    def order(self):
        return len(self.terms)

    def term(self, n):
        """A_n, 1-indexed."""
        if not 1 <= n <= self.order:
            raise ValueError("autonomous index out of range")
        return self.terms[n - 1]


def _dx(f):
    if not f.is_exact and f.order == 0:
        return XSeries.zero()
    return f.derivative()


def autonomous_sequence(f, order):
    """A_1 = f and A_{n+1} = f * dA_n/dx, through A_order."""
    if order < 1:
        raise ValueError("order must be >= 1")
    terms = [f]
    for _ in range(order - 1):
        terms.append(f * _dx(terms[-1]))
    return AutonomousSequence(f, tuple(terms))


def h_sequence(f, g, order):
    """Cross terms H_1 = 0, H_{n+1} = f dA_n(g) + g dA_n(f) + (f+g) dH_n.

    These measure the failure of additivity: A_n(f+g) equals
    A_n(f) + A_n(g) + H_n(f, g) for every n.
    """
    af = autonomous_sequence(f, max(order - 1, 1)).terms
    ag = autonomous_sequence(g, max(order - 1, 1)).terms
    H = [XSeries.zero()]
    for n in range(1, order):
        H.append(
            f * _dx(ag[n - 1]) + g * _dx(af[n - 1]) + (f + g) * _dx(H[-1])
        )
    return tuple(H[:order])


def aut_add(F, G):
    """Ring sum: entrywise sum corrected by the H_n cross terms."""
    if F.order != G.order:
        raise ValueError("order mismatch")
    H = h_sequence(F.generator, G.generator, F.order)
    terms = tuple(a + b + h for a, b, h in zip(F.terms, G.terms, H))
    return AutonomousSequence(F.generator + G.generator, terms)


def aut_mul(F, G):
    """Ring product, by pullback to the product of generators."""
    if F.order != G.order:
        raise ValueError("order mismatch")
    return autonomous_sequence(F.generator * G.generator, F.order)


def aut_scale(a, F):
    """Scaling the generator sequence by a multiplies A_n by a^n."""
    terms = []
    power = a
    for t in F.terms:
        terms.append(t * power)
        power = power * a
    return AutonomousSequence(F.generator * a, tuple(terms))


def flow_from_autonomous(aut, basis=None, has_base=True):
    """Flow of aut.generator with basis coefficient n equal to A_n / n!."""
    coeffs = tuple(
        t * Fraction(1, math.factorial(n + 1)) for n, t in enumerate(aut.terms)
    )
    return Flow(coeffs, basis, has_base, aut.generator)


def classical_flow(f, order):
    """x + sum A_n(x) t^n / n!, the flow of phi' = f(phi), truncated."""
    return flow_from_autonomous(autonomous_sequence(f, order))


def semiflow(f, order):
    """classical_flow without the base point x."""
    return flow_from_autonomous(autonomous_sequence(f, order), has_base=False)


def flow_factorize(factors, order):
    """x plus the ring product of the semiflows of the factors.

    Folding with aut_mul pulls the generators back to their product, so
    the result agrees with classical_flow of the full product.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    acc = autonomous_sequence(factors[0], order)
    for g in factors[1:]:
        acc = aut_mul(acc, autonomous_sequence(g, order))
    return flow_from_autonomous(acc)


# ---------------------------------------------------------------------------
# verification helpers for the classical flow properties

def pde_residual(f, order):
    """d/dt Phi - f(Phi), valid through t-order N-1; identically zero."""
    phi = classical_flow(f, order)
    ts = phi.to_tseries()
    return ts.dt() - taylor_compose(f, phi).truncate(order - 1)


def group_law_residuals(f, order):
    """Coefficient residuals of Phi(t+s, x) = Phi(t, Phi(s, x)).

    Both sides are expanded as polynomials in (t, s) with XSeries
    coefficients and compared through total order N.  The right side is
    generated by the Taylor recursion of phi' = f(phi) started at the
    series base Phi(s, x), which is its exact composition with the
    flow.  Returns the flat list of coefficient differences.
    """
    N = order
    aut = autonomous_sequence(f, N)
    phis = classical_flow(f, N).to_tseries()  # read the variable as s

    # rhs[i] = coefficient of t^i, a TSeries in s
    rhs = [phis]
    for m in range(N):
        # f evaluated at the partial sum; only the t^m coefficient is new
        fpsi = _poly_eval_biseries(f, rhs, N)
        coef = fpsi[m] if m < len(fpsi) else TSeries.zero(N)
        rhs.append(coef * Fraction(1, m + 1))

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


def _poly_eval_biseries(f, psi, order):
    """Horner evaluation of an exact polynomial f at a (t, s)-series.

    psi is a list of TSeries-in-s, indexed by the power of t.  Returns
    the same representation, truncated at t-order = order.
    """
    if not f.is_exact:
        raise ValueError("generator must be an exact polynomial here")
    acc = [TSeries.zero(order)]
    for c in reversed(f.coeffs):
        acc = _bi_mul(acc, psi, order)
        acc[0] = acc[0] + TSeries.from_xseries(XSeries.constant(c), order)
    return acc


def _bi_mul(a, b, order):
    out = [TSeries.zero(order) for _ in range(order + 1)]
    for i, ai in enumerate(a):
        if i > order or ai.is_zero:
            continue
        for j, bj in enumerate(b):
            if i + j > order:
                break
            if not bj.is_zero:
                out[i + j] = out[i + j] + ai * bj
    return out
