"""Autonomous polynomials and classical flows.

The autonomous sequence of a generator f is A_1 = f,
A_{n+1} = f * dA_n/dx; these are the scaled Taylor coefficients of the
flow of phi' = f(phi), so the classical flow is
x + sum_n A_n(x) t^n / n!.  The sequences carry a commutative ring
structure: the sum is corrected by the cross terms H_n(f, g) and the
product pulls back to the product of generators (A_1 recovers the
generator exactly).

For f = F/d with F in D[x], D the integers or the Gaussian integers,
every A_n equals P_n / d^n with P_n in D[x].  One kernel, _numerators,
runs the recursion P_(n+1) = F * dP_n/dx on integer coefficient lists
with series._mul_lanes (three real products per step over the Gaussian
integers).  The terms A_n = P_n / d^n are read from it with one
division per coefficient, on first read.  The flows keep the integer
pairs (P_n, d^n n!) of their coefficients A_n / n! as they are, with no
division (see flows.Flow).

The flow identities are checked at integer points x0 in Hurwitz
coordinates, the paper's ring over an integral domain: the group law
Phi(t+s, x) = Phi(t, Phi(s, x)) here, and the PDE d/dt Phi = f(Phi) as
the delta flow equation Q Phi_Q = L[f(Phi)] of deltaflow at Q = d/dt,
whose basic sequence is the monomials.  The flow of f is the flow of F
with t scaled by 1/d, and the Hurwitz coefficients of the flow of F at
x0 are the integers P_n(x0), so f(Phi) is a chain of binomial
convolutions of integers.  Every residual is a polynomial in x whose
degree is bounded by running the same recursion on degrees, and one
that vanishes at more points than that bound is identically zero.  The
module points holds this machinery; the checks import it on first use,
so the routes that never check an identity do not load it.
"""

import math
from fractions import Fraction

from .flows import Flow, _TermRows
from .scalars import to_lanes
from .series import XSeries, _mul_lanes

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


class AutonomousSequence(_TermRows):
    """The autonomous polynomials A_1 .. A_N of a generator.

    flows._TermRows holds the terms and their integer form numerators:
    autonomous_sequence gives the rows of the kernel, aut_add and
    aut_scale give terms.
    """

    __slots__ = ("generator",)

    def __init__(self, generator, terms):
        self._terms, self._numerators = tuple(terms), None
        self._set(generator)

    def _set(self, generator):
        self.generator = generator

    @property
    def terms(self):
        """A_1 .. A_N; A_1 is the generator itself."""
        return self._read_terms((self.generator,))

    def term(self, n):
        """A_n, 1-indexed."""
        if not 1 <= n <= self.order:
            raise ValueError("autonomous index out of range")
        return self.terms[n - 1]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.generator == other.generator and self.terms == other.terms

    def __hash__(self):
        return hash((self.generator, self.terms))

    def __repr__(self):
        return "AutonomousSequence(generator=%r, terms=%r)" % (self.generator, self.terms)


def _numerators(f, order):
    """The kernel: (d, kind, P) for f = F/d with F integral, where
    P[n-1] = (re, im) holds the integer lanes of P_1 = F and
    P_(n+1) = F * dP_n/dx through P_order, im None over Z and Q, and
    kind is the field of f's coefficients as in scalars.to_lanes."""
    d, fr, fi, kind = to_lanes(f.coeffs)
    P = [(fr, fi)]
    for _ in range(order - 1):
        pr, pi = P[-1]
        di = None if pi is None else [j * c for j, c in enumerate(pi)][1:]
        P.append(_mul_lanes((fr, fi), ([j * c for j, c in enumerate(pr)][1:], di)))
    return d, kind, P


def autonomous_sequence(f, order):
    """A_1 = f and A_{n+1} = f * dA_n/dx, through A_order.

    The recursion runs in D[x], D the integers or the Gaussian
    integers: with f = F/d for an integral F, P_1 = F and
    P_(n+1) = F * dP_n/dx stay integral (the kernel _numerators) and
    A_n = P_n / d^n, one division per coefficient, made on the first
    read of the terms.  Every coefficient of A_2 .. A_order, zeros
    included, has the one type of the field of f's coefficients: int
    over Z, Fraction over Q, GaussianRational over Q(i).
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    d, kind, P = _numerators(f, order)
    rows = tuple((d ** n, re, im) for n, (re, im) in enumerate(P, 1))
    return AutonomousSequence._from_numerators((kind, rows), f)


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
            f * ag[n - 1].derivative()
            + g * af[n - 1].derivative()
            + (f + g) * H[-1].derivative()
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


def flow_from_autonomous(aut, basis=None):
    """Flow of aut.generator with basis coefficient n equal to A_n / n!.

    The flow keeps the integer form (P_n, d^n n!) of aut.numerators
    with no division; its coefficients, made on first read, are, zeros
    included, a Fraction over Z and Q and a GaussianRational over Q(i).
    """
    kind, rows = aut.numerators
    fact = 1
    scaled = []
    for n, (den, re, im) in enumerate(rows, 1):
        fact *= n
        scaled.append((den * fact, re, im))
    return Flow._from_numerators((max(kind, 1), tuple(scaled)), basis, True, aut.generator)


def classical_flow(f, order):
    """x + sum A_n(x) t^n / n!, the flow of phi' = f(phi), truncated."""
    return flow_from_autonomous(autonomous_sequence(f, order))


def semiflow(f, order):
    """classical_flow without the base point x."""
    return classical_flow(f, order).minus_base()


def flow_factorize(factors, order):
    """x plus the ring product of the semiflows of the factors: the
    product is the pullback (aut_mul), so this is classical_flow of the
    product of the factors, built once."""
    factors = list(factors)
    if not factors:
        raise ValueError("empty factor list")
    return classical_flow(math.prod(factors[1:], start=factors[0]), order)


# ---------------------------------------------------------------------------
# the flow identities at integer points (see points)

def pde_residual(f, order):
    """d/dt Phi - f(Phi) through t-order N-1; identically zero.

    This is the delta flow equation Q Phi_Q = L[f(Phi)] at Q = d/dt,
    whose basic sequence is the monomials, so that L is the identity
    and Phi_Q = Phi: deltaflow.verify_delta_ode certifies it at integer
    points.
    """
    from .deltaflow import verify_delta_ode
    from .umbral import derivative

    return verify_delta_ode(f, derivative(max(order, 1)), order)


def group_law_residuals(f, order):
    """Coefficient residuals of Phi(t+s, x) = Phi(t, Phi(s, x)).

    Both sides are series in (t, s) whose coefficients are polynomials
    in x, compared through total order N; entry (i, j), listed for
    i = 0..N and j = 0..N-i, is the difference at t^i s^j.  At a point
    x0, in Hurwitz coordinates (the coefficient of t^i s^j / (i! j!))
    and for f = F/d with t scaled by d, the left side is u_(i+j), with
    u the Hurwitz coefficients of the flow of F at x0.  The right side
    is built from f alone by the Taylor recursion of phi' = F(phi)
    started at psi_0 = Phi(s, x0): psi_(i+1) = F(psi)_i by 2-D Hurwitz
    products.  Entry (i, j) is their difference over d^(i+j) i! j!,
    computed at integer points by points._certify.
    """
    from .points import _certify, _integral
    from .series import _hurwitz_composite

    N = order
    rows = autonomous_sequence(f, N).numerators[1]
    d, F, kind = _integral(f)

    def at(F, u):
        # s-index j < N is enough: the i = 0 entries compare Phi(s, x0)
        # with itself
        psi = [u[:N]]
        for value in _hurwitz_composite(F, psi, range(N, 0, -1)):
            psi.append(value)
        out = [0] * (N + 1)
        for i in range(1, N + 1):
            out.extend(u[i + j] - psi[i][j] for j in range(N + 1 - i))
        return out

    fact = math.factorial
    scales = [
        Fraction(1, d ** (i + j) * fact(i) * fact(j)) for i in range(N + 1) for j in range(N + 1 - i)
    ]
    return _certify(at, F, scales, [kind] * len(scales), rows)
