"""Floating-point validation of the exponential closed forms.

The exact layers prove coefficient identities; this module checks the
summed statements in binary64.  For an affine generator a x + b the
semiflow has the closed value

    (a x + b)/a * (exp(t * pinv(a)) - 1)

with pinv the compositional inverse of the operator series, evaluated
per operator as log(1+a) (forward), -log(1-a) (backward), W(alpha a)/
alpha (Abel, W the Lambert function) and exp(a)-1 (Touchard).  The
partial sums sum_n a^(n-1)(a x + b) q_n(t)/n! are compared against it.

Convergence windows are per operator: the forward and backward series
converge for |a| < 1, the Touchard series everywhere, and the Abel
series only for |alpha * a| < 1/e (the branch point of W).  Outside
the window the partial sums are not Cauchy and the check raises
SeriesDivergence rather than reporting a meaningless deviation.
"""

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .umbral import basic_sequence_from_delta, operator

__all__ = [
    "NumericConfig",
    "ClosedFormReport",
    "SeriesDivergence",
    "lambert_w",
    "lambert_w_residual",
    "default_lambert_grid",
    "numeric_closed_form_check",
    "CLOSED_FORM_KINDS",
]

CLOSED_FORM_KINDS = ("forward", "backward", "abel", "touchard")


@dataclass(frozen=True)
class NumericConfig:
    """Float tolerances and partial-sum parameters.

    samples lists the (a, t) pairs of the default grid.  depth bounds
    the partial sums; 64 terms push every convergent sample well below
    the tolerance.
    """

    tolerance: float = 1e-9
    depth: int = 64
    samples: tuple = ((0.5, 0.1), (0.25, 0.5))
    lambert_tolerance: float = 1e-12
    lambert_grid: tuple = field(default_factory=lambda: default_lambert_grid())


class SeriesDivergence(ArithmeticError):
    """Partial sums failed to settle within the configured depth."""


def default_lambert_grid():
    """Sample points spanning [-0.3, 10]: a few negatives near the
    branch point plus a logarithmic sweep of the positive axis."""
    negatives = (-0.3, -0.2, -0.1, -0.05, -0.01)
    count = 40
    lo, hi = math.log(1e-3), math.log(10.0)
    positives = tuple(
        math.exp(lo + (hi - lo) * i / (count - 1)) for i in range(count)
    )
    return negatives + (0.0,) + positives


def lambert_w(x, tol=1e-16, max_iter=100):
    """Principal branch of w e^w = x for real x >= -1/e.

    Initial guess: the square-root expansion near the branch point,
    log(x) - log(log(x)) for large x, log1p(x) otherwise; then Halley
    iterations until the step is below tol.
    """
    if x < -1.0 / math.e:
        raise ValueError("lambert_w requires x >= -1/e")
    if x == 0.0:
        return 0.0
    if x > math.e:
        w = math.log(x)
        w -= math.log(w)
    elif x > -0.25:
        w = math.log1p(x)
    else:
        # branch-point series in p = sqrt(2(e x + 1)); the radicand can
        # dip just below zero in float for x at the branch point itself
        p = math.sqrt(max(2.0 * (math.e * x + 1.0), 0.0))
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    for _ in range(max_iter):
        ew = math.exp(w)
        err = w * ew - x
        if err == 0.0:
            break
        w1 = w + 1.0
        if w1 == 0.0:
            w += 1e-9  # step off the branch point and retry
            continue
        dw = err / (ew * w1 - (w + 2.0) * err / (2.0 * w1))
        w -= dw
        if abs(dw) < tol * (2.0 + abs(w)):
            break
    return w


def lambert_w_residual(x):
    """|w e^w - x| at the computed w."""
    w = lambert_w(x)
    return abs(w * math.exp(w) - x)


def _inverse_at(kind, a, alpha):
    if kind == "forward":
        return math.log1p(a)
    if kind == "backward":
        return -math.log1p(-a)
    if kind == "touchard":
        return math.expm1(a)
    if kind == "abel":
        return lambert_w(alpha * a) / alpha
    raise ValueError("unknown kind %r" % kind)


@dataclass(frozen=True)
class ClosedFormReport:
    kind: str
    a: float
    t: float
    partial_sum: float
    closed_form: float
    deviation: float
    terms: int


def numeric_closed_form_check(kind, a, t, b=0.0, x=1.0, alpha=1.0, config=None):
    """Compare float partial sums against the exponential closed form.

    Sums a^(n-1) (a x + b) q_n(t) / n! over the exact basic polynomials
    of the operator and compares with (a x + b)/a (exp(t pinv(a)) - 1).
    Raises SeriesDivergence when the tail of the partial sums is still
    moving at the configured depth.
    """
    if config is None:
        config = NumericConfig()
    if a == 0.0:
        return ClosedFormReport(kind, a, t, 0.0, 0.0, 0.0, 0)
    if kind not in CLOSED_FORM_KINDS:
        raise ValueError("unknown kind %r" % kind)
    basis = basic_sequence_from_delta(
        operator(kind, config.depth, Fraction(alpha)), config.depth
    )
    prefactor = a * x + b
    total = 0.0
    terms = []
    an = 1.0  # a^(n-1)
    for n in range(1, config.depth + 1):
        qn = _float_eval(basis.poly(n), t)
        term = an * prefactor * qn / math.factorial(n)
        total += term
        terms.append(abs(term))
        an *= a
    _check_cauchy(terms, config)
    closed = prefactor / a * math.expm1(t * _inverse_at(kind, a, alpha))
    return ClosedFormReport(
        kind, a, t, total, closed, abs(total - closed), len(terms)
    )


def _float_eval(poly, t):
    acc = 0.0
    for c in reversed(poly.coeffs):
        acc = acc * t + float(c)
    return acc


def _check_cauchy(terms, config):
    depth = len(terms)
    tail = terms[-1]
    mid = terms[max(0, depth // 2 - 1)]
    if tail > config.tolerance and tail >= mid:
        raise SeriesDivergence(
            "partial sums not Cauchy within depth %d (last term %.3e)"
            % (depth, tail)
        )
