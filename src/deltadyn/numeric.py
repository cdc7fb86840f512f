"""Floating-point validation of the exponential closed forms.

The exact layers prove coefficient identities; this module checks the
summed statements in binary64.  The basic sequence (q_n) of a delta
operator has the generating function

    sum_(n >= 1) a^n q_n(t) / n!  =  exp(t * pinv(a)) - 1,

the semiflow of the generator a x at x = 1, where pinv is the
compositional inverse of the operator series: log(1+a) (forward),
-log(1-a) (backward), W(alpha a)/alpha (Abel, W the Lambert function)
and exp(a)-1 (Touchard).  _PINV holds these closed forms, keyed by the
names of the operator table in umbral.  Each term of the partial sum is
computed exactly and rounded once (see numeric_closed_form_check for
the error bound).

Convergence windows are per operator: the forward and backward series
converge for |a| < 1, the Touchard series everywhere, and the Abel
series only for |alpha * a| < 1/e (the branch point of W).  Outside
the window the partial sums are not Cauchy and the check raises
SeriesDivergence rather than reporting a meaningless deviation.
"""

import math
from fractions import Fraction

from .umbral import _Record, basic_sequence_from_delta, operator

__all__ = [
    "NumericConfig",
    "ClosedFormReport",
    "SeriesDivergence",
    "lambert_w",
    "lambert_w_residual",
    "default_lambert_grid",
    "numeric_closed_form_check",
    "CLOSED_FORM_KINDS",
    "SAMPLES",
    "LAMBERT_TOLERANCE",
]

# pinv(a) in closed form for each operator that has one in floats.
_PINV = {
    "forward": lambda a, alpha: math.log1p(a),
    "backward": lambda a, alpha: -math.log1p(-a),
    "abel": lambda a, alpha: lambert_w(alpha * a) / alpha,
    "touchard": lambda a, alpha: math.expm1(a),
}

CLOSED_FORM_KINDS = tuple(_PINV)

# The (a, t) pairs of the default grid, and the bound on the Lambert W
# residual over default_lambert_grid().
SAMPLES = ((0.5, 0.1), (0.25, 0.5))
LAMBERT_TOLERANCE = 1e-12


class NumericConfig(_Record):
    """Float tolerance and partial-sum depth.

    depth bounds the partial sums; 64 terms push every convergent
    sample well below the tolerance.
    """

    _fields = ("tolerance", "depth")

    def __init__(self, tolerance=1e-9, depth=64):
        vars(self).update(tolerance=tolerance, depth=depth)


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


def lambert_w(x):
    """Principal branch of w e^w = x for real x >= -1/e.

    Initial guess: the square-root expansion near the branch point,
    log(x) - log(log(x)) for large x, log1p(x) otherwise; then at most
    100 Halley iterations, until the step is below 1e-16 (2 + |w|).
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
    for _ in range(100):
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
        if abs(dw) < 1e-16 * (2.0 + abs(w)):
            break
    return w


def lambert_w_residual(x):
    """|w e^w - x| at the computed w."""
    w = lambert_w(x)
    return abs(w * math.exp(w) - x)


class ClosedFormReport(_Record):
    _fields = ("kind", "a", "t", "partial_sum", "closed_form", "deviation", "terms")

    def __init__(self, kind, a, t, partial_sum, closed_form, deviation, terms):
        vars(self).update(
            kind=kind, a=a, t=t, partial_sum=partial_sum,
            closed_form=closed_form, deviation=deviation, terms=terms,
        )


def numeric_closed_form_check(kind, a, t, alpha=1.0, config=None):
    """Compare float partial sums against the exponential closed form.

    Sums a^n q_n(t) / n! for n = 1 .. depth over the exact basic
    polynomials of the operator and compares with exp(t pinv(a)) - 1.
    Each term is computed exactly from the binary64 values of a, t and
    alpha and rounded once, and the partial sum takes depth float
    additions, so it is within gamma_depth * sum_n |term_n| of the
    exact partial sum, where gamma_m = m u / (1 - m u) and u = 2^-53.
    The closed form carries its own rounding error of a few units in
    the last place of exp.  Raises SeriesDivergence when the tail of
    the partial sums is still moving at the configured depth.
    """
    if config is None:
        config = NumericConfig()
    if kind not in _PINV:
        raise ValueError("unknown kind %r" % kind)
    if a == 0.0:
        return ClosedFormReport(kind, a, t, 0.0, 0.0, 0.0, 0)
    basis = basic_sequence_from_delta(
        operator(kind, config.depth, Fraction(alpha)), config.depth
    )
    # q_n(T/S) = (sum_k beta_k T^k S^(n-k)) / (db S^n) by Horner's rule
    # on the integer row (db, beta) of q_n, and a^n / n! = A^n / (B^n n!):
    # each term is one exact integer quotient, rounded once
    A, B = Fraction(a).as_integer_ratio()
    T, S = Fraction(t).as_integer_ratio()
    _, rows = basis.numerators
    total = 0.0
    terms = []
    num, den = 1, 1
    for n in range(1, config.depth + 1):
        num, den = num * A, den * B * n
        db, beta, _ = rows[n]
        acc, scale = 0, 1
        for c in reversed(beta):
            acc, scale = acc * T + c * scale, scale * S
        term = num * acc / (den * db * scale // S)
        total += term
        terms.append(abs(term))
    _check_cauchy(terms, config)
    closed = math.expm1(t * _PINV[kind](a, alpha))
    return ClosedFormReport(
        kind, a, t, total, closed, abs(total - closed), len(terms)
    )


def _check_cauchy(terms, config):
    # A single term has no earlier term to be compared with.
    depth = len(terms)
    tail = terms[-1]
    mid = terms[max(0, depth // 2 - 1)]
    if depth > 1 and tail > config.tolerance and tail >= mid:
        raise SeriesDivergence(
            "partial sums not Cauchy within depth %d (last term %.3e)"
            % (depth, tail)
        )
