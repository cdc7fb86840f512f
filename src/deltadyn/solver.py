"""Closed forms and brute-force oracles for first-order difference maps.

A problem y_{n+1} = g(y_n) is rewritten as a forward difference system
with generator f = g - x.  iterate() is the exact brute-force oracle;
solve_forward() evaluates the umbral closed form

    x + sum_k A_k(f)(x) C(n, k)

which terminates for integer n.  The closed form reproduces affine
maps and every polynomial fixed point exactly; for nonlinear maps away
from fixed points the umbral solution and the pointwise orbit are
different objects (the flow equation holds in the transported ring,
not composition by composition), and IterateTable reports the
disagreement honestly.  See also backward_relation_check and
abel_scaling_check for the exact coefficient identities tying the
forward, backward and Abel flows together.
"""

import json
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import comb

from .autonomous import aut_scale, autonomous_sequence, flow_from_autonomous
from .deltaflow import delta_flow, poly_flow_product
from .scalars import GaussianRational, digits_over, parse_scalar, rational_sqrt
from .series import XSeries
from .umbral import abel, backward, basic_sequence_from_delta, forward

__all__ = [
    "IterateTable",
    "DigitLimitError",
    "iterate",
    "solve_forward",
    "iterate_table",
    "solve_logistic",
    "solve_quadratic_map",
    "backward_relation_check",
    "abel_scaling_check",
    "load_corpus",
    "corpus_map",
]


@dataclass(frozen=True)
class IterateTable:
    """Rows (n, closed, iterated, equal) for a difference problem."""

    rows: tuple

    @property
    def all_equal(self):
        return all(r[3] for r in self.rows)


class DigitLimitError(ValueError):
    """A value of an orbit or closed form is longer than the digit cap."""


def _check_digits(value, n, max_digits):
    if max_digits is not None and digits_over(value, max_digits):
        raise DigitLimitError(
            "the value at n = %d has more than %d decimal digits" % (n, max_digits)
        )


def iterate(g, x0, n, max_digits=None):
    """The orbit y_0 .. y_n of y_{k+1} = g(y_k), exactly.

    With max_digits, stop with DigitLimitError at the first value
    holding an integer (numerator or denominator of a part) of more
    decimal digits; the orbit is not computed past it.
    """
    ys = [x0]
    _check_digits(x0, 0, max_digits)
    for k in range(1, n + 1):
        ys.append(g.evaluate(ys[-1]))
        _check_digits(ys[-1], k, max_digits)
    return tuple(ys)


def _closed_form(x0, values, n):
    """x0 + sum_(k <= n) values[k-1] C(n, k), values[k-1] = A_k(x0)."""
    acc = x0
    for k in range(1, n + 1):
        acc = acc + values[k - 1] * comb(n, k)
    return acc


def solve_forward(g, x0, n):
    """Evaluate the forward closed form x0 + sum_k A_k(x0) C(n, k).

    The binomial coefficients vanish for k > n, so the sum is finite
    and exact.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    aut = autonomous_sequence(g - XSeries.x(), max(n, 1))
    return _closed_form(x0, [aut.term(k).evaluate(x0) for k in range(1, n + 1)], n)


def iterate_table(g, x0, n_max, max_digits=None):
    """Closed form against the iteration oracle, row by row.

    Each A_k(x0) is evaluated once and shared by every row.  With
    max_digits, a value of either column past the cap raises
    DigitLimitError (see iterate).
    """
    aut = autonomous_sequence(g - XSeries.x(), max(n_max, 1))
    orbit = iterate(g, x0, n_max, max_digits)
    values = [aut.term(k).evaluate(x0) for k in range(1, n_max + 1)]
    rows = []
    for n in range(n_max + 1):
        closed = _closed_form(x0, values, n)
        _check_digits(closed, n, max_digits)
        rows.append((n, closed, orbit[n], closed == orbit[n]))
    return IterateTable(tuple(rows))


def logistic_map(mu):
    """g(x) = mu x (1 - x)."""
    return XSeries((0, mu, -mu))


def logistic_factors(mu):
    """Affine factors of the generator f = -x (mu x - (mu - 1))."""
    return [(-1, 0), (mu, 1 - mu)]


def solve_logistic(mu, x0, n):
    """Logistic value at time n through the factored semiflow product.

    Builds the forward flow from the two affine factors of the
    generator and evaluates at integer time; the zeros of the
    generator (0 and (mu-1)/mu) are preserved exactly.
    """
    if mu == 0:
        raise ValueError("mu must be nonzero")
    order = max(n, 1)
    Q = forward(order)
    psi = poly_flow_product(logistic_factors(mu), Q, order)
    return x0 + psi.evaluate(n, x0)


def quadratic_map(c):
    """g(z) = z^2 + c."""
    return XSeries((c, 0, 1))


def quadratic_alpha(c):
    """Root alpha of x^2 - x + c inside Q(i), when representable.

    Requires 4c - 1 to be a perfect rational square, so that
    alpha = (1 + sqrt(4c-1) i)/2 lies in Q(i); returns None otherwise.
    """
    if isinstance(c, GaussianRational):
        if not c.is_real:
            return None
        c = c.re
    root = rational_sqrt(4 * Fraction(c) - 1)
    if root is None:
        return None
    return GaussianRational(Fraction(1, 2), root / 2)


def solve_quadratic_map(c, z0, n):
    """Value z_n of z_{k+1} = z_k^2 + c through the factored flow.

    Uses the conjugate affine factorization of x^2 - x + c over Q(i)
    when the root is representable; otherwise falls back to the
    unfactored forward closed form.
    """
    alpha = quadratic_alpha(c)
    if alpha is None:
        return solve_forward(quadratic_map(c), z0, n)
    order = max(n, 1)
    Q = forward(order)
    psi = poly_flow_product([(1, -alpha), (1, -alpha.conjugate())], Q, order)
    return z0 + psi.evaluate(n, z0)


def backward_relation_check(f, order):
    """Residual of Phi_bwd(t, x, f) = Phi_fwd(-t, x, -f).

    Both sides are expanded to monomial form: the left over rising
    factorials, the right by scaling the generator sequence by -1 and
    substituting t -> -t.  The difference vanishes identically.

    Rising factorials do not vanish at large integer arguments, so a
    backward flow has no finite integer-time evaluation; this
    coefficient identity (and numerical partial sums) is how it is
    validated.
    """
    lhs = delta_flow(f, backward(order), order).to_tseries()
    aut = aut_scale(-1, autonomous_sequence(f, order))
    fwd_basis = basic_sequence_from_delta(forward(order), order)
    rhs = flow_from_autonomous(aut, fwd_basis).to_tseries().t_scale(-1)
    return lhs - rhs


def abel_scaling_check(alpha, a, f, order):
    """Residual of Phi_Abel(alpha)(t, x, a f) = Phi_Abel(a alpha)(a t, x, f).

    Scaling the generator sequence by a on the left matches rescaling
    both time and the Abel parameter on the right; the monomial
    expansions agree exactly.
    """
    aut = aut_scale(a, autonomous_sequence(f, order))
    lhs_basis = basic_sequence_from_delta(abel(alpha, order), order)
    lhs = flow_from_autonomous(aut, lhs_basis).to_tseries()
    rhs = delta_flow(f, abel(a * alpha, order), order).to_tseries().t_scale(a)
    return lhs - rhs


# ---------------------------------------------------------------------------
# the fixed corpus of test maps

def load_corpus():
    """The corpus of difference maps shipped with the package."""
    text = resources.files("deltadyn").joinpath("corpus.json").read_text()
    entries = json.loads(text)["maps"]
    return [_parse_entry(e) for e in entries]


def _parse_entry(entry):
    field = entry.get("field", "Q")
    kind = entry["kind"]
    if kind == "poly":
        g = XSeries([parse_scalar(c, field) for c in entry["g"]])
    elif kind == "logistic":
        g = logistic_map(parse_scalar(entry["mu"], field))
    elif kind == "quadratic":
        g = quadratic_map(parse_scalar(entry["c"], field))
    else:
        raise ValueError("unknown corpus kind %r" % kind)
    return {
        "name": entry["name"],
        "kind": kind,
        "field": field,
        "g": g,
        "params": {
            k: entry[k] for k in ("mu", "c") if k in entry
        },
    }


def corpus_map(name):
    for entry in load_corpus():
        if entry["name"] == name:
            return entry
    raise KeyError("no corpus map named %r" % name)
