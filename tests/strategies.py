"""Hypothesis strategies and fixed operator lists shared by the tests.

Scalars come in the three fields the package works over (Z, Q and
Q(i)); polynomials, generators, delta series and whole bases are drawn
from them.
"""

from hypothesis import strategies as st

from deltadyn.scalars import GaussianRational
from deltadyn.series import XSeries
from deltadyn.umbral import (
    DeltaOp,
    abel,
    backward,
    basic_sequence_by_recurrence,
    basic_sequence_from_delta,
    derivative,
    forward,
    touchard,
    umbral_compose,
)

INTS = st.integers(-3, 3)
RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=6)
GAUSSIANS = st.builds(GaussianRational, RATIONALS, RATIONALS)
GAUSSIAN_INTEGERS = st.builds(GaussianRational, INTS, INTS)
# Scalars of one example: one field, or every kind mixed.
SCALARS = {
    "Z": INTS,
    "Q": RATIONALS,
    "Qi": GAUSSIANS,
    "mixed": st.one_of(INTS, RATIONALS, GAUSSIANS),
}
FIELDS = st.sampled_from(sorted(SCALARS))
# The depth of the bases drawn by bases().
DEPTH = 6


def polys(scalars, max_size=5):
    return st.lists(scalars, max_size=max_size).map(XSeries)


@st.composite
def generators(draw):
    return draw(polys(SCALARS[draw(FIELDS)], max_size=4))


@st.composite
def bases(draw):
    """A basis of depth DEPTH: from a random delta series (rational or
    Gaussian), by the degree-by-degree oracle, composed, or Abel's at
    a Gaussian alpha."""
    def delta():
        scalars = SCALARS[draw(st.sampled_from(["Q", "Qi"]))]
        p1 = draw(scalars.filter(lambda c: c != 0))
        rest = draw(st.lists(scalars, min_size=DEPTH - 1, max_size=DEPTH - 1))
        return DeltaOp((0, p1) + tuple(rest))

    route = draw(st.sampled_from(["delta", "recurrence", "composed", "abel"]))
    if route == "delta":
        return basic_sequence_from_delta(delta(), DEPTH)
    if route == "recurrence":
        return basic_sequence_by_recurrence(delta(), DEPTH)
    if route == "composed":
        a, b = (basic_sequence_from_delta(delta(), DEPTH) for _ in range(2))
        return umbral_compose(a, b)
    alpha = draw(GAUSSIANS.filter(lambda c: c != 0))
    return basic_sequence_from_delta(abel(alpha, DEPTH), DEPTH)


@st.composite
def delta_series(draw, scalars=RATIONALS, max_depth=10):
    """(Q, depth): a random delta operator and a depth it covers."""
    depth = draw(st.integers(min_value=0, max_value=max_depth))
    p1 = draw(scalars.filter(lambda c: c != 0))
    rest = draw(st.lists(scalars, min_size=max(depth - 1, 0),
                         max_size=max(depth - 1, 0)))
    return DeltaOp((0, p1) + tuple(rest)), depth


def builtin_ops(order=16):
    return (
        derivative(order),
        forward(order),
        backward(order),
        abel(1, order),
        abel(-1, order),
        touchard(order),
    )
