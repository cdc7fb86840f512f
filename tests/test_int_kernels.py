"""The integer kernels against the field-arithmetic loops they replaced.

autonomous_sequence, the flow coefficients and BasicSequence.expand
run on integer lanes and rebuild every coefficient once.  Each must
give the same values as the loops in oracle_utils, over Z, Q and Q(i),
for rational, Gaussian and composed bases and for scalar and XSeries
inputs.  Every coefficient it builds has the one type of the field of
its inputs: int over Z, Fraction over Q, GaussianRational over Q(i).
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from deltadyn.autonomous import autonomous_sequence, classical_flow, flow_from_autonomous
from deltadyn.deltaflow import delta_flow
from deltadyn.scalars import GaussianRational
from deltadyn.series import XSeries
from deltadyn.umbral import basic_sequence_from_delta, forward, touchard

from oracle_utils import (
    autonomous_by_field_loop,
    expand_by_field_loop,
    flow_coeffs_by_factorial,
)
from strategies import (
    DEPTH,
    FIELDS,
    GAUSSIAN_INTEGERS,
    INTS,
    SCALARS,
    bases,
    generators,
    polys,
)


def field_type(*groups):
    """The one type of the field of some scalars."""
    types = {type(c) for group in groups for c in group}
    if GaussianRational in types:
        return GaussianRational
    return Fraction if Fraction in types else int


def output_types(values):
    """The types of the scalars of a list of scalars or XSeries."""
    return {type(c) for v in values for c in (v.coeffs if isinstance(v, XSeries) else (v,))}


def basis_entries(basis):
    return [b for p in basis.polys for b in p.coeffs]


@settings(max_examples=60, deadline=None)
@given(generators(), st.integers(1, 7))
def test_autonomous_matches_field_loop(f, order):
    got = autonomous_sequence(f, order).terms
    assert got == autonomous_by_field_loop(f, order)
    # A_1 is f itself; every later term is built in f's field
    assert got[0] is f
    assert output_types(got[1:]) <= {field_type(f.coeffs)}


@settings(max_examples=40, deadline=None)
@given(bases(), FIELDS, st.data())
def test_expand_scalars_matches_field_loop(basis, field, data):
    coeffs = data.draw(st.lists(SCALARS[field], max_size=DEPTH + 1))
    got = basis.expand(coeffs)
    assert got == expand_by_field_loop(basis, coeffs)
    assert output_types(got) <= {field_type(basis_entries(basis), coeffs)}


@settings(max_examples=40, deadline=None)
@given(bases(), FIELDS, st.data())
def test_expand_xseries_matches_field_loop(basis, field, data):
    coeffs = data.draw(st.lists(polys(SCALARS[field]), max_size=DEPTH + 1))
    got = basis.expand(coeffs)
    assert got == expand_by_field_loop(basis, coeffs, XSeries.zero())
    inputs = [c for xs in coeffs for c in xs.coeffs]
    assert output_types(got) <= {field_type(basis_entries(basis), inputs)}


@settings(max_examples=30, deadline=None)
@given(bases(), generators())
def test_flow_to_monomial_matches_field_loop(basis, f):
    flow = flow_from_autonomous(autonomous_sequence(f, DEPTH), basis)
    zero = XSeries.zero()
    want = expand_by_field_loop(basis, (zero,) + flow.coeffs, zero)[1:]
    got = flow.to_monomial().coeffs
    assert list(got) == want
    inputs = [c for xs in flow.coeffs for c in xs.coeffs]
    assert output_types(got) <= {field_type(basis_entries(basis), inputs)}


@settings(max_examples=40, deadline=None)
@given(bases(), generators())
def test_flow_coefficients_are_a_n_over_n_factorial(basis, f):
    # the flows read P_n / (d^n n!) straight from the kernel; the oracle
    # multiplies the terms A_n by Fraction(1, n!)
    want = flow_coeffs_by_factorial(autonomous_sequence(f, DEPTH))
    for flow in (delta_flow(f, basis.operator, DEPTH, basis), classical_flow(f, DEPTH)):
        assert flow.coeffs == want
        # one type for every coefficient: the field of f, at least Q
        assert output_types(flow.coeffs) <= {field_type(f.coeffs, [Fraction(0)])}


def test_flow_coefficients_of_a_mixed_generator_are_gaussian():
    # A_1 / 1! of a Q(i) generator with int and Fraction coefficients
    f = XSeries((GaussianRational(1, 1), 0, Fraction(1, 2)))
    first = classical_flow(f, 3).coeffs[0]
    assert first == f
    assert output_types([first]) == {GaussianRational}


def test_expand_keeps_the_field_of_a_sum_that_cancels_at_its_top():
    # q_1 = t, q_2 = t^2 - t: at t^1 a Gaussian 1 and a rational -1
    # cancel, and q_3 = t^3 - 3t^2 + 2t brings the entry back; the
    # Gaussian input puts every output coefficient in Q(i)
    basis = basic_sequence_from_delta(forward(3), 3)
    coeffs = [
        XSeries.zero(),
        XSeries((GaussianRational(1),)),
        XSeries((Fraction(1),)),
        XSeries((Fraction(1), Fraction(5))),
    ]
    got = basis.expand(coeffs)
    assert got == expand_by_field_loop(basis, coeffs, XSeries.zero())
    assert output_types(got) == {GaussianRational}


def test_autonomous_skips_a_coefficient_that_cancels():
    # A_2 = f f' = (ab, 2ac + b^2, 3bc, 2c^2), and 2ac + b^2 cancels to a
    # Gaussian zero: A_3 takes no term from it, so its t^0 entry is zero,
    # a GaussianRational like every coefficient built over Q(i)
    f = XSeries((GaussianRational(Fraction(-1, 2)), 1, 1))
    got = autonomous_sequence(f, 3).terms
    assert got == autonomous_by_field_loop(f, 3)
    assert got[2].coeffs[0] == 0 and type(got[2].coeffs[0]) is GaussianRational
    assert output_types(got[1:]) == {GaussianRational}


def test_kernel_types_follow_the_input_field():
    # an all-int generator stays in Z[x]; Fraction and Gaussian inputs
    # keep their type through the autonomous terms and the monomial form,
    # zeros included (A_1 is the generator itself)
    basis = basic_sequence_from_delta(touchard(8), 8)
    for gen, kind in (
        (XSeries((1, -2, 3)), int),
        (XSeries((Fraction(1, 2), Fraction(-2), Fraction(3, 4))), Fraction),
        (XSeries((GaussianRational(1, 1), Fraction(0), GaussianRational(0, -1))), GaussianRational),
    ):
        aut = autonomous_sequence(gen, 8)
        assert output_types(aut.terms[1:]) == {kind}
        mono = flow_from_autonomous(aut, basis).to_monomial()
        want = GaussianRational if kind is GaussianRational else Fraction
        assert output_types(mono.coeffs) == {want}


@settings(max_examples=40, deadline=None)
@given(st.one_of(polys(INTS), polys(GAUSSIAN_INTEGERS)), st.integers(1, 8))
def test_autonomous_terms_stay_in_the_ring_of_the_generator(f, order):
    # for f in Z[x] or Z[i][x], every A_n = f A_(n-1)' has coefficients
    # in the same ring: no denominators ever appear
    for term in autonomous_sequence(f, order).terms:
        for c in term.coeffs:
            if isinstance(c, GaussianRational):
                assert c.re.denominator == c.im.denominator == 1
            else:
                assert type(c) is int
