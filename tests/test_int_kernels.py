"""The integer kernels against the field-arithmetic loops they replaced.

autonomous_sequence, the flow coefficients and BasicSequence.expand
run on integer lanes and rebuild every coefficient once.  Each must
give the same values as the loops in oracle_utils, over Z, Q and Q(i),
for rational, Gaussian and composed bases and for scalar and XSeries
inputs.  Every coefficient it builds has the one type of the field of
its inputs: int over Z, Fraction over Q, GaussianRational over Q(i).

The operator-series kernels (seq_compose and the shift-invariant apply
of DeltaOp and apply_delta_series) run on integer lanes too, and so
does Rota's recurrence in Hurwitz coordinates, off whose basis
compositional_inverse reads the inverse series.  Each gives every
entry the value that the loops in the scalars' own arithmetic give it,
entry by entry, and every entry, zeros included, the one type of the
field of its inputs: for composition, that of the outer series through
the order and the inner one; for the apply, that of the operator's
nonzero weights and the values; for the inverse, which divides,
GaussianRational when a nonzero Gaussian coefficient enters, else
Fraction.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from deltadyn.autonomous import autonomous_sequence, classical_flow, flow_from_autonomous
from deltadyn.deltaflow import delta_flow
from deltadyn.flows import TSeries
from deltadyn.scalars import GaussianRational
from deltadyn.series import XSeries, compositional_inverse, seq_compose
from deltadyn.umbral import (
    OPERATOR_NAMES,
    DeltaOp,
    _int_apply,
    _int_apply_rows,
    _int_matrix,
    _is_gaussian,
    abel,
    apply_delta_series,
    basic_sequence_from_delta,
    forward,
    operator,
    touchard,
)

from oracle_utils import (
    apply_by_step_table,
    autonomous_by_field_loop,
    basic_sequence_by_field_loop,
    compositional_inverse_by_field_loop,
    expand_by_field_loop,
    flow_coeffs_by_factorial,
    seq_compose_by_field_loop,
)
from strategies import (
    DEPTH,
    FIELDS,
    GAUSSIAN_INTEGERS,
    GAUSSIANS,
    INTS,
    RATIONALS,
    SCALARS,
    bases,
    delta_series,
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


@settings(max_examples=100, deadline=None)
@given(polys(INTS, max_size=4))
@example(XSeries((1, 2)))
@example(XSeries((0, -1, 0, 1)))
def test_the_forward_flow_at_integer_times_stays_in_z_x(f):
    # over the forward difference q_k(t)/k! = C(t, k), so the delta flow
    # at an integer time n is x + sum_k A_k C(n, k): in Z[x] for f in
    # Z[x].  It is the n-th iterate of x + f when f is affine, and for
    # no n >= 2 when f is not, as the iterate then has the larger degree
    # (acceptance criterion 1)
    aut = autonomous_sequence(f, 8)
    flow = delta_flow(f, forward(8), 8)
    X = XSeries.x()
    iterate = X
    for n in range(9):
        at_n = X + sum((aut.term(k) * math.comb(n, k) for k in range(1, n + 1)), XSeries.zero())
        assert all(type(c) is int for c in at_n.coeffs)
        assert flow.evaluate(n, 2) == at_n.evaluate(2)
        if f.degree <= 1 or n <= 2:
            assert (at_n == iterate) == (f.degree <= 1 or n < 2)
            iterate = iterate + f.evaluate(iterate)


# (Q, depth): a random delta series over Z, Q or Q(i), or Abel's at a
# Gaussian alpha, and a depth of 0 to 10 it covers
OPERATORS = st.one_of(
    delta_series(INTS),
    delta_series(RATIONALS),
    delta_series(GAUSSIANS),
    st.builds(
        lambda alpha, depth: (abel(alpha, max(depth, 1)), depth),
        GAUSSIANS.filter(lambda c: c != 0),
        st.integers(0, 10),
    ),
)


def entries(values):
    """(value, type) of each scalar of a list of scalars or XSeries,
    listed by entry, so that equal lists have equal values and types."""
    return [
        [(c, type(c)) for c in v.coeffs] if isinstance(v, XSeries) else (v, type(v))
        for v in values
    ]


def by_entry(values):
    """The scalars of a list of scalars or XSeries, listed by entry."""
    return [list(v.coeffs) if isinstance(v, XSeries) else v for v in values]


def assert_one_type(values, kind):
    """Every scalar of a list of scalars or XSeries, zeros included, is
    exactly of type kind."""
    types = [type(c) for v in values for c in (v.coeffs if isinstance(v, XSeries) else (v,))]
    assert types == [kind] * len(types)


def reciprocal_type(values):
    """The one type of the reciprocal of a series: GaussianRational when
    a nonzero coefficient is one, else Fraction (division leaves Z)."""
    gaussian = any(type(c) is GaussianRational and c != 0 for c in values)
    return GaussianRational if gaussian else Fraction


def nonzero(values):
    return [c for c in values if c != 0]


class Draws:
    """Fixed answers, in order, to the data.draw calls of a test that
    draws from st.data(), for an explicit @example of it."""

    def __init__(self, *values):
        self.values, self.left = values, iter(values)

    def draw(self, strategy):
        return next(self.left)

    def __repr__(self):
        return "Draws%r" % (self.values,)


@settings(max_examples=15, deadline=None)
@given(OPERATORS, OPERATORS, FIELDS, st.integers(0, 10), st.data())
# an outer constant term Fraction(0), which the loop skips and leaves
# the int 0, is the only entry: the field of the inputs is Q
@example((DeltaOp((0, 1)), 0), (DeltaOp((0, 1)), 0), "Q", 0, Draws(Fraction(0)))
def test_seq_compose_matches_field_loop(outer, inner, field, order, data):
    # the outer series takes a constant term of any field
    c0 = data.draw(SCALARS[field])
    coeffs = (c0,) + outer[0].coeffs[1:]
    got = seq_compose(coeffs, inner[0].coeffs, order)
    assert by_entry(got) == by_entry(seq_compose_by_field_loop(coeffs, inner[0].coeffs, order))
    assert_one_type(got, field_type(coeffs[: order + 1], inner[0].coeffs))


@settings(max_examples=15, deadline=None)
@given(OPERATORS, st.integers(0, 10))
# p = u + i u^2: w = 1/(1 + iu) is Gaussian throughout, and so is
# coefficient 1 of the inverse, w_0 = 1
@example((DeltaOp((0, 1, GaussianRational(0, 1))), 2), 2)
# p through order 1 is real, so the inverse is too: the Gaussian p_2 is
# never read
@example((DeltaOp((0, 1, GaussianRational(1))), 2), 1)
def test_compositional_inverse_matches_field_loop(op, order):
    got = compositional_inverse(op[0].coeffs, order)
    assert by_entry(got) == by_entry(compositional_inverse_by_field_loop(op[0].coeffs, order))
    assert type(got[0]) is int
    # w = u/p through order - 1 reads p_1 .. p_order
    assert_one_type(got[1:], reciprocal_type(op[0].coeffs[1 : order + 1]))


@settings(max_examples=15, deadline=None)
@given(OPERATORS, FIELDS, st.data())
# the derivative of 1 + 2t + i t^2 over Z[i]: the real 2 is Gaussian too
@example((DeltaOp((0, 1, 0)), 2), "mixed", Draws(XSeries((1, 2, GaussianRational(1))), [0, 1]))
# a rational operator on an integer polynomial: the field is Q
@example((DeltaOp((0, Fraction(1))), 1), "Z", Draws(XSeries((0, 1)), [0, Fraction(1)]))
def test_apply_to_polynomials_matches_step_table(op, field, data):
    Q, depth = op
    p = data.draw(polys(SCALARS[field], max_size=depth + 2))
    if p.degree <= Q.order:
        want = XSeries(apply_by_step_table(Q.coeffs, p.coeffs, 0))
        got = Q.apply_tpoly(p)
        assert by_entry(got.coeffs) == by_entry(want.coeffs)
        assert_one_type(got.coeffs, field_type(nonzero(Q.coeffs), p.coeffs))
    # a series with a constant term, as the shift operators have
    series = data.draw(st.lists(SCALARS[field], max_size=depth + 2))
    want = XSeries(apply_by_step_table(series, p.coeffs, 0))
    got = apply_delta_series(series, p)
    assert by_entry(got.coeffs) == by_entry(want.coeffs)
    # the apply reads the series through the length of p
    assert_one_type(got.coeffs, field_type(nonzero(series[: len(p.coeffs)]), p.coeffs))


@settings(max_examples=15, deadline=None)
@given(OPERATORS, st.data())
# d/dt of x t, x given as (0, Fraction(1)): its int 0 is a Fraction too
@example((DeltaOp((0, 1)), 0), Draws(1, [XSeries.zero(), XSeries((0, Fraction(1)))]))
# a Gaussian operator on rational values: the field is Q(i)
@example((DeltaOp((0, GaussianRational(1))), 1), Draws(1, [XSeries.zero(), XSeries((Fraction(1, 2),))]))
def test_apply_to_tseries_matches_step_table(op, data):
    # the coefficients of the TSeries mix ints, Fractions and Gaussians
    Q = op[0]
    order = data.draw(st.integers(0, Q.order))
    coeffs = data.draw(st.lists(polys(SCALARS["mixed"], max_size=4), min_size=order + 1, max_size=order + 1))
    w = TSeries(coeffs, order)
    want = apply_by_step_table(Q.coeffs, w.coeffs, XSeries.zero())
    got = Q.apply_tseries(w)
    assert got.order == max(order - 1, 0)
    assert by_entry(got.coeffs) == by_entry(want[: got.order + 1])
    values = [c for xs in w.coeffs for c in xs.coeffs]
    assert_one_type(got.coeffs, field_type(nonzero(Q.coeffs), values))


def test_apply_to_tseries_drops_the_kinds_of_a_cancelled_top():
    # forward has h_1 = h_2 = h_3 = 1, so the t^0 coefficient of Q w is
    # v_1 + v_2 + v_3: G(1) x - x cancels and x/2 brings the x
    # coefficient back; the Gaussian input puts every coefficient, the
    # zero constant term included, in Q(i), however the sum cancels
    v = [XSeries.zero(), XSeries((0, GaussianRational(1))), XSeries((0, -1)), XSeries((0, Fraction(1, 2)))]
    got = forward(3).apply_tseries(TSeries(v, 3)).coefficient(0)
    assert by_entry([got]) == [[0, Fraction(1, 2)]]
    assert by_entry([got]) == by_entry(apply_by_step_table(forward(3).coeffs, v, XSeries.zero())[:1])
    assert [type(c) for c in got.coeffs] == [GaussianRational, GaussianRational]


# The zeros of the three fields, drawn among the coefficients of any field.
ZEROS = st.sampled_from([0, Fraction(0), GaussianRational(0)])


# (Q, depth): the built-in operators, Abel's at a rational or Gaussian
# alpha and random rational or Gaussian delta series, at depths 0 to 24
BASIS_OPERATORS = st.one_of(
    st.builds(
        lambda name, alpha, depth: (operator(name, max(depth, 1), alpha), depth),
        st.sampled_from(OPERATOR_NAMES),
        RATIONALS,
        st.integers(0, 24),
    ),
    st.builds(
        lambda alpha, depth: (abel(alpha, max(depth, 1)), depth),
        GAUSSIANS.filter(lambda c: c != 0),
        st.integers(0, 24),
    ),
    delta_series(RATIONALS, max_depth=24),
    delta_series(GAUSSIANS, max_depth=24),
    delta_series(st.one_of(INTS, ZEROS, GAUSSIANS)),
)


@settings(max_examples=60, deadline=None)
@given(BASIS_OPERATORS)
def test_basis_matches_rota_recurrence_in_field_arithmetic(case):
    # past the cache, which returns one basis for equal operators of
    # different fields, such as derivative() and abel(i)
    Q, depth = case
    got = basic_sequence_from_delta.__wrapped__(Q, depth)
    want = basic_sequence_by_field_loop(Q, depth)
    assert entries(got.polys) == entries(want.polys)


# ---------------------------------------------------------------------------
# the sparse integer matrix kernel of umbral on its own

COMPLEX_ALPHA = GaussianRational(Fraction(2, 3), Fraction(-5, 7))


def exact(x, y, cplx):
    """x + y*i in the field arithmetic: Fraction when real, else
    GaussianRational."""
    return GaussianRational(x, y) if cplx else Fraction(x)


@st.composite
def sparse_matrices(draw, gaussian):
    """(dense, matrix): a random sparse integer matrix as dense rows of
    pairs (x, y) for x + y*i, and in the layout of umbral._int_matrix.
    A Gaussian one has at least one entry with an imaginary part."""
    size = draw(st.integers(1, 7))
    part = st.one_of(st.just(0), st.integers(-50, 50))
    dense = [
        [(draw(part), draw(part) if gaussian else 0) for _ in range(size)] for _ in range(size)
    ]
    if gaussian:
        i, j = draw(st.integers(0, size - 1)), draw(st.integers(0, size - 1))
        dense[i][j] = (dense[i][j][0], draw(st.integers(1, 50)))
    matrix = _int_matrix([[(j, x, y) for j, (x, y) in enumerate(row)] for row in dense])
    return dense, matrix


def assert_layout(dense, matrix, gaussian):
    """matrix lists the nonzero entries of dense in increasing column,
    as (j, x) for a real matrix and (j, x, y, x + y) for a Gaussian one."""
    want = [
        [(j, x, y, x + y) if gaussian else (j, x) for j, (x, y) in enumerate(row) if x or y]
        for row in dense
    ]
    assert matrix == want
    assert _is_gaussian(matrix) == gaussian


@pytest.mark.parametrize("gaussian_lane", [False, True])
@pytest.mark.parametrize("gaussian_matrix", [False, True])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_int_apply_matches_a_double_loop(gaussian_matrix, gaussian_lane, data):
    dense, matrix = data.draw(sparse_matrices(gaussian_matrix))
    assert_layout(dense, matrix, gaussian_matrix)
    # lanes as long as the matrix or shorter
    size = data.draw(st.integers(0, len(dense)))
    re = data.draw(st.lists(st.integers(-10**30, 10**30), min_size=size, max_size=size))
    im = data.draw(st.lists(INTS, min_size=size, max_size=size)) if gaussian_lane else None
    cplx = gaussian_matrix or gaussian_lane
    want = []
    for row in dense:
        acc = exact(0, 0, cplx)
        for j in range(size):
            acc += exact(*row[j], cplx) * exact(re[j], im[j] if im else 0, cplx)
        want.append(acc)
    got_re, got_im = _int_apply(matrix, re, im)
    assert (got_im is None) == (not cplx)
    assert len(got_re) == size and (got_im is None or len(got_im) == size)
    got = [exact(x, got_im[i] if cplx else 0, cplx) for i, x in enumerate(got_re)]
    assert got == want[:size]


@pytest.mark.parametrize("gaussian_matrix", [False, True])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_int_apply_rows_matches_a_double_loop(gaussian_matrix, data):
    dense, matrix = data.draw(sparse_matrices(gaussian_matrix))
    dm, matrix_kind = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 2))
    size = data.draw(st.integers(0, len(dense)))
    rows = []
    for _ in range(size):
        # each row real (im None) or Gaussian on its own, so that real
        # and Gaussian rows mix
        re = data.draw(st.lists(INTS, max_size=4))
        im = data.draw(st.one_of(st.none(), st.lists(INTS, min_size=len(re), max_size=len(re))))
        rows.append((data.draw(st.integers(1, 6)), re, im))
    kind = data.draw(st.integers(0, 2))
    got_kind, got = _int_apply_rows((dm, matrix_kind, matrix), kind, rows)
    assert got_kind == max(kind, matrix_kind)
    width = max((len(re) for _, re, _ in rows), default=0)
    cplx = gaussian_matrix or any(im is not None for _, _, im in rows)
    assert len(got) == size
    for k, (den, re, im) in enumerate(got):
        assert den == dm * math.lcm(*[d for d, _, _ in rows])
        assert len(re) == width and (im is None) == (not cplx)
        assert im is None or len(im) == width
        want = [GaussianRational(0)] * width
        for n, (d, r, i) in enumerate(rows):
            entry = GaussianRational(*dense[k][n]) / dm
            for p, x in enumerate(r):
                want[p] += entry * GaussianRational(Fraction(x, d), Fraction(i[p] if i else 0, d))
        assert [GaussianRational(Fraction(x, den), Fraction(im[p] if im else 0, den))
                for p, x in enumerate(re)] == want


def test_int_apply_rows_mixes_a_real_row_with_gaussian_rows():
    # a Gaussian matrix on a real row after a Gaussian one, and a real
    # matrix on a real row before a Gaussian one: the real row reads as
    # imaginary parts 0
    gaussian = _int_matrix([[(0, 1, 1), (1, 2, 0)], [(1, 1, 0)]])
    kind, rows = _int_apply_rows((1, 2, gaussian), 0, [(1, [1], [1]), (1, [3, 4], None)])
    # row 0: (1 + i)(1 + i) + 2 (3 + 4x), row 1: 3 + 4x
    assert (kind, rows) == (2, [(1, [6, 8], [2, 0]), (1, [3, 4], [0, 0])])
    real = _int_matrix([[(0, 1, 0), (1, 1, 0)], [(1, 2, 0)]])
    assert _int_apply_rows((2, 1, real), 0, [(1, [5], None), (1, [1], [1])]) == (
        1,
        [(2, [6], [1]), (2, [2], [2])],
    )


@pytest.mark.parametrize("depth", [0, 1, 16])
@pytest.mark.parametrize("name", OPERATOR_NAMES)
def test_basis_row_n_holds_n_plus_one_entries(name, depth):
    # a kernel padding each apply to the height of the step matrix
    # would give every row depth + 1 entries, with the same values
    _, rows = basic_sequence_from_delta(operator(name, max(depth, 1)), depth).numerators
    assert [len(re) for _, re, _ in rows] == list(range(1, depth + 2))
    assert all(im is None for _, _, im in rows)


def test_complex_abel_basis_row_n_holds_n_plus_one_entries():
    _, rows = basic_sequence_from_delta(abel(COMPLEX_ALPHA, 16), 16).numerators
    assert [(len(re), len(im)) for _, re, im in rows] == [(n + 1, n + 1) for n in range(17)]
