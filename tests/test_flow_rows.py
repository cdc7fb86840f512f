"""Flows kept as integer rows, against flows given by coefficients and
against the Fraction route the rows replaced.

delta_flow keeps the integer form (P_n, d^n n!) of its coefficients,
and to_monomial runs the integer core of BasicSequence.expand on those
rows.  A flow built from the same coefficients reads its rows off them
with to_lanes, and oracle_utils.flow_by_fractions divides every
coefficient out first and expands the scalars.  All three agree in
value and in the type of every coefficient, over Z, Q and Q(i) and for
the five built-in operators, Abel's at a rational and at a Gaussian
alpha among them; equal flows hash alike whatever denominators they
hold.  AutonomousSequence keeps its terms and rows in the same holder,
so one from the kernel and one given by its terms agree in the same
way.  The flow command prints the same strings as format_scalar of
the coefficients.  to_basic, the same integer core run with the matrix
of the umbral inverse of the basis, agrees with back substitution
against beta (oracle_utils.to_basic_by_triangular_solve) in value and
type, with no Fraction arithmetic.
"""

import contextlib
import io
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from deltadyn import cli
from deltadyn.autonomous import AutonomousSequence, autonomous_sequence
from deltadyn.deltaflow import delta_flow
from deltadyn.flows import Flow, TSeries
from deltadyn.scalars import _ZEROS, GaussianRational, _kind, format_scalar
from deltadyn.series import XSeries
from deltadyn.umbral import (
    OPERATOR_NAMES,
    basic_sequence_from_delta,
    forward,
    operator,
    touchard,
    umbral_compose,
)

from oracle_utils import (
    autonomous_by_field_loop,
    expand_by_field_loop,
    flow_by_fractions,
    to_basic_by_triangular_solve,
)
from strategies import DEPTH, GAUSSIANS, INTS, RATIONALS, bases

FIELDS = {"Z": INTS, "Q": RATIONALS, "Qi": GAUSSIANS}
NONZERO_RATIONALS = RATIONALS.filter(lambda c: c != 0)
# A Gaussian alpha with an imaginary part gives a complex basis.
COMPLEX_ALPHAS = st.builds(GaussianRational, RATIONALS, NONZERO_RATIONALS)


@st.composite
def flow_cases(draw, max_order=12):
    """(field, f, name, alpha, order): f of degree <= 3 over one field,
    a built-in operator, Abel's at a rational or a complex alpha."""
    field = draw(st.sampled_from(sorted(FIELDS)))
    f = XSeries(draw(st.lists(FIELDS[field], max_size=4)))
    name = draw(st.sampled_from(OPERATOR_NAMES))
    alpha = draw(st.one_of(NONZERO_RATIONALS, COMPLEX_ALPHAS)) if name == "abel" else 1
    return field, f, name, alpha, draw(st.integers(1, max_order))


def row_values(numerators):
    """The values (re + im*i) / den of an integer form, row by row."""
    _, rows = numerators
    return [
        XSeries([GaussianRational(Fraction(r, den), Fraction(im[j] if im else 0, den))
                 for j, r in enumerate(re)])
        for den, re, im in rows
    ]


def types(coeffs):
    return [[type(c) for c in xs.coeffs] for xs in coeffs]


def assert_same(got, want):
    """Equal coefficients, each of the same type."""
    assert tuple(got) == tuple(want)
    assert types(got) == types(want)


@settings(max_examples=50, deadline=None)
@given(flow_cases())
def test_rows_agree_with_coefficients_and_the_fraction_route(case):
    _, f, name, alpha, order = case
    # the autonomous sequences share the holder of terms and rows with
    # the flows: one from the kernel and one given by its terms
    kernel = autonomous_sequence(f, order)
    given_aut = AutonomousSequence(f, autonomous_by_field_loop(f, order))
    assert kernel.order == given_aut.order == order
    assert row_values(kernel.numerators) == row_values(given_aut.numerators)
    assert kernel == given_aut and hash(kernel) == hash(given_aut)

    rows = delta_flow(f, operator(name, order, alpha), order)
    basis = rows.basis
    coeffs, mono = flow_by_fractions(autonomous_sequence(f, order), basis)
    given_ = Flow(coeffs, basis, True, f)
    assert row_values(rows.numerators) == row_values(given_.numerators)

    for flow in (rows, given_):
        assert flow.order == order
        assert_same(flow.coeffs, coeffs)
        assert [flow.coefficient(n) for n in range(1, order + 1)] == list(coeffs)
    assert rows == given_ and hash(rows) == hash(given_)
    assert rows.minus_base() == given_.minus_base()
    assert hash(rows.minus_base()) == hash(given_.minus_base())

    zero = XSeries.zero()
    assert list(mono) == expand_by_field_loop(basis, (zero,) + coeffs, zero)[1:]
    oracle = Flow(mono, None, True, f)
    for flow in (rows, given_):
        m = flow.to_monomial()
        assert_same(m.coeffs, mono)
        assert m == oracle and hash(m) == hash(oracle)
        assert m.basis is None and m.has_base and m.generator is f
        assert flow.to_tseries() == TSeries((XSeries.x(),) + mono, order)
    back = rows.to_monomial().to_basic(basis)
    assert back == rows and hash(back) == hash(rows)
    assert_same(back.coeffs, oracle.to_basic(basis).coeffs)
    t, x = Fraction(1, 2), GaussianRational(Fraction(2, 3), -1)
    assert rows.evaluate(t, x) == oracle.evaluate(t, x)


@settings(max_examples=25, deadline=None)
@given(flow_cases(max_order=8), st.sampled_from(("json", "csv")))
def test_flow_command_prints_format_scalar_of_the_coefficients(case, fmt):
    # every entry, the trailing zeros trimmed and the ["0"] rows included
    field, f, name, alpha, order = case
    complex_ = field == "Qi" or isinstance(alpha, GaussianRational)
    argv = [
        "flow", "--f=" + (",".join(map(format_scalar, f.coeffs)) or "0"),
        "--op", name, "--alpha=" + format_scalar(alpha), "--order", str(order),
        "--field", "Qi" if complex_ else "Q", "--format", fmt,
    ]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.cli_main(argv) == 0
    flow = delta_flow(f, operator(name, order, alpha), order)
    want = {}
    for label, coeffs in (("basic", flow.coeffs), ("monomial", flow.to_monomial().coeffs)):
        want[label] = [["0"]] + [[format_scalar(c) for c in xs.coeffs] or ["0"] for xs in coeffs]
    if fmt == "json":
        payload = json.loads(out.getvalue())
        assert (payload["basic"], payload["monomial"]) == (want["basic"], want["monomial"])
    else:
        lines = [",".join([label, str(n)] + row) for label in want for n, row in enumerate(want[label])]
        assert out.getvalue() == "\n".join(lines) + "\n"


@st.composite
def to_basic_cases(draw):
    """(flow, basis): a flow of flow_cases, of order <= DEPTH, over its
    own basis or in monomial form, with or without its base; and a basis
    of depth >= its order: a built-in one (Abel's at a rational or a
    complex alpha), the umbral composite of two, or one of bases()."""
    _, f, name, alpha, order = draw(flow_cases(max_order=DEPTH))
    flow = delta_flow(f, operator(name, order, alpha), order)
    if draw(st.booleans()):
        flow = flow.to_monomial()
    if draw(st.booleans()):
        flow = flow.minus_base()
    route = draw(st.sampled_from(["builtin", "composed", "random"]))
    if route == "random":
        return flow, draw(bases())
    depth = draw(st.integers(order, order + 3))

    def builtin():
        name = draw(st.sampled_from(OPERATOR_NAMES))
        alpha = draw(st.one_of(NONZERO_RATIONALS, COMPLEX_ALPHAS)) if name == "abel" else 1
        return basic_sequence_from_delta(operator(name, depth, alpha), depth)

    basis = builtin()
    return flow, umbral_compose(basis, builtin()) if route == "composed" else basis


@settings(max_examples=60, deadline=None)
@given(to_basic_cases())
def test_to_basic_agrees_with_the_triangular_solve(case):
    flow, basis = case
    got = flow.to_basic(basis)
    want = to_basic_by_triangular_solve(flow, basis)
    assert got == want and hash(got) == hash(want)
    assert_same(got.coeffs, want.coeffs)
    # every coefficient has the one type of the field of the flow, its
    # basis if it has one, and the new basis
    over = (flow.basis.polys if flow.basis else ()) + basis.polys
    values = [c for xs in flow.coeffs + over for c in xs.coeffs]
    assert {type(c) for xs in got.coeffs for c in xs.coeffs} <= {type(_ZEROS[_kind(values)])}
    assert got.to_monomial() == flow.to_monomial()


def test_to_basic_refuses_a_basis_shallower_than_the_flow():
    flow = delta_flow(XSeries((0, 1, -1)), forward(6), 6)
    shallow = basic_sequence_from_delta(touchard(5), 5)
    for given_ in (flow, flow.to_monomial()):
        with pytest.raises(ValueError, match="basis depth is smaller than the flow order"):
            given_.to_basic(shallow)


def test_to_basic_runs_without_fraction_arithmetic(monkeypatch):
    # a forward flow at order 10 onto Abel's basis at 2/3 and Touchard's,
    # the bases of their umbral inverses built with Fraction arithmetic
    # patched to fail
    flow = delta_flow(XSeries((Fraction(1, 2), 1, Fraction(-2, 3))), forward(10), 10).to_monomial()
    targets = [basic_sequence_from_delta(operator(name, 10, Fraction(2, 3)), 10) for name in ("abel", "touchard")]
    want = [to_basic_by_triangular_solve(flow, basis) for basis in targets]
    basic_sequence_from_delta.cache_clear()

    def fails(*args):
        raise AssertionError("Fraction arithmetic in to_basic")

    for method in ("add", "sub", "mul", "truediv"):
        monkeypatch.setattr(Fraction, "__%s__" % method, fails)
        monkeypatch.setattr(Fraction, "__r%s__" % method, fails)
    got = [flow.to_basic(basis) for basis in targets]
    coeffs = [g.coeffs for g in got]
    monkeypatch.undo()
    assert basic_sequence_from_delta.cache_info().misses == 2
    for c, w in zip(coeffs, want):
        assert_same(c, w.coeffs)
