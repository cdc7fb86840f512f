"""Bivariate flow containers: series in t with XSeries coefficients.

TSeries is the workhorse: a polynomial in t, truncated at a fixed
t-order, whose coefficients are XSeries in x; its product is the
convolution series._mul_lists over those coefficients.  Flow is the
structured view used by the dynamical-system layers: a base point x
plus basis coefficients, where the basis is either the monomials t^n or
the basic polynomials q_n(t) of a delta operator, together with the
generator f of the flow when it has one.  Classical flows and delta
flows are both Flows.  A Flow keeps its coefficients as integer rows,
(P_n, d^n n!) for a flow from the kernel, and converts losslessly
between the two bases on those rows, both ways by the integer core
BasicSequence._expand_rows, umbral's one sparse integer matrix kernel
run one power of x at a time: to monomials by the triangular matrix of
the basis, back by that of its umbral inverse.  One holder, _TermRows,
keeps the terms of a Flow or an AutonomousSequence and their integer
rows, each made from the other on first read by _rows_to_terms and
_terms_to_rows.
taylor_compose gives f(W) for a polynomial f and a Flow or TSeries W
by Horner's rule.
"""

from .scalars import from_lanes, to_lanes
from .series import XSeries, _mul_lists

__all__ = ["TSeries", "Flow", "taylor_compose"]


def _rows_to_terms(kind, rows, make=XSeries):
    """make(values) for each row (den, re, im) of an integer form
    (kind, rows): values[j] is from_lanes(re[j], im[j], den, kind)."""
    return tuple(
        make([from_lanes(r, im[j] if im else 0, den, kind) for j, r in enumerate(re)])
        for den, re, im in rows
    )


def _terms_to_rows(lists):
    """The integer form (kind, rows) of some coefficient lists, each row
    read off one list by to_lanes; kind is the field of all the lists."""
    lanes = [to_lanes(v) for v in lists]
    return max((lane[3] for lane in lanes), default=0), tuple(lane[:3] for lane in lanes)


class _TermRows:
    """Terms (XSeries) held as given, as their integer form
    numerators = (kind, rows), or both, each made from the other on
    first read: rows[n-1] = (den, re, im) with term n equal to
    (re + im*i) / den coefficientwise, im None when every imaginary
    part is zero, and kind the field of all the terms as in
    scalars.to_lanes.  A subclass sets its other fields in _set, which
    _from_numerators calls with the arguments after the rows."""

    __slots__ = ("_terms", "_numerators")

    @classmethod
    def _from_numerators(cls, numerators, *args):
        obj = cls.__new__(cls)
        obj._terms, obj._numerators = None, numerators
        obj._set(*args)
        return obj

    def _read_terms(self, head=()):
        # the terms past the given first ones come from the rows
        if self._terms is None:
            kind, rows = self._numerators
            self._terms = head + _rows_to_terms(kind, rows[len(head):])
        return self._terms

    @property
    def numerators(self):
        if self._numerators is None:
            self._numerators = _terms_to_rows([t.coeffs for t in self._terms])
        return self._numerators

    @property
    def order(self):
        return len(self._numerators[1] if self._terms is None else self._terms)


class TSeries:
    """Polynomial in t with XSeries coefficients, truncated at t-order.

    Index = power of t.  Arithmetic truncates at the minimum of the
    operand t-orders; a scalar or XSeries adds to the t^0 coefficient.
    """

    __slots__ = ("coeffs", "order")

    def __init__(self, coeffs, order):
        if order < 0:
            raise ValueError("t-order must be >= 0")
        coeffs = list(coeffs)[: order + 1]
        coeffs += [XSeries.zero()] * (order + 1 - len(coeffs))
        self.coeffs = tuple(coeffs)
        self.order = order

    @classmethod
    def zero(cls, order):
        return cls((), order)

    def coefficient(self, m):
        if m > self.order:
            raise ValueError("coefficient %d beyond t-order %d" % (m, self.order))
        return self.coeffs[m] if m >= 0 else XSeries.zero()

    def truncate(self, order):
        return TSeries(self.coeffs, min(order, self.order))

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.coeffs)

    def __add__(self, other):
        if not isinstance(other, TSeries):  # scalar or XSeries: the t^0 term
            return TSeries((self.coeffs[0] + other,) + self.coeffs[1:], self.order)
        order = min(self.order, other.order)
        return TSeries(
            [self.coeffs[m] + other.coeffs[m] for m in range(order + 1)], order
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TSeries([-c for c in self.coeffs], self.order)

    def __mul__(self, other):
        if isinstance(other, TSeries):
            order = min(self.order, other.order)
            return TSeries(_mul_lists(self.coeffs, other.coeffs, order, XSeries.zero()), order)
        # scalar or XSeries factor
        return TSeries([c * other for c in self.coeffs], self.order)

    __rmul__ = __mul__

    def dt(self):
        """t-derivative; drops the t-order by one."""
        if self.order == 0:
            return TSeries.zero(0)
        return TSeries(
            [(m + 1) * self.coeffs[m + 1] for m in range(self.order)],
            self.order - 1,
        )

    def dx(self):
        """Coefficient-wise x-derivative (same t-order)."""
        return TSeries([c.derivative() for c in self.coeffs], self.order)

    def t_scale(self, a):
        """Substitute t -> a*t: coefficient m picks up a^m."""
        out = []
        power = 1
        for m, c in enumerate(self.coeffs):
            out.append(c * power)
            power = power * a
        return TSeries(out, self.order)

    def evaluate(self, t_value, x_value):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t_value + c.evaluate(x_value)
        return acc

    def __eq__(self, other):
        if not isinstance(other, TSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.order))

    def __repr__(self):
        parts = [
            "(%r)*t^%d" % (c, m)
            for m, c in enumerate(self.coeffs)
            if not c.is_zero
        ]
        return " + ".join(parts) if parts else "0"


class Flow(_TermRows):
    """Base point x plus basis coefficients in t.

    coeffs[n-1] multiplies basis_n(t) for n = 1..N, where the basis is
    t^n when ``basis is None`` (monomial form) and q_n(t) of the given
    BasicSequence otherwise.  ``has_base`` distinguishes flows from
    semiflows (which omit the leading x).  ``generator`` is the f of
    Q Phi = f(Phi) the coefficients were built from (A_n(f)/n!), or
    None for a flow given by its coefficients alone; it survives every
    change of basis.  At t = 0 a flow with base evaluates to x because
    every basis polynomial vanishes there.

    _TermRows, shared with AutonomousSequence, holds the coefficients
    and their integer form numerators: the kernel and to_monomial give
    rows, other flows coefficients.  Equality and hashing compare
    coefficients, so equal flows may hold different denominators.
    """

    __slots__ = ("basis", "has_base", "generator")

    def __init__(self, coeffs, basis=None, has_base=True, generator=None):
        self._terms, self._numerators = tuple(coeffs), None
        self._set(basis, has_base, generator)

    def _set(self, basis, has_base, generator):
        self.basis = basis
        self.has_base = has_base
        self.generator = generator
        if basis is not None and basis.depth < self.order:
            raise ValueError("basis depth is smaller than the flow order")

    @property
    def coeffs(self):
        return self._read_terms()

    def coefficient(self, n):
        """Coefficient multiplying basis_n, 1-indexed."""
        if not 1 <= n <= self.order:
            raise ValueError("basis index out of range")
        return self.coeffs[n - 1]

    def minus_base(self):
        flow = Flow.__new__(Flow)
        flow._terms, flow._numerators = self._terms, self._numerators
        flow._set(self.basis, False, self.generator)
        return flow

    def to_monomial(self):
        """Expand the basis polynomials; lossless (triangular, unit-free).

        Runs BasicSequence._expand_rows on the rows, with a zero row
        for q_0, and keeps the result as rows.
        """
        if self.basis is None:
            return self
        kind, rows = self.numerators
        kind, mono = self.basis._expand_rows(kind, ((1, (), None), *rows))
        return Flow._from_numerators((kind, mono[1:]), None, self.has_base, self.generator)

    def to_basic(self, basis):
        """Inverse conversion, lossless: the integer core of to_monomial
        on the monomial rows, by the matrix of umbral_inverse(basis), as
        t^n = sum_k betahat(k, n) q_k(t) for a basis of its own operator
        (every basis the library makes)."""
        from .umbral import umbral_inverse

        if basis.depth < self.order:
            raise ValueError("basis depth is smaller than the flow order")
        kind, rows = self.to_monomial().numerators
        kind, out = umbral_inverse(basis)._expand_rows(kind, ((1, (), None), *rows))
        return Flow._from_numerators((kind, out[1:]), basis, self.has_base, self.generator)

    def to_tseries(self):
        """Monomial TSeries including the base term (degree = order)."""
        mono = self.to_monomial()
        head = XSeries.x() if self.has_base else XSeries.zero()
        return TSeries((head,) + mono.coeffs, mono.order)

    def evaluate(self, t_value, x_value):
        return self.to_tseries().evaluate(t_value, x_value)

    def __eq__(self, other):
        if not isinstance(other, Flow):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and self.basis == other.basis
            and self.has_base == other.has_base
            and self.generator == other.generator
        )

    def __hash__(self):
        return hash((self.coeffs, self.basis, self.has_base, self.generator))

    def __repr__(self):
        kind = "monomial" if self.basis is None else "basic"
        return "Flow(order=%d, basis=%s, base=%s)" % (
            self.order,
            kind,
            self.has_base,
        )


def taylor_compose(f, w):
    """f(W) by Horner's rule, acc -> acc * W + c over the coefficients
    c of f from the top down, at the t-order of the Flow or TSeries W.
    Exact for any W: centred at x or not, or a semiflow.

    >>> taylor_compose(XSeries((0, 0, 1)), TSeries((XSeries.one(),) * 2, 2))
    (1)*t^0 + (2)*t^1 + (1)*t^2
    """
    ts = w.to_tseries() if isinstance(w, Flow) else w
    acc = TSeries.zero(ts.order)
    for c in reversed(f.coeffs):
        acc = acc * ts + c
    return acc
