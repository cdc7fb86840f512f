"""Delta operators, basic polynomial sequences and umbral composition.

A delta operator is a shift-invariant operator Q = p(d/dt) whose
series p has p(0) = 0 and p'(0) != 0.  Each one owns a basic sequence
(q_n): polynomials with q_0 = 1, q_n(0) = 0 and Q q_n = n q_{n-1},
necessarily of binomial type.  The sequence is built by Rota's
recurrence

    q_(n+1)(t)  =  t * r(d/dt) q_n(t),    r = 1/p',

one series reciprocal and then one shift-invariant apply per degree.
Both run on integers in Hurwitz coordinates, over Q and Q(i) alike:
the reciprocal of p' in the Hurwitz ring (series._hurwitz_reciprocal)
gives the integer weights of the apply, on Z or Z[i], and the basis
keeps one integer row per polynomial, from which its scalars are made
on first read.  The same family is described by the exponential
generating identity

    sum_n q_n(t) u^n / n!  =  exp(t * pinv(u)),

where pinv is the compositional inverse of p, so the coefficient of
t^k in q_n is (n!/k!) [u^n] pinv(u)^k; the tests check the recurrence
against it.  A slower route that solves Q q_n = n q_{n-1} degree by
degree is kept as an independent check.

Built-in operators: the derivative itself, the forward difference
exp(d)-1 (falling factorials), the backward difference 1-exp(-d)
(rising factorials), the Abel operator d*exp(alpha d) (polynomials
t(t - n alpha)^(n-1)) and the Touchard operator log(1+d) (Stirling
set polynomials).  They live in one table, _SERIES, which gives the
coefficient p_k of each series by name; operator(name, order, alpha)
reads it, and derivative(), forward(), ... are calls of operator.

Two kernels carry the linear algebra.  The shift-invariant apply
sum_k p_k d^k takes t^(m+k) to h_k C(m+k, k) t^m, where h_k = k! p_k
are the Hurwitz weights of the series, reading a step table built once
per series, on integers over one denominator (DeltaOp._int_steps).  It
serves every operator, on polynomials and in the t variable of a
TSeries (one division per output coefficient, _lanes_apply), on the
integer point values of deltaflow.verify_delta_ode, and each step of
Rota's recurrence is one such apply (of the Hurwitz weights of 1/p')
followed by a product with t.
BasicSequence.expand maps coordinates over
(q_n) to monomial ones through the triangular matrix beta(k, n).  Its
integer core, BasicSequence._expand_rows, takes integer rows with one
denominator each and returns rows over their common denominator times
that of beta, read from the rows of the basis with real and imaginary
lanes.
flows.Flow.to_monomial runs the core on the rows of a flow, and
Flow.to_basic runs it with the basis of the umbral inverse; expand, for
the umbral operators, reads its scalars into rows and its results out
of them with the helpers of the one holder of terms and rows
(flows._TermRows), dividing once per output coefficient.

Basic sequences compose umbrally (substitute one family into the
monomial expansion of another) and form a group; the attached
operators compose the opposite way, f(delta) then g(delta) giving
f(g(delta)).
"""

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .flows import TSeries, _rows_to_terms, _terms_to_rows, _TermRows
from .scalars import _kind, _kinds, from_lanes, to_lanes
from .series import (
    XSeries,
    _hurwitz_reciprocal,
    compositional_inverse,
    invert_scalar,
    seq_compose,
)

__all__ = [
    "DeltaOp",
    "BasicSequence",
    "UmbralOperator",
    "derivative",
    "forward",
    "backward",
    "abel",
    "touchard",
    "OPERATOR_NAMES",
    "operator",
    "DEFAULT_DEPTH",
    "basic_sequence_from_delta",
    "basic_sequence_by_recurrence",
    "monomial_basis",
    "apply_delta_series",
    "umbral_compose",
    "umbral_inverse",
    "first_expansion",
    "expansion_to_delta_series",
    "shift_operator",
    "stirling2",
    "signed_stirling1",
]

DEFAULT_DEPTH = 16


@dataclass(frozen=True)
class DeltaOp:
    """A delta operator as ordinary coefficients of p(d/dt).

    coeffs[k] multiplies the k-th derivative; p0 must vanish and p1
    must be invertible.  The series is stored through a finite order,
    which bounds the polynomial degree the operator can act on.  The
    tag is descriptive only and does not take part in equality; kinds,
    the field of each nonzero coefficient (scalars._kinds), does, so
    equal series of two fields do not share a cached basis.
    """

    coeffs: tuple
    tag: str = field(default="custom", compare=False)
    kinds: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "kinds", _kinds([c if c != 0 else 0 for c in self.coeffs]))
        if len(self.coeffs) < 2:
            raise ValueError("delta operator needs at least order 1")
        if self.coeffs[0] != 0:
            raise ValueError("delta operator must annihilate constants (p0 = 0)")
        if self.coeffs[1] == 0:
            raise ValueError("delta operator needs p1 != 0")

    @property
    def order(self):
        return len(self.coeffs) - 1

    @functools.cached_property
    def _int_steps(self):
        """The step table over one denominator for inputs of degree <=
        order (see _int_step_table)."""
        return _int_step_table(self.coeffs, self.order + 1)

    def apply_tpoly(self, p):
        """Apply Q to an exact polynomial in t; degree drops by one."""
        if p.degree > self.order:
            raise ValueError("operator order too small for this polynomial")
        return XSeries(_lanes_apply(self._int_steps, p.coeffs, False))

    def apply_tseries(self, w):
        """Apply Q in the t variable of a TSeries."""
        if w.order > self.order:
            raise ValueError("operator order too small for this t-order")
        out = _lanes_apply(self._int_steps, [c.coeffs for c in w.coeffs], True)
        return TSeries(map(XSeries, out), max(w.order - 1, 0))

    def __repr__(self):
        return "DeltaOp(%s, order=%d)" % (self.tag, self.order)


def _steps(lanes, size):
    """Step table of the apply of Hurwitz weights h_k, given as lanes
    (one or more lists of ints), on inputs of length <= size: row m
    lists (k, h_k C(m+k, k) in each lane) for every k with m + k < size
    at which a lane is nonzero, in increasing k."""
    nonzero = [k for k in range(len(lanes[0])) if any(h[k] for h in lanes)]
    return [
        [(k, *[h[k] * math.comb(m + k, k) for h in lanes]) for k in nonzero if m + k < size]
        for m in range(size)
    ]


def _int_step_table(coeffs, size):
    """The step table of sum_k coeffs[k] d^k for inputs of length <=
    size over one denominator, (den, kind, rows): rows[m] lists (k, re,
    im), (re + im*i) / den = h_k C(m+k, k), for the nonzero Hurwitz
    weights h_k = k! coeffs[k] with m + k < size; kind is their field."""
    weights = [math.factorial(k) * c for k, c in enumerate(coeffs[:size])]
    den, re, im, _ = to_lanes(weights)
    kind = _kind([h for h in weights if h != 0])
    return den, kind, _steps((re, im or [0] * len(re)), size)


def _falling_apply(steps, v):
    """The shift-invariant apply sum_k h_k d^k / k! on the coefficient
    list v (index = power), by the step table of the weights h_k.

    Entry m is sum_k h_k C(m+k, k) v[m+k], accumulated from the int 0;
    the entries of v are ints or the point values of
    deltaflow.verify_delta_ode (_lanes_apply runs it on exact scalars).
    """
    size = len(v)
    out = []
    for m in range(size):
        acc = 0
        for k, w in steps[m]:
            if m + k >= size:
                break
            acc = acc + v[m + k] * w
        out.append(acc)
    return out


def _gaussian_apply(steps, vr, vi):
    """_falling_apply on the Gaussian integers vr + vi*i, three real
    products per term: steps[m] lists (k, x, y, x + y) for each step
    x + y*i, and with s1, s2 and s3 the sums of x vr, y vi and
    (x + y)(vr + vi) at m + k, entry m is s1 - s2 + (s3 - s1 - s2)*i."""
    vs = [x + y for x, y in zip(vr, vi)]
    size, re, im = len(vr), [], []
    for m, row in enumerate(steps[:size]):
        s1 = s2 = s3 = 0
        for k, x, y, z in row:
            j = m + k
            if j >= size:
                break
            s1 += x * vr[j]
            s2 += y * vi[j]
            s3 += z * vs[j]
        re.append(s1 - s2)
        im.append(s3 - s1 - s2)
    return re, im


def _lanes_apply(steps, values, series):
    """_falling_apply of an integer step table (see _int_step_table) on
    values (index = power of t), in integers over the denominator of the
    steps times the common one of the values, divided once per output
    coefficient.

    The values are scalars, or with series the coefficient lists of
    XSeries, and so is each output entry.  Every output coefficient,
    zeros included, has the one type of the field of the nonzero weights
    of the steps and the values together.
    """
    lists = values if series else [(c,) for c in values]
    dq, kind, rows = steps
    dp, re, im, values_kind = to_lanes([c for v in lists for c in v])
    kind = max(kind, values_kind)
    lanes, pos = [], 0
    for v in lists:
        end = pos + len(v)
        lanes.append((re[pos:end], im[pos:end] if im else None))
        pos = end
    den = dq * dp
    width = max(map(len, lists), default=0)
    out = []
    for m in range(len(lists)):
        ar, ai = [0] * width, [0] * width
        for k, sr, si in rows[m]:
            if m + k >= len(lists):
                break
            vr, vi = lanes[m + k]
            if si or vi:
                for i, x in enumerate(vr):
                    y = vi[i] if vi else 0
                    ar[i] += sr * x - si * y
                    ai[i] += sr * y + si * x
            else:
                for i, x in enumerate(vr):
                    ar[i] += sr * x
        out.append([from_lanes(x, ai[i], den, kind) for i, x in enumerate(ar)])
    return out if series else [c for c, in out]


def apply_delta_series(coeffs, p):
    """Apply a shift-invariant series sum_k coeffs[k] d^k to a polynomial."""
    steps = _int_step_table(coeffs, len(p.coeffs))
    return XSeries(_lanes_apply(steps, p.coeffs, False))


# ---------------------------------------------------------------------------
# built-in operators

# The one table of built-in operators: name -> p_k(k, alpha), the
# coefficient of d^k in the series p for k >= 1 (p_0 = 0 for all).
_SERIES = {
    "derivative": lambda k, alpha: int(k == 1),
    "forward": lambda k, alpha: Fraction(1, math.factorial(k)),
    "backward": lambda k, alpha: Fraction(-((-1) ** k), math.factorial(k)),
    "abel": lambda k, alpha: alpha ** (k - 1) * Fraction(1, math.factorial(k - 1)),
    "touchard": lambda k, alpha: Fraction((-1) ** (k - 1), k),
}

OPERATOR_NAMES = tuple(_SERIES)


def operator(name, order=DEFAULT_DEPTH, alpha=1):
    """The built-in operator called name; alpha is read by abel only."""
    if name not in _SERIES:
        raise ValueError("unknown operator %r" % name)
    p = _SERIES[name]
    return DeltaOp((0,) + tuple(p(k, alpha) for k in range(1, order + 1)), tag=name)


def derivative(order=DEFAULT_DEPTH):
    """The plain derivative d/dt (basic sequence: monomials)."""
    return operator("derivative", order)


def forward(order=DEFAULT_DEPTH):
    """Forward difference exp(d) - 1, mapping y(t) to y(t+1) - y(t)."""
    return operator("forward", order)


def backward(order=DEFAULT_DEPTH):
    """Backward difference 1 - exp(-d), mapping y(t) to y(t) - y(t-1)."""
    return operator("backward", order)


def abel(alpha=1, order=DEFAULT_DEPTH):
    """Abel operator d * exp(alpha d)."""
    return operator("abel", order, alpha)


def touchard(order=DEFAULT_DEPTH):
    """Touchard operator log(1 + d)."""
    return operator("touchard", order)


# ---------------------------------------------------------------------------
# basic sequences

class BasicSequence(_TermRows):
    """The basic polynomials q_0 .. q_depth of a delta operator.

    beta(k, n) is the coefficient of t^k in q_n; the matrix is lower
    triangular in k with beta(n, n) != 0 and beta(0, n) = 0 for n >= 1.
    The polynomials and their integer rows share the holder of Flow
    (flows._TermRows): basic_sequence_from_delta gives rows, and polys,
    poly and beta make the scalars on first read; a sequence given by
    its polys (umbral_compose, basic_sequence_by_recurrence) reads its
    rows off them.  Equality and hashing compare the operator and the
    polys.
    """

    def __init__(self, operator, polys):
        self._terms, self._numerators = tuple(polys), None
        self._set(operator)

    def _set(self, operator):
        self.operator = operator

    @property
    def polys(self):
        """The exact XSeries in t, index n = 0 .. depth."""
        return self._read_terms()

    @property
    def depth(self):
        return self.order - 1

    def poly(self, n):
        if not 0 <= n <= self.depth:
            raise ValueError("basis index out of range")
        return self.polys[n]

    def beta(self, k, n):
        return self.poly(n).coefficient(k)

    @functools.cached_property
    def _int_rows(self):
        """The matrix beta over one denominator, (db, kind, complex,
        rows), read off the integer rows: rows[n] lists (k, re, im) for
        every nonzero beta(k, n) = (re + im*i) / db, kind is the field of
        the basis, and complex tells whether a row has imaginary parts."""
        kind, rows = self.numerators
        db = math.lcm(*[den for den, _, _ in rows])
        out = []
        for den, re, im in rows:
            s = db // den
            out.append([(k, s * x, s * im[k] if im else 0) for k, x in enumerate(re) if x or im and im[k]])
        return db, kind, any(im for _, _, im in rows), out

    def expand(self, coeffs):
        """Monomial coefficients of sum_n coeffs[n] q_n(t), index = power.

        coeffs holds scalars, or XSeries (and then so does the result).
        _expand_rows runs between the terms-to-rows helpers of Flow
        (flows._terms_to_rows and _rows_to_terms), with one division
        per output coefficient.  Every output coefficient, zeros
        included, has the one type of the field of the basis and coeffs
        together: int over Z, Fraction over Q, GaussianRational over
        Q(i).
        """
        series = any(isinstance(c, XSeries) for c in coeffs)
        lists = [c.coeffs for c in coeffs] if series else [(c,) for c in coeffs]
        kind, rows = self._expand_rows(*_terms_to_rows(lists))
        # a scalar row has one entry, which beta(k, k) != 0 reaches
        return list(_rows_to_terms(kind, rows, XSeries if series else lambda values: values[0]))

    def _expand_rows(self, kind, rows):
        """The integer core of expand on an integer form (kind, rows) as
        in AutonomousSequence.numerators, rows[n] the coordinate on q_n.

        Returns the integer form (kind, out) of the monomial
        coefficients, out[k] for t^k, over the one denominator
        lcm(den) * db, db that of beta (d^N N! db for a delta flow,
        whose rows are over d^n n!); kind is that of the basis and the
        rows together.
        """
        if len(rows) > self.depth + 1:
            raise ValueError("basis index out of range")
        db, basis_kind, basis_complex, beta = self._int_rows
        dc = math.lcm(*[den for den, _, _ in rows])
        cplx = basis_complex or any(ui is not None for _, _, ui in rows)
        # lanes[k]: the integer sums (re, im) of the coefficients of t^k
        lanes = [([], [] if cplx else None) for _ in rows]
        for n, (den, ur, ui) in enumerate(rows):
            m = len(ur)
            if not m:
                continue
            scale = dc // den
            if scale != 1:
                ur = [scale * x for x in ur]
                if ui is not None:
                    ui = [scale * x for x in ui]
            for k, br, bi in beta[n]:
                re, im = lanes[k]
                for acc in (re, im) if cplx else (re,):
                    if len(acc) < m:
                        acc.extend([0] * (m - len(acc)))
                for acc, b, u in ((re, br, ur), (re, -bi, ui), (im, br, ui), (im, bi, ur)):
                    if b and u is not None:
                        for i, x in enumerate(u):
                            acc[i] += b * x
        den = dc * db
        return max(kind, basis_kind), [(den, re, im) for re, im in lanes]

    def __eq__(self, other):
        if not isinstance(other, BasicSequence):
            return NotImplemented
        return self.operator == other.operator and self.polys == other.polys

    def __hash__(self):
        return hash((self.operator, self.polys))

    def __repr__(self):
        return "BasicSequence(%s, depth=%d)" % (self.operator.tag, self.depth)


@functools.lru_cache(maxsize=64)
def basic_sequence_from_delta(Q, depth):
    """Basic sequence of Q by Rota's recurrence q_(n+1) = t r(d) q_n
    (Rota, Kahaner and Odlyzko, Finite operator calculus, 1973).

    Here r = 1/p' is the reciprocal of the Pincherle derivative of Q's
    series, so the coefficients obey

        beta(m+1, n+1) = sum_k B_k C(m+k, k) beta(m+k, n),

    the shift-invariant apply of the Hurwitz coefficients B_k of r to
    q_n, shifted up one power of t.  B_k = D C_k / (N_0^(k+1) b^k) with
    integers C_k (series._hurwitz_reciprocal of p', t scaled by b), so
    gamma(j, n) = N_0^(2n-j) b^(n-j) D^(-n) beta(j, n) obeys the same
    recurrence with the weights C_k, on Z, or on Z[i] by three real
    applies per step.  Row n is kept as the integers
    gamma(j, n) D^n (N_0 b)^j over N_0^(2n) b^n.  Its scalars are all
    Fractions, or all GaussianRationals where field arithmetic would
    give r a Gaussian coefficient.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if Q.order < depth:
        raise ValueError("operator order too small for this depth")
    top = max(depth, 1)
    (cr, ci), n0, (dr, di), b, gaussian = _hurwitz_reciprocal(Q.coeffs[1 : top + 1], top - 1, 1)
    lanes = [([1], None if ci is None else [0])]
    if ci is None:
        steps = _steps((cr,), depth)
        for _ in range(depth):
            lanes.append(([0] + _falling_apply(steps, lanes[-1][0]), None))
    else:
        steps = _steps((cr, ci, [x + y for x, y in zip(cr, ci)]), depth)
        for _ in range(depth):
            re, im = _gaussian_apply(steps, *lanes[-1])
            lanes.append(([0] + re, [0] + im))
    nb = [(n0 * b) ** j for j in range(depth + 1)]
    rows, den, pr, pi = [], 1, 1, 0  # pr + pi*i = D^n
    for n, (gr, gi) in enumerate(lanes):
        if n:
            den *= n0 * n0 * b
            pr, pi = pr * dr - pi * di, pr * di + pi * dr
        gi = gi or [0] * len(gr)
        re = [(x * pr - y * pi) * f for x, y, f in zip(gr, gi, nb)]
        im = [(x * pi + y * pr) * f for x, y, f in zip(gr, gi, nb)]
        rows.append((den, re, im if ci or di else None))
    return BasicSequence._from_numerators((1 + gaussian, tuple(rows)), Q)


def basic_sequence_by_recurrence(Q, depth):
    """Independent construction solving Q q_n = n q_{n-1} degree by degree.

    Kept as a verification oracle for basic_sequence_from_delta; it
    never touches the reciprocal of p'.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if Q.order < depth:
        raise ValueError("operator order too small for this depth")
    p1 = Q.coeffs[1]
    qt = [Q.apply_tpoly(XSeries.monomial(1, k)) for k in range(depth + 1)]
    polys = [XSeries.one()]
    for n in range(1, depth + 1):
        target = n * polys[n - 1]
        beta = [0] * (n + 1)
        acc = XSeries.zero()
        for m in range(n - 1, -1, -1):
            need = target.coefficient(m) - acc.coefficient(m)
            bk = need * invert_scalar(p1 * (m + 1))
            beta[m + 1] = bk
            if bk != 0:
                acc = acc + bk * qt[m + 1]
        polys.append(XSeries(beta))
    return BasicSequence(Q, tuple(polys))


def monomial_basis(depth):
    """Basic sequence of the derivative: q_n = t^n."""
    return basic_sequence_from_delta(derivative(max(depth, 1)), depth)


# ---------------------------------------------------------------------------
# umbral operators and composition

@dataclass(frozen=True)
class UmbralOperator:
    """The linear map sending t^n to q_n(t) for a basic sequence."""

    basis: BasicSequence

    def apply(self, p):
        if p.degree > self.basis.depth:
            raise ValueError("polynomial degree exceeds the basis depth")
        return XSeries(self.basis.expand(p.coeffs))

    def apply_tseries(self, w):
        """Map t^m to q_m(t) inside a TSeries; result is monomial."""
        if w.order > self.basis.depth:
            raise ValueError("t-order exceeds the basis depth")
        return TSeries(self.basis.expand(w.coeffs), w.order)


def umbral_compose(A, B):
    """Substitute B's polynomials into A's monomial expansions.

    r_n = sum_k beta_A(k, n) q^B_k.  The attached operator is the
    composition p_A(p_B(delta)).
    """
    if A.depth != B.depth:
        raise ValueError("depth mismatch")
    order = min(A.operator.order, B.operator.order)
    op = DeltaOp(seq_compose(A.operator.coeffs, B.operator.coeffs, order))
    L = UmbralOperator(B)
    polys = tuple(L.apply(A.poly(n)) for n in range(A.depth + 1))
    return BasicSequence(op, polys)


def umbral_inverse(A):
    """Basic sequence of the compositionally inverse operator.

    Composing with it on either side yields the monomial basis.  A
    basis of depth d reads its operator only through order d, so the
    series is inverted through max(d, 1), the least order of a DeltaOp.
    """
    inv = DeltaOp(compositional_inverse(A.operator.coeffs, max(A.depth, 1)))
    return basic_sequence_from_delta(inv, A.depth)


# ---------------------------------------------------------------------------
# expansion theorem and shift operators

def shift_operator(a, order=DEFAULT_DEPTH):
    """The shift y(t) -> y(t+a) as a derivative series, a^k / k!."""
    return tuple(a ** k * Fraction(1, math.factorial(k)) for k in range(order + 1))


def first_expansion(T, Q, depth):
    """Coefficients c_k = [T q_k](0) of T in powers of Q.

    T is any shift-invariant operator given as a derivative series.
    Reconstructing sum_k c_k Q^k / k! recovers T through the shared
    order (see expansion_to_delta_series).
    """
    basis = basic_sequence_from_delta(Q, depth)
    out = []
    for k in range(depth + 1):
        image = apply_delta_series(T, basis.poly(k))
        out.append(image.coefficient(0))
    return tuple(out)


def expansion_to_delta_series(c, Q, order):
    """Assemble sum_k c_k Q^k / k! back into a derivative series."""
    weights = [ck * Fraction(1, math.factorial(k)) for k, ck in enumerate(c[: order + 1])]
    return seq_compose(weights, Q.coeffs, order)


# ---------------------------------------------------------------------------
# Stirling numbers

@functools.lru_cache(maxsize=8)
def _stirling_row(n, first_kind):
    """Row n of the triangle of signed Stirling numbers of the first kind
    or of the second kind, built row by row from T(0, 0) = 1 by
    T(i, j) = T(i-1, j-1) + w T(i-1, j), with w = 1 - i or w = j."""
    row = [1]
    for i in range(1, n + 1):
        row.append(0)
        row = [0] + [
            row[j - 1] + (1 - i if first_kind else j) * row[j] for j in range(1, i + 1)
        ]
    return tuple(row)


def stirling2(n, k):
    """Stirling numbers of the second kind (set partitions into blocks)."""
    if n < 0 or k < 0 or k > n:
        raise ValueError("indices out of range")
    return _stirling_row(n, False)[k]


def signed_stirling1(n, k):
    """Signed Stirling numbers of the first kind, from the falling
    factorial expansion t(t-1)...(t-n+1) = sum_k s(n,k) t^k."""
    if n < 0 or k < 0 or k > n:
        raise ValueError("indices out of range")
    return _stirling_row(n, True)[k]
