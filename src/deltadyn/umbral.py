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
against it.  At k = 1 it gives pinv itself, beta(1, n) / n!: the one
route to the inverse series (_inverse_series).  A slower route that
solves Q q_n = n q_{n-1} degree by degree is kept as an independent
check.

Built-in operators: the derivative itself, the forward difference
exp(d)-1 (falling factorials), the backward difference 1-exp(-d)
(rising factorials), the Abel operator d*exp(alpha d) (polynomials
t(t - n alpha)^(n-1)) and the Touchard operator log(1+d) (Stirling
set polynomials).  They live in one table, _SERIES, which gives the
coefficient p_k of each series by name; operator(name, order, alpha)
reads it, and derivative(), forward(), ... are calls of operator.

One kernel carries the linear algebra.  Every matrix here has one
sparse integer layout (_int_matrix): row i lists (j, x), or
(j, x, y, x + y) when some entry has an imaginary part, for its nonzero
entries x + y*i, in increasing column j.  _int_apply multiplies one by
a lane of integers or point values into as many entries as the lane
has, and _int_apply_rows runs it on rows of polynomials in x, one power
of x at a time.  The shift-invariant apply sum_k p_k d^k takes t^(m+k)
to h_k C(m+k, k) t^m, where h_k = k! p_k are the Hurwitz weights of
the series, by a step matrix built once per series, on integers over
one denominator (DeltaOp._int_steps).  It serves every operator, on
polynomials and in the t variable of a TSeries (one division per
output coefficient, _lanes_apply), on the integer point values of
deltaflow.verify_delta_ode, and each step of Rota's recurrence is one
such apply (of the Hurwitz weights of 1/p') followed by a product with t.
BasicSequence.expand maps coordinates over (q_n) to monomial ones
through the triangular matrix beta(k, n), kept by output power k with
column n (BasicSequence._int_rows): for the umbral operators it is
_lanes_apply of that matrix, read and divided as the operators apply.
BasicSequence._expand_rows runs the same product on integer rows with
one denominator each and returns rows over their common denominator
times that of beta: flows.Flow.to_monomial runs it on the rows of a
flow, and Flow.to_basic with the basis of the umbral inverse.

Basic sequences compose umbrally (substitute one family into the
monomial expansion of another) and form a group; the attached
operators compose the opposite way, f(delta) then g(delta) giving
f(g(delta)).
"""

import functools
import math
from fractions import Fraction

from .flows import TSeries, _rows_to_terms, _TermRows
from .scalars import _kind, _kinds, from_lanes, to_lanes
from .series import XSeries, _hurwitz_reciprocal, invert_scalar, seq_compose

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


class _Record:
    """A frozen record, written out rather than made by dataclasses,
    whose import (inspect, ast, dis, ...) would cost every cold request
    several ms.  __init__ sets the fields once; a record equals, and
    hashes as, the tuple of its _fields, and only a record of its own
    class; the repr lists _fields by name; assigning or deleting an
    attribute raises AttributeError.  No __slots__: pickle and copy
    restore a __dict__ without __setattr__, and cached_property needs
    one."""

    _fields = ()

    def _key(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (type(self).__name__, fields)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)


class DeltaOp(_Record):
    """A delta operator as ordinary coefficients of p(d/dt).

    coeffs[k] multiplies the k-th derivative; p0 must vanish and p1
    must be invertible.  The series is stored through a finite order,
    as a tuple, which bounds the polynomial degree the operator can act
    on.  The tag is descriptive only and does not take part in
    equality; kinds, the field of each nonzero coefficient
    (scalars._kinds), does, so equal series of two fields do not share
    a cached basis.  The hash is computed once, here: the basis cache
    hashes its operator on every lookup, and the hash of a Fraction
    takes a modular inverse.  It is a number's hash, so it holds in
    another process after pickling too.
    """

    _fields = ("coeffs", "kinds")

    def __init__(self, coeffs, tag="custom"):
        coeffs = tuple(coeffs)
        vars(self).update(coeffs=coeffs, tag=tag, kinds=_kinds([c if c != 0 else 0 for c in coeffs]))
        if len(coeffs) < 2:
            raise ValueError("delta operator needs at least order 1")
        if coeffs[0] != 0:
            raise ValueError("delta operator must annihilate constants (p0 = 0)")
        if coeffs[1] == 0:
            raise ValueError("delta operator needs p1 != 0")
        vars(self)["_hash"] = hash(self._key())

    def __hash__(self):
        return self._hash

    @property
    def order(self):
        return len(self.coeffs) - 1

    @functools.cached_property
    def _int_steps(self):
        """The step matrix over one denominator for inputs of degree <=
        order (see _int_step_table)."""
        return _int_step_table(self.coeffs, self.order + 1)

    def apply_tpoly(self, p):
        """Apply Q to an exact polynomial in t; degree drops by one."""
        if p.degree > self.order:
            raise ValueError("operator order too small for this polynomial")
        return XSeries(c for c, in _lanes_apply(self._int_steps, [(c,) for c in p.coeffs]))

    def apply_tseries(self, w):
        """Apply Q in the t variable of a TSeries."""
        if w.order > self.order:
            raise ValueError("operator order too small for this t-order")
        out = _lanes_apply(self._int_steps, [c.coeffs for c in w.coeffs])
        return TSeries(map(XSeries, out), max(w.order - 1, 0))

    def __repr__(self):
        return "DeltaOp(%s, order=%d)" % (self.tag, self.order)


def _int_matrix(rows):
    """The one layout of the sparse integer matrices of this module, from
    rows listing (j, x, y), the entry x + y*i at column j, in increasing
    j: row i lists (j, x) for each nonzero entry, or (j, x, y, x + y)
    when some entry of the matrix has an imaginary part."""
    rows = [[(j, x, y) for j, x, y in row if x or y] for row in rows]
    if any(y for row in rows for _, _, y in row):
        return [[(j, x, y, x + y) for j, x, y in row] for row in rows]
    return [[(j, x) for j, x, _ in row] for row in rows]


def _is_gaussian(matrix):
    # the layout is one for the whole matrix: its first entry tells it
    return next((len(row[0]) == 4 for row in matrix if row), False)


def _int_apply(matrix, re, im=None):
    """The product (re, im) of a sparse integer matrix (_int_matrix) and
    the lane re + im*i, summed over the columns j < len(re), so with as
    many entries as the lane; im is None for a real lane, and in the
    result when the lane and the matrix are both real.

    A real matrix runs acc = acc + v[j] * x from the int 0, so v may
    hold the point values of deltaflow.verify_delta_ode, and takes the
    two lanes in one walk over each row, M re and M im with one
    accumulator each: any two lanes of values, which that check gives
    as the two sides of its equation.  A Gaussian matrix takes three
    real products per term: with s1, s2 and s3 the sums of x re, y im
    and (x + y)(re + im), entry i is s1 - s2 + (s3 - s1 - s2)*i.  The
    step matrix of the forward difference, whose Hurwitz weights are
    all 1, takes t^2 to 1 + 2t:

    >>> _int_apply([[(1, 1), (2, 1)], [(2, 2)], []], [0, 0, 1])
    ([1, 2, 0], None)
    >>> _int_apply([[(1, 1), (2, 1)], [(2, 2)], []], [0, 0, 1], [0, 1, 0])
    ([1, 2, 0], [1, 0, 0])
    >>> _int_apply([[(1, 1, 0, 1), (2, 1, 0, 1)], [(2, 2, 0, 2)], []], [0, 0, 1])
    ([1, 2, 0], [0, 0, 0])
    """
    size = len(re)
    rows = matrix[:size]
    if _is_gaussian(matrix):
        im = im or [0] * size
        vs = [x + y for x, y in zip(re, im)]
        out_re, out_im = [], []
        for row in rows:
            s1 = s2 = s3 = 0
            for j, x, y, z in row:
                if j >= size:
                    break
                s1 += x * re[j]
                s2 += y * im[j]
                s3 += z * vs[j]
            out_re.append(s1 - s2)
            out_im.append(s3 - s1 - s2)
        return out_re, out_im
    out_re = []
    if im is None:
        for row in rows:
            acc = 0
            for j, x in row:
                if j >= size:
                    break
                acc = acc + re[j] * x
            out_re.append(acc)
        return out_re, None
    out_im = []
    for row in rows:
        acc = acc_im = 0
        for j, x in row:
            if j >= size:
                break
            acc = acc + re[j] * x
            acc_im = acc_im + im[j] * x
        out_re.append(acc)
        out_im.append(acc_im)
    return out_re, out_im


def _int_apply_rows(matrix, kind, rows):
    """_int_apply of a matrix over one denominator, (dm, kind, matrix),
    on the integer form (kind, rows) of polynomials in x, one power of x
    at a time: the integer form of the product, its rows over lcm(den) dm
    and as wide as the widest given (see AutonomousSequence.numerators)."""
    dm, matrix_kind, matrix = matrix
    dc = math.lcm(*[den for den, _, _ in rows])
    rows = [(dc // den, re, im) for den, re, im in rows]
    cplx = any(im is not None for _, _, im in rows)
    columns = [
        _int_apply(
            matrix,
            [s * re[i] if i < len(re) else 0 for s, re, _ in rows],
            [s * im[i] if im and i < len(im) else 0 for s, _, im in rows] if cplx else None,
        )
        for i in range(max((len(re) for _, re, _ in rows), default=0))
    ]
    cplx = cplx or _is_gaussian(matrix)
    return max(kind, matrix_kind), [
        (dc * dm, [c[0][n] for c in columns], [c[1][n] for c in columns] if cplx else None)
        for n in range(len(rows))
    ]


def _steps(re, im, size):
    """Step matrix of the apply of the Hurwitz weights h_k = re[k] +
    im[k]*i (im None when real) on inputs of length <= size: row m lists
    column m + k, entry h_k C(m+k, k), for every nonzero h_k with
    m + k < size."""
    nonzero = [k for k in range(len(re)) if re[k] or im and im[k]]
    return _int_matrix(
        [(m + k, re[k] * math.comb(m + k, k), im[k] * math.comb(m + k, k) if im else 0)
         for k in nonzero if m + k < size]
        for m in range(size)
    )


def _int_step_table(coeffs, size):
    """The step matrix of sum_k coeffs[k] d^k for inputs of length <=
    size over one denominator, (den, kind, matrix): _steps of the Hurwitz
    weights h_k = k! coeffs[k], and kind the field of the nonzero ones."""
    weights = [math.factorial(k) * c for k, c in enumerate(coeffs[:size])]
    den, re, im, _ = to_lanes(weights)
    kind = _kind([h for h in weights if h != 0])
    return den, kind, _steps(re, im, size)


def _lanes_apply(steps, lists):
    """_int_apply_rows of a step table on the coefficient lists of XSeries
    (index = power of t), read over one common denominator and divided
    once per output coefficient.  Every output coefficient, zeros
    included, has the one type of the field of the nonzero weights of
    the steps and the values together."""
    den, re, im, kind = to_lanes([c for v in lists for c in v])
    rows, pos = [], 0
    for v in lists:
        rows.append((den, re[pos : pos + len(v)], im and im[pos : pos + len(v)]))
        pos += len(v)
    return _rows_to_terms(*_int_apply_rows(steps, kind, rows), list)


def apply_delta_series(coeffs, p):
    """Apply a shift-invariant series sum_k coeffs[k] d^k to a polynomial."""
    steps = _int_step_table(coeffs, len(p.coeffs))
    return XSeries(c for c, in _lanes_apply(steps, [(c,) for c in p.coeffs]))


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


@functools.lru_cache(maxsize=64, typed=True)
def operator(name, order=DEFAULT_DEPTH, alpha=1):
    """The built-in operator called name; alpha is read by abel only.

    Memoised per process with the bound of the basis cache, so a
    request that names an operator again gets the same DeltaOp, its
    hash and step table already made.  The memo is typed: a
    GaussianRational alpha equals and hashes as the Fraction of the
    same value, but gives abel a series over Q(i), of other kinds.
    """
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
        """The matrix beta over one denominator, (db, kind, matrix), read
        off the integer rows: row k of the matrix lists column n, entry
        beta(k, n) db, for every nonzero beta(k, n) (see _int_matrix),
        and kind is the field of the basis."""
        kind, rows = self.numerators
        db = math.lcm(*[den for den, _, _ in rows])
        scaled = [(db // den, re, im) for den, re, im in rows]
        return db, kind, _int_matrix(
            [(n, s * re[k], s * im[k] if im else 0) for n, (s, re, im) in enumerate(scaled) if k < len(re)]
            for k in range(len(rows))
        )

    def expand(self, coeffs):
        """Monomial coefficients of sum_n coeffs[n] q_n(t), index = power.

        coeffs holds scalars, or XSeries (and then so does the result).
        It is _lanes_apply of the matrix of beta, as the operators
        apply, with one division per output coefficient.  Every output
        coefficient, zeros included, has the one type of the field of
        the basis and coeffs together: int over Z, Fraction over Q,
        GaussianRational over Q(i).
        """
        if len(coeffs) > self.depth + 1:
            raise ValueError("basis index out of range")
        series = any(isinstance(c, XSeries) for c in coeffs)
        lists = [c.coeffs for c in coeffs] if series else [(c,) for c in coeffs]
        out = _lanes_apply(self._int_rows, lists)
        # a scalar row has one entry, which beta(k, k) != 0 reaches
        return [XSeries(v) for v in out] if series else [v[0] for v in out]

    def _expand_rows(self, kind, rows):
        """expand on an integer form (kind, rows) as in
        AutonomousSequence.numerators, rows[n] the coordinate on q_n.

        Returns the integer form (kind, out) of the monomial
        coefficients, out[k] for t^k, over the one denominator
        lcm(den) * db, db that of beta (d^N N! db for a delta flow,
        whose rows are over d^n n!); kind is that of the basis and the
        rows together: _int_apply_rows with the matrix of beta.  Its
        callers, the conversions of a Flow, keep rows within the depth.
        """
        return _int_apply_rows(self._int_rows, kind, rows)

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
    recurrence with the weights C_k, on Z or on Z[i], one _int_apply of
    their step matrix per step.  Row n is kept as the integers
    gamma(j, n) D^n (N_0 b)^j over N_0^(2n) b^n.  Its scalars are all
    Fractions, or all GaussianRationals where field arithmetic would
    give r a Gaussian coefficient.
    """
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if Q.order < depth:
        raise ValueError("operator order too small for this depth")
    top = max(depth, 1)
    (cr, ci), n0, (dr, di), b, gaussian = _hurwitz_reciprocal(Q.coeffs[1 : top + 1], top - 1)
    steps = _steps(cr, ci, depth)
    nb = [(n0 * b) ** j for j in range(depth + 1)]
    gr, gi, rows, den, pr, pi = [1], None, [], 1, 1, 0  # pr + pi*i = D^n
    for n in range(depth + 1):
        if n:
            gr, gi = _int_apply(steps, gr, gi)
            gr, gi, den = [0] + gr, gi and [0] + gi, den * n0 * n0 * b
            pr, pi = pr * dr - pi * di, pr * di + pi * dr
        yi = gi or [0] * len(gr)
        re = [(x * pr - y * pi) * f for x, y, f in zip(gr, yi, nb)]
        im = [(x * pi + y * pr) * f for x, y, f in zip(gr, yi, nb)]
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

class UmbralOperator(_Record):
    """The linear map sending t^n to q_n(t) for a basic sequence."""

    _fields = ("basis",)

    def __init__(self, basis):
        vars(self).update(basis=basis)

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


def _inverse_series(basis):
    """pinv through the depth of a basis, coefficient n beta(1, n) / n!
    (see the module docstring), one division each on the integer rows,
    in the field of the basis and at least Q, as a basis given by polys
    may hold int rows; coefficient 0 is the int 0."""
    kind, rows = basis.numerators
    kind = max(kind, 1)
    out, fact = [0], 1
    for n, (den, re, im) in enumerate(rows[1:], 1):
        fact *= n
        out.append(from_lanes(re[1], im[1] if im else 0, den * fact, kind))
    return tuple(out)


def umbral_inverse(A):
    """Basic sequence of the compositionally inverse operator.

    Composing with it on either side yields the monomial basis.  A
    basis of depth d reads its operator only through order d, so the
    series is inverted through max(d, 1), the least order of a DeltaOp:
    read off A's own rows, or, at depth 0, which has no row 1, off the
    depth-1 basis of its operator.
    """
    inv = DeltaOp(_inverse_series(A if A.depth else basic_sequence_from_delta(A.operator, 1)))
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
    order (see expansion_to_delta_series).  The coefficients are
    _first_expansion over the basis of Q.
    """
    return _first_expansion(T, basic_sequence_from_delta(Q, depth))


def _first_expansion(T, basis):
    """[T q_k](0) for the polynomials q_k of a basis, on its integer rows.

    With h_j = j! T_j the Hurwitz weights of T, the t^0 coefficient of
    T q_k is sum_j h_j beta(j, k): one dot product of the lanes of the
    weights with the integer row of q_k, and one division.  It is the
    int 0 where T q_k is the zero polynomial, no weight reaching the
    degree of q_k, and otherwise in the field of the row and the
    nonzero weights together, as apply_delta_series gives it.
    """
    kind, rows = basis.numerators
    weights = [math.factorial(j) * c for j, c in enumerate(T[: len(rows)])]
    dt, hr, hi, _ = to_lanes(weights)
    hi = hi or ()
    kind = max(kind, _kind([h for h in weights if h != 0]))
    low = next((j for j, h in enumerate(weights) if h != 0), None)
    out = []
    for den, re, im in rows:
        if low is None or low >= len(re):
            out.append(0)
            continue
        im = im or ()
        r = sum(h * x for h, x in zip(hr, re)) - sum(h * y for h, y in zip(hi, im))
        i = sum(h * x for h, x in zip(hi, re)) + sum(h * y for h, y in zip(hr, im))
        out.append(from_lanes(r, i, dt * den, kind))
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
