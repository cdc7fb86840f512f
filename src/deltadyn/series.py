"""Exact univariate series and polynomial kernels.

XSeries, the one coefficient container here, is an exact polynomial
in one variable.  XSeries also serve as the polynomials in t (basic
polynomials and the like); printing always names the variable x.

Module level functions provide the formal-series kernels shared by the
rest of the package: multiplication and composition on plain
coefficient sequences (index = power, scalar entries), the
compositional inverse, read off the basic sequence of umbral, the
rational binomial coefficient, and the product of the Hurwitz ring:
the binomial convolution of two sequences, which multiplies
exponential generating functions and, by the Leibniz rule, derivative
towers (f, f', f'', ...).  The reciprocal of a derivative runs in that
ring on integers (_hurwitz_reciprocal), with no division; it gives
Rota's recurrence in umbral its weights.  f(Phi) at a point runs there
too (_hurwitz_composite); its Taylor recursion gives the point checks
of points their right sides and solver the values A_k(x0) of its
closed form.

_mul_lists, the one batch convolution, multiplies scalar sequences,
XSeries (and so XSeries.shift), the coefficients of flows.TSeries and
integer lanes; _mul_lanes, the product of integer lanes (three real
products over Q(i)), serves autonomous.autonomous_sequence and
composition.  Those kernels read each input once into lanes over one
denominator (scalars.to_lanes), run on ints and divide once per output
coefficient, giving every coefficient, zeros included, the one type of
the field of their inputs.
"""

import functools
import math
from fractions import Fraction

from .scalars import _ZEROS, _kind, from_lanes, to_lanes

__all__ = [
    "XSeries",
    "derivative_sequence",
    "hurwitz_product",
    "seq_mul",
    "seq_compose",
    "compositional_inverse",
    "rational_binomial",
    "invert_scalar",
]


# ---------------------------------------------------------------------------
# coefficient-list helpers (scalars, index = power)

def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _add_lists(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    ]


def _horner(coeffs, x):
    """The polynomial with coefficients coeffs, lowest first, at x."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _mul_lists(a, b, cap=None, zero=0):
    """Convolution of lists of scalars or XSeries, keeping powers <= cap;
    the sums start from zero, the ring's zero."""
    if not a or not b:
        return []
    top = len(a) + len(b) - 2
    if cap is not None:
        top = min(top, cap)
    out = [zero] * (top + 1)
    nonzero = [j for j, bj in enumerate(b) if bj != zero]
    for i, ai in enumerate(a[: top + 1]):
        if ai == zero:
            continue
        for j in nonzero:
            if i + j > top:
                break
            out[i + j] = out[i + j] + ai * b[j]
    return out


def _mul_lanes(a, b, cap=None):
    """The product of two integer lanes (re, im), im None for a real
    one, by _mul_lists; over the Gaussian integers by three real
    products (Karatsuba): re = ar br - ai bi and
    im = (ar + ai)(br + bi) - ar br - ai bi.  It serves the autonomous
    recursion and the powers of the inner series of seq_compose."""
    (ar, ai), (br, bi) = a, b
    rr = _mul_lists(ar, br, cap)
    if ai is None or bi is None:
        if ai is None and bi is None:
            return rr, None
        return rr, _mul_lists(ar, bi, cap) if ai is None else _mul_lists(ai, br, cap)
    ii = _mul_lists(ai, bi, cap)
    ss = _mul_lists([u + v for u, v in zip(ar, ai)], [u + v for u, v in zip(br, bi)], cap)
    return [u - v for u, v in zip(rr, ii)], [s - u - v for s, u, v in zip(ss, rr, ii)]


# ---------------------------------------------------------------------------
# kernels on plain scalar sequences

def seq_mul(a, b, order):
    """Product of two coefficient sequences through the given order."""
    out = _mul_lists(list(a), list(b), cap=order)
    out += [0] * (order + 1 - len(out))
    return tuple(out)


def _hurwitz_reciprocal(a, order):
    """The reciprocal in Hurwitz coordinates, on integers, of the series
    with the Hurwitz coefficients A_k = (k + 1)! a_k: the derivative of
    sum_k a_k u^(k+1), as p' of p = sum_k p_k u^k from a = p_1, p_2, ...

    In the Hurwitz ring a series is a unit exactly when its constant
    term is (Keigher, On the ring of Hurwitz series, 1997).  With u
    scaled by an integer b, chosen greedily so that b^k A_k is integral
    for k >= 1, the b^k A_k are integers N_k over their least common
    denominator D, both multiplied by the conjugate of a non-real N_0.
    Then C_0 = 1 and C_n = -sum_(k>=1) C(n, k) N_k N_0^(k-1) C_(n-k),
    three real products per Gaussian product, give the Hurwitz
    coefficients D C_n / (N_0^(n+1) b^n) of the reciprocal.

    Returns (C, N_0, D, b, gaussian): C as lanes (re, im), im None when
    real, D as (re, im), and gaussian whether some a_k through the order
    is a nonzero GaussianRational, which makes the field of the
    reciprocal Q(i) rather than Q.
    """
    order = max(order, 0)
    a = list(a)[: order + 1]
    if not a or a[0] == 0:
        raise ValueError("reciprocal requires a nonzero constant term")
    den, re, im, _ = to_lanes(a)
    im = im or [0] * len(a)
    gaussian = _kind([c for c in a if c != 0]) == 2
    fact = [math.factorial(k + 1) for k in range(len(a))]
    b = 1
    for k in range(1, len(a)):
        x = fact[k] * b**k
        b *= den // math.gcd(den, x * re[k], x * im[k])
    nr = [fact[k] * b**k * x for k, x in enumerate(re)]
    ni = [fact[k] * b**k * y for k, y in enumerate(im)]
    g = math.gcd(den, *nr, *ni)
    nr, ni, dr, di = [x // g for x in nr], [y // g for y in ni], den // g, 0
    r0, i0 = nr[0], ni[0]
    if i0:
        nr, ni = [x * r0 + y * i0 for x, y in zip(nr, ni)], [y * r0 - x * i0 for x, y in zip(nr, ni)]
        dr, di = dr * r0, -dr * i0
    n0, cplx = nr[0], any(ni)
    # (k, re, im, re + im) of N_k N_0^(k-1) for the nonzero N_k, k >= 1
    weights = [
        (k, x * n0 ** (k - 1), y * n0 ** (k - 1), (x + y) * n0 ** (k - 1))
        for k, (x, y) in enumerate(zip(nr, ni)) if k and (x or y)
    ]
    cr, ci = [1], [0] if cplx else None
    for n in range(1, order + 1):
        s1 = s2 = s3 = 0
        for k, wr, wi, ws in weights:
            if k > n:
                break
            c, x = math.comb(n, k), cr[n - k]
            s1 += c * wr * x
            if cplx:
                y = ci[n - k]
                s2 += c * wi * y
                s3 += c * ws * (x + y)
        cr.append(s2 - s1)
        if cplx:
            ci.append(s1 + s2 - s3)
    return (cr, ci), n0, (dr, di), b, gaussian


class _Gaussian:
    """A Gaussian integer re + im*i as a point value of a Hurwitz
    recursion; its other operand is an int or a _Gaussian."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __add__(self, o):
        if type(o) is _Gaussian:
            return _Gaussian(self.re + o.re, self.im + o.im)
        if isinstance(o, int):
            return _Gaussian(self.re + o, self.im)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _Gaussian(-self.re, -self.im)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if type(o) is _Gaussian:
            return _Gaussian(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
        if isinstance(o, int):
            return _Gaussian(self.re * o, self.im * o)
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self):
        return bool(self.re or self.im)


def _lane(re, im):
    """The point value re + im*i: an int unless im is nonzero."""
    return _Gaussian(re, im) if im else re


@functools.lru_cache(maxsize=128)
def _binomials(n):
    """Row n of Pascal's triangle."""
    return tuple(math.comb(n, k) for k in range(n + 1))


def _hurwitz_composite(F, psi, widths):
    """Yield F(psi)_0, F(psi)_1, ...: f(Phi) at a point, in Hurwitz
    coordinates.

    psi[i] is the coefficient of t^i/i! of a series, given as the list
    of its coefficients of s^j/j! in a second variable s (one entry for
    a series in t alone), and F lists the point values of a
    polynomial's coefficients, lowest first.  Products are binomial
    convolutions in both variables, the product of the Hurwitz ring, so
    integer inputs give integers with no division.  F(psi)_i is
    yielded through s-index widths[i] - 1 and reads psi[0 .. i] only,
    so a caller may append it to psi as psi[i+1] before asking for the
    next one: that is the Taylor recursion of phi' = F(phi).  The
    powers psi^k are kept per t-index and grow by one entry a step.

    The flow of phi' = phi^2 from phi(0) = 1 is 1/(1 - t), whose
    Hurwitz coefficients are the factorials:

    >>> psi = [[1]]
    >>> for value in _hurwitz_composite([0, 0, 1], psi, [1] * 4):
    ...     psi.append(value)
    >>> psi
    [[1], [1], [2], [6], [24]]
    """
    widths = list(widths)
    pascal = [_binomials(j) for j in range(max(widths, default=0))]
    powers = [[] for _ in F[2:]]  # powers[k-2][i] = (psi^k)_i
    for i, width in enumerate(widths):
        ci = _binomials(i)
        out = [F[1] * c for c in psi[i][:width]] if len(F) > 1 else [0] * width
        if i == 0 and F:
            out[0] += F[0]
        lower, rev = psi, psi[i::-1]
        for k, power in enumerate(powers, 2):
            # (psi^k)_(i,j) = sum C(i,p) C(j,q) (psi^(k-1))_(p,q) psi_(i-p,j-q)
            row = [
                sum(
                    cj[q] * sum(c * a[q] * b[j - q] for c, a, b in zip(ci, lower, rev))
                    for q in range(j + 1)
                )
                for j, cj in zip(range(width), pascal)
            ]
            power.append(row)
            if F[k]:
                out = [o + F[k] * r for o, r in zip(out, row)]
            lower = power
        yield out


def invert_scalar(c):
    # Exact reciprocal for int, Fraction and GaussianRational alike.
    if isinstance(c, int):
        return Fraction(1, c)
    return 1 / c


def seq_compose(outer, inner, order):
    """outer(inner(u)) through the given order; inner must have no
    constant term.

    On integer lanes: for outer = C/D_o and inner = I/D_i, the sum
    S_k = S_(k-1) D_i + C_k I^k through the last nonzero C_K is the
    numerator over D_o D_i^K, divided once per coefficient.  Every
    coefficient, zeros included, has the one type of the field of outer
    through the order and inner together.

    >>> from fractions import Fraction as F
    >>> seq_compose([0, F(1), F(1, 2)], [0, F(1)], 3)
    (Fraction(0, 1), Fraction(1, 1), Fraction(1, 2), Fraction(0, 1))
    """
    inner = list(inner)
    if inner and inner[0] != 0:
        raise ValueError("composition requires inner constant term 0")
    outer = list(outer)[: order + 1]
    do, cr, ci, outer_kind = to_lanes(outer)
    di, ir, ii, inner_kind = to_lanes(inner)
    kind = max(outer_kind, inner_kind)
    last = max((k for k, x in enumerate(cr) if x or ci and ci[k]), default=-1)
    power = [1], None
    sr, si = [0] * (order + 1), [0] * (order + 1)
    den = do
    for k in range(last + 1):
        if k:
            power = _mul_lanes(power, (ir, ii), order)
            den *= di
            sr, si = [x * di for x in sr], [y * di for y in si]
        a, b = cr[k], ci[k] if ci else 0
        if not (a or b):
            continue
        pr, pi = power
        for i, x in enumerate(pr):
            y = pi[i] if pi else 0
            sr[i] += a * x - b * y
            si[i] += a * y + b * x
    return tuple(from_lanes(x, si[i], den, kind) for i, x in enumerate(sr))


def compositional_inverse(p, order):
    """Formal compositional inverse of p, with p(0)=0 and p'(0) != 0.

    Read off the basic sequence of the delta operator p(d): its
    generating function sum_n q_n(t) u^n / n! is exp(t pinv(u)), so
    coefficient n of the inverse is beta(1, n) / n!, the t coefficient
    of q_n over n! (umbral._inverse_series).  The basis of depth order
    reads p_1 .. p_order, and so coefficients 1 .. order are all
    Fractions, or all GaussianRationals when a nonzero one of those is;
    coefficient 0 is the int 0.  The round trip p(inverse(u)) == u holds
    exactly through the requested order.

    >>> from fractions import Fraction as F
    >>> exp_minus_one = [0] + [F(1, math.factorial(k)) for k in range(1, 6)]
    >>> compositional_inverse(exp_minus_one, 4)
    (0, Fraction(1, 1), Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4))
    """
    from .umbral import DeltaOp, _inverse_series, basic_sequence_from_delta

    p = tuple(p)
    if not p or (p[0] != 0):
        raise ValueError("inverse requires constant term 0")
    if len(p) < 2 or p[1] == 0:
        raise ValueError("inverse requires a nonzero linear term")
    p += (0,) * (order + 1 - len(p))
    return _inverse_series(basic_sequence_from_delta(DeltaOp(p), order))


def rational_binomial(r, k):
    """Generalized binomial coefficient C(r, k) for rational r."""
    if k < 0:
        raise ValueError("negative k in binomial coefficient")
    r = Fraction(r)
    num = Fraction(1)
    for j in range(k):
        num *= r - j
    return num / math.factorial(k)


# ---------------------------------------------------------------------------
# XSeries

class XSeries:
    """Exact polynomial in x; coefficients past the stored list are zero."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        self.coeffs = tuple(_trim(coeffs))

    # -- constructors -------------------------------------------------
    @classmethod
    def zero(cls):
        return cls(())

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def x(cls):
        return cls((0, 1))

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def monomial(cls, c, k):
        return cls((0,) * k + (c,))

    # -- structure ----------------------------------------------------
    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Degree (-1 for the zero polynomial)."""
        return len(self.coeffs) - 1

    def coefficient(self, k):
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        if not isinstance(other, XSeries):
            other = XSeries.constant(other)
        return XSeries(_add_lists(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other if isinstance(other, XSeries) else XSeries.constant(-other))

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return XSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, XSeries):
            # sums start from the zero of the factors' field, so that
            # every coefficient, zeros included, has the field's type
            zero = _ZEROS[_kind(self.coeffs + other.coeffs)]
            return XSeries(_mul_lists(self.coeffs, other.coeffs, zero=zero))
        return XSeries([other * c for c in self.coeffs])

    __rmul__ = __mul__

    def derivative(self):
        """x-derivative."""
        return XSeries([i * c for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, value):
        """Evaluate at a scalar (Horner)."""
        return _horner(self.coeffs, value)

    def shift(self, a):
        """p(x + a), by Horner's rule in x + a."""
        one = a ** 0  # a's one: the coefficients land in the field of p and a
        acc = XSeries.zero()
        for c in reversed(self.coeffs):
            acc = acc * XSeries((a, one)) + c * one
        return acc

    # -- comparison / misc ---------------------------------------------
    def __eq__(self, other):
        if not isinstance(other, XSeries):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return _poly_str(self.coeffs, "x")


# ---------------------------------------------------------------------------
# derivative towers and the binomial convolution

def derivative_sequence(f, length):
    """The tuple (f, f', ..., f^(length-1)) of x-derivatives."""
    if length < 1:
        raise ValueError("length must be >= 1")
    entries = [f]
    for _ in range(length - 1):
        entries.append(entries[-1].derivative())
    return tuple(entries)


def hurwitz_product(F, G):
    """Binomial convolution of two sequences of equal length, as a tuple.

    Entry n is sum_k C(n,k) F[k] G[n-k]; the entries may be scalars or
    XSeries.  It is the product of the Hurwitz ring: of exponential
    generating functions, whose coefficients are n! [u^n], and, by the
    Leibniz rule, of derivative towers, giving the tower of f*g.
    """
    if len(F) != len(G):
        raise ValueError("length mismatch")
    out = []
    for n in range(len(F)):
        acc = F[0] * G[n]
        for k in range(1, n + 1):
            acc = acc + math.comb(n, k) * (F[k] * G[n - k])
        out.append(acc)
    return tuple(out)


# ---------------------------------------------------------------------------
# pretty printing / serialization helpers

def _poly_str(coeffs, var):
    from .scalars import format_scalar

    if not coeffs:
        return "0"
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        cs = format_scalar(c)
        if k == 0:
            parts.append(cs)
        else:
            head = "" if cs == "1" else ("-" if cs == "-1" else cs + "*")
            parts.append("%s%s" % (head, var if k == 1 else "%s^%d" % (var, k)))
    return " + ".join(parts).replace("+ -", "- ") or "0"
