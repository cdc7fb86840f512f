"""The flow identities certified at integer points, in Hurwitz coordinates.

The group law (autonomous), the delta flow equation (deltaflow), whose
case Q = d/dt is the flow PDE, and its form in basic coordinates are
identities whose coefficients are polynomials in x.  Setting x = x0
commutes with every operation they use, and in the paper's Hurwitz
ring over an integral domain each point is integral: for f = F/d with
F integral, the flow of f is the flow of F with t scaled by 1/d, whose
Hurwitz coefficients (of t^n/n!) at an integer x0 are the integers
P_n(x0) of autonomous_sequence.  f(Phi) is then a chain of binomial
convolutions (series._hurwitz_composite) with no division (Keigher, "On
the ring of Hurwitz series", Comm. Algebra 25, 1997), and the form in
basic coordinates needs only F(x0) and a further row set, the A_n' at x0.
Every row set is read as autonomous_sequence gives it: row n is the
integer numerator of a polynomial over d^n, read at x0 by Horner, with
its denominator left unread.

_certify runs a check first on degrees, to bound the degree D of every
residual by the actual degrees of f and of the rows, and then at the
D + 1 points 0, 1, -1, 2, ...: a nonzero polynomial of degree <= D has
at most D roots, so residuals zero at all of them are identically zero.
Nonzero residuals are interpolated back exactly.  Values run on ints,
and on series._Gaussian (two ints) where an imaginary part occurs.
"""

from fractions import Fraction

from .scalars import GaussianRational, to_lanes
from .series import XSeries, _Gaussian, _horner, _lane

__all__ = []


class _Degree:
    """An upper bound on the degree in x of a point value.

    A point recursion run on _Degree inputs returns a bound on the
    degree of every value it computes: a sum has at most the larger
    degree, a product at most the sum of the two, a nonzero scalar
    factor keeps the degree, and the int 0 is the zero polynomial.
    """

    __slots__ = ("d",)

    def __init__(self, d):
        self.d = d

    def __add__(self, o):
        return o if type(o) is _Degree and o.d > self.d else self

    __radd__ = __sub__ = __rsub__ = __add__

    def __neg__(self):
        return self

    def __mul__(self, o):
        if type(o) is _Degree:
            return _Degree(self.d + o.d)
        return self if o else 0

    __rmul__ = __mul__


def _integral(f):
    """(d, F, kind) for f = F/d with F integral: F's coefficients as
    point values, and kind the field of f as in scalars.to_lanes."""
    d, fr, fi, kind = to_lanes(f.coeffs)
    return d, [_lane(r, fi[k] if fi else 0) for k, r in enumerate(fr)], kind


def _points(count):
    """The integer points 0, 1, -1, 2, -2, ..., count of them."""
    return [(k + 1) // 2 * (1 if k % 2 else -1) for k in range(count)]


def _flow_at(rows, x):
    """u_0 = x and u_n = P_n(x), by Horner, for the rows (d^n, P_n) of
    the flow of f = F/d: the Hurwitz coefficients at x of the flow of F.
    The rows must be over d^n, as autonomous_sequence gives them; the
    denominators are not read.

    x' = x^2 has the flow x/(1 - tx) = sum x^(n+1) t^n, so at x = 2:

    >>> from deltadyn.autonomous import autonomous_sequence
    >>> _flow_at(autonomous_sequence(XSeries((0, 0, 1)), 5).numerators[1], 2)
    [2, 4, 16, 96, 768, 7680]
    """
    return [x] + [
        _horner(re, x) if im is None else _Gaussian(_horner(re, x), _horner(im, x))
        for _, re, im in rows
    ]


def _flow_degrees(rows):
    """_flow_at on degrees: x has degree 1 and u_n the actual degree of
    its row."""
    u = [_Degree(1)]
    for _, re, im in rows:
        top = [k for k, r in enumerate(re) if r or (im and im[k])]
        u.append(_Degree(top[-1]) if top else 0)
    return u


def _newton(xs, ys):
    """Coefficients of the polynomial of degree < len(xs) taking the
    values ys at the points xs, by Newton's divided differences."""
    c = [Fraction(y) for y in ys]
    n = len(xs)
    for j in range(1, n):
        for k in range(n - 1, j - 1, -1):
            c[k] = (c[k] - c[k - 1]) / (xs[k] - xs[k - j])
    poly = []
    for k in range(n - 1, -1, -1):  # poly -> poly * (x - xs[k]) + c[k]
        poly = [0] + poly
        for m in range(len(poly) - 1):
            poly[m] -= xs[k] * poly[m + 1]
        poly[0] += c[k]
    return poly


def _interpolate(xs, ys, scale, kind):
    """scale times the polynomial taking the values ys at xs, as an
    XSeries with GaussianRational coefficients for kind 2, else
    Fraction ones; real and imaginary parts are interpolated apart."""
    if not any(ys):
        return XSeries.zero()
    re = _newton(xs, [y.re if type(y) is _Gaussian else y for y in ys])
    if kind < 2:
        return XSeries([c * scale for c in re])
    im = _newton(xs, [y.im if type(y) is _Gaussian else 0 for y in ys])
    return XSeries([GaussianRational(r * scale, i * scale) for r, i in zip(re, im)])


def _certify(at, F, scales, kinds, *row_sets):
    """The residual polynomials of a flow identity, from integer points.

    at(F, u, *v) lists the numerators of the residuals at one point from
    the point values F of the integral generator F = d f and the values
    _flow_at gives there for each row set: u of the first, the rows of
    the flow of f, and v of each further one, read alike.  Row n of
    every row set must be over d^n, as autonomous_sequence gives it.
    Residual r is the polynomial in x whose value at the point is
    scales[r] times entry r.

    at runs first on degrees (_Degree): the actual degrees of F's
    coefficients and of the rows give a bound D on the degree of every
    residual, and a row of unexpected degree widens D with it.  A
    nonzero polynomial of degree <= D has at most D roots, so residuals
    that vanish at the D + 1 points 0, 1, -1, 2, ... are identically
    zero, and they are returned as zero XSeries.  Otherwise each
    residual is interpolated back exactly from its D + 1 values, with
    coefficients of the kind kinds[r] (see _interpolate).
    """
    bounds = at([_Degree(0) if c else 0 for c in F], *map(_flow_degrees, row_sets))
    D = max((b.d for b in bounds if b), default=0)
    xs = _points(D + 1)
    values = [at(F, *(_flow_at(rows, x) for rows in row_sets)) for x in xs]
    if not any(any(v) for v in values):
        return [XSeries.zero()] * len(bounds)
    return [_interpolate(xs, ys, s, kind) for ys, s, kind in zip(zip(*values), scales, kinds)]
