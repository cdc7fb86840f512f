"""Exact scalars: rationals and Gaussian rationals.

All coefficient arithmetic in this package happens over an exact
characteristic-zero field: plain rationals (fractions.Fraction) or
Gaussian rationals a + b*i (GaussianRational).  The two kinds mix
freely; results promote to GaussianRational whenever an imaginary
part is involved, and collapse back to comparing equal with plain
rationals when the imaginary part is zero.

Scalars serialize to strings of the form ``-3``, ``5/7`` or
``1/2-3/4*i`` and parse back exactly.
"""

import math
import re
from fractions import Fraction

__all__ = [
    "GaussianRational",
    "I",
    "format_scalar",
    "parse_scalar",
    "rational_sqrt",
    "to_gaussian",
]


class GaussianRational:
    """An element a + b*i of the field Q(i), with exact Fraction parts.

    Instances are immutable by convention and hash consistently with
    Fraction when the imaginary part vanishes, so mixed collections of
    rationals and Gaussian rationals behave sensibly.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # Fraction parts, which every arithmetic result has, are kept as-is
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        return None

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    @property
    def is_real(self):
        return self.im == 0

    def norm(self):
        """The rational norm a^2 + b^2 (exact, nonnegative)."""
        return self.re * self.re + self.im * self.im

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        n = o.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / n,
            (self.im * o.re - self.re * o.im) / n,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        result = GaussianRational(1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __pos__(self):
        return self

    def __eq__(self, other):
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return self.re != 0 or self.im != 0

    def __repr__(self):
        return "GaussianRational(%r, %r)" % (self.re, self.im)

    def __str__(self):
        return format_scalar(self)


I = GaussianRational(0, 1)


def to_gaussian(value):
    """Promote an exact scalar to GaussianRational."""
    g = GaussianRational._coerce(value)
    if g is None:
        raise TypeError("not an exact scalar: %r" % (value,))
    return g


def format_scalar(value):
    """Render an exact scalar as '-3', '5/7' or 'a/b+c/d*i'."""
    if isinstance(value, GaussianRational):
        if value.im == 0:
            return str(value.re)
        sign = "+" if value.im > 0 else "-"
        return "%s%s%s*i" % (value.re, sign, abs(value.im))
    if isinstance(value, (int, Fraction)):
        return str(Fraction(value))
    raise TypeError("not an exact scalar: %r" % (value,))


_RATIONAL = r"[+-]?\d+(?:/\d+)?"
_RATIONAL_RE = re.compile(r"^(%s)$" % _RATIONAL)
# An imaginary part is a sign, an optional magnitude "c/d*" and "i".
_IMAG = r"(?:(\d+(?:/\d+)?)\*)?i"
_COMPOSITE_RE = re.compile(r"^(%s)([+-])%s$" % (_RATIONAL, _IMAG))
_IMAGINARY_RE = re.compile(r"^([+-]?)%s$" % _IMAG)


def parse_scalar(text, field="Q"):
    """Parse '-3', '5/7' or 'a/b+c/d*i' into an exact scalar.

    field 'Q' accepts rationals only and returns Fraction; field 'Qi'
    also accepts composites and returns GaussianRational.  A unit
    imaginary part may omit its magnitude: 'i', '-i', 'a+i', 'a-i'.
    """
    s = text.strip().replace(" ", "")
    if field == "Q":
        m = _RATIONAL_RE.match(s)
        if not m:
            raise ValueError("not a rational: %r" % text)
        return Fraction(s)
    if field != "Qi":
        raise ValueError("unknown field %r (expected 'Q' or 'Qi')" % field)
    m = _COMPOSITE_RE.match(s)
    if m:
        real, sign, magnitude = m.groups()
        return GaussianRational(Fraction(real), Fraction(sign + (magnitude or "1")))
    m = _IMAGINARY_RE.match(s)
    if m:
        sign, magnitude = m.groups()
        return GaussianRational(0, Fraction(sign + (magnitude or "1")))
    m = _RATIONAL_RE.match(s)
    if m:
        return GaussianRational(Fraction(s))
    raise ValueError("not a Q(i) scalar: %r" % text)


def rational_sqrt(value):
    """Exact square root of a nonnegative rational, or None.

    Returns a Fraction r with r*r == value when value is a perfect
    square in Q, else None.
    """
    q = Fraction(value)
    if q < 0:
        return None
    np = math.isqrt(q.numerator)
    dp = math.isqrt(q.denominator)
    if np * np != q.numerator or dp * dp != q.denominator:
        return None
    return Fraction(np, dp)
