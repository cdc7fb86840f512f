"""Exact scalars: rationals and Gaussian rationals.

All coefficient arithmetic in this package happens over an exact
characteristic-zero field: plain rationals (fractions.Fraction) or
Gaussian rationals a + b*i (GaussianRational).  The two kinds mix
freely; results promote to GaussianRational whenever an imaginary
part is involved, and collapse back to comparing equal with plain
rationals when the imaginary part is zero.

Scalars serialize to strings of the form ``-3``, ``5/7`` or
``1/2-3/4*i`` and parse back exactly.

The integer kernels of the package (autonomous polynomials, basis
expansion) work on integer lanes: a list of scalars becomes one common
denominator and two integer vectors, real and imaginary parts of the
numerators.  The list also has a kind, the field its scalars live in:
0 (int) over Z, 1 (Fraction) over Q, 2 (GaussianRational) over Q(i).
A kernel returns every coefficient, zeros included, as the one type of
the field of its inputs.
"""

import math
import re
import sys
from fractions import Fraction

__all__ = [
    "GaussianRational",
    "I",
    "format_scalar",
    "format_lanes",
    "parse_scalar",
    "rational_sqrt",
    "to_lanes",
    "from_lanes",
    "digits_over",
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
        # (a + b*i)^e / d^e for self = (a + b*i) / d, by squaring on
        # integers; each part is put in lowest terms against d, which
        # every prime of d^e divides
        d, (a,), b, _ = to_lanes([self])
        b = b[0] if b else 0
        x, y, e = 1, 0, exponent
        while e:
            if e & 1:
                x, y = x * a - y * b, x * b + y * a
            e >>= 1
            if e:
                a, b = a * a - b * b, 2 * a * b
        den = d**exponent
        return GaussianRational(_reduce_over(x, den, d), _reduce_over(y, den, d))

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


def _kind(values):
    """The field of some exact scalars: 2 if any is a GaussianRational,
    else 1 if any is a Fraction, else 0 (Z)."""
    types = set(map(type, values))
    return 2 if GaussianRational in types else 1 if Fraction in types else 0


# The zero of each kind of field.
_ZEROS = (0, Fraction(0), GaussianRational(0))


def _kinds(values):
    """The kind of each scalar as two bit masks (k1, k2): bit j of k1 is
    set when values[j] is a Fraction or a GaussianRational, of k2 when
    a GaussianRational, so the kind of values[j] is the sum of the bits."""
    k1 = k2 = 0
    for j, v in enumerate(values):
        if type(v) is GaussianRational:
            k2 |= 1 << j
        if type(v) in (Fraction, GaussianRational):
            k1 |= 1 << j
    return k1, k2


def to_lanes(values):
    """Integer lanes (den, re, im, kind) of a list of exact scalars.

    den is the least common denominator of every real and imaginary
    part, and re[j] + im[j]*i == den * values[j] in integers; im is
    None when every imaginary part is zero.  kind is 2 if any value is
    a GaussianRational, else 1 if any is a Fraction, else 0.
    """
    kind = _kind(values)
    parts = [(v.re, v.im) if type(v) is GaussianRational else (v, 0) for v in values]
    den = math.lcm(*[x.denominator for pair in parts for x in pair])
    re = [r.numerator * (den // r.denominator) for r, _ in parts]
    if not any(m for _, m in parts):
        return den, re, None, kind
    return den, re, [m.numerator * (den // m.denominator) for _, m in parts], kind


def from_lanes(re, im, den, kind):
    """The scalar (re + im*i) / den as an int, Fraction or
    GaussianRational (kind 0, 1 or 2, as in to_lanes); kinds 0 and 1
    need im == 0, and kind 0 needs den to divide re."""
    if kind == 2:
        return GaussianRational(Fraction(re, den), Fraction(im, den))
    if kind == 1:
        return Fraction(re, den)
    return re // den


def _lowest_terms(num, den):
    """Fraction(num, den) for coprime num and den > 0, built without
    the gcd that the constructor takes."""
    q = object.__new__(Fraction)
    q._numerator, q._denominator = num, den
    return q


def _reduce_over(num, den, r):
    """Fraction(num, den) for den > 0 whose every prime divides r > 0,
    reduced by gcds of residues mod q, where q is r or the square of a
    factor already divided out, never by one gcd of num and den.

    A zero num gives 0 at once.  Otherwise each round divides out
    g = gcd(num mod q, den mod q, q), starting at q = r; as every prime
    of den divides r, the first round finds every prime num and den
    share.  The next round takes q = g^2, so each shared prime is
    divided out to at most twice the power the round before it did,
    and a prime shared to the power m costs O(log m) rounds.
    """
    if not num:
        return _lowest_terms(0, 1)
    q = r
    while (g := math.gcd(num % q, den % q, q)) > 1:
        num //= g
        den //= g
        q = g * g
    return _lowest_terms(num, den)


def format_scalar(value):
    """Render an exact scalar as '-3', '5/7' or 'a/b+c/d*i'.

    A long numerator or denominator prints in subquadratic time (see
    _int_str), under CPython's limit on int-to-str conversion.
    """
    if isinstance(value, GaussianRational):
        re, im = value.re, value.im
        return _spell(re.numerator, re.denominator, im.numerator, im.denominator)
    if isinstance(value, (int, Fraction)):
        return _ratio_str(value.numerator, value.denominator)
    raise TypeError("not an exact scalar: %r" % (value,))


def format_lanes(den, re, im):
    """format_scalar of each (re[j] + im[j]*i) / den through the last
    nonzero one, for a row (den, re, im) of integer lanes as in
    to_lanes; no scalar is built, and each part takes one gcd."""
    top = len(re)
    while top and not (re[top - 1] or im and im[top - 1]):
        top -= 1
    out = []
    for j in range(top):
        a, b = re[j], im[j] if im else 0
        g, h = math.gcd(a, den), math.gcd(b, den)
        out.append(_spell(a // g, den // g, b // h, den // h))
    return out


def _spell(a, b, c, d):
    """The spelling of a/b + (c/d)*i for coprime a, b and coprime c, d,
    with b, d > 0: the imaginary part only when c != 0."""
    re = _ratio_str(a, b)
    if not c:
        return re
    im = _ratio_str(c, d)
    return "%s%s%s*i" % (re, "" if im[0] == "-" else "+", im)


def _ratio_str(num, den):
    """str(Fraction(num, den)) for coprime num and den > 0."""
    return _int_str(num) if den == 1 else "%s/%s" % (_int_str(num), _int_str(den))


# Above this bit length _int_str beats str(), CPython 3.11's quadratic
# conversion: 1.3x faster at 40k bits, 2.2x at 100k, 5x at 300k, while
# str() is 10% faster at 32k (Python 3.11.7, 2-CPU x86-64 VM, best of 5
# over 20 random ints per size).
_DC_MIN_BITS = 40000
# Ints of at most this many bits go to Decimal whole; 1k-4k bit leaves
# timed the same on the machine above.
_DC_LEAF_BITS = 2048
# 2^w as an exact Decimal for w = _DC_LEAF_BITS * 2^j, shared by every
# call of _int_str: one entry per j, the largest about half as long as
# the longest int printed.
_POW2 = {}


def _int_str(n):
    """str(n), in subquadratic time for a long int n.

    Radix conversion by divide and conquer (Brent and Zimmermann,
    Modern Computer Arithmetic, 2010, sec. 1.7): |n| < 2^(2h) is split
    at 2^h into a high and a low part, each is converted to an exact
    Decimal recursively, and the two are joined as lo + hi * 2^h, so
    libmpdec's fast multiplication does the work.  The widths h are
    _DC_LEAF_BITS * 2^j, so the powers 2^h are shared across calls, and
    an empty high part is skipped.  An int that may have more digits
    than CPython's limit on int-to-str conversion goes to str(), which
    raises the same ValueError.
    """
    bits = n.bit_length()
    if bits <= _DC_MIN_BITS:
        return str(n)
    limit = sys.get_int_max_str_digits()
    if limit and digits_over(n, limit):
        return str(n)
    import decimal

    D = decimal.Decimal

    def pow2(h):
        p = _POW2.get(h)
        if p is None:
            p = D(2) ** h if h == _DC_LEAF_BITS else pow2(h >> 1) ** 2
            _POW2[h] = p
        return p

    def convert(m, w):
        # 0 <= m < 2^w, w = _DC_LEAF_BITS * 2^j
        if w == _DC_LEAF_BITS:
            return D(m)
        h = w >> 1
        hi = m >> h
        if not hi:
            return convert(m, h)
        return convert(m - (hi << h), h) + convert(hi, h) * pow2(h)

    width = _DC_LEAF_BITS
    while width < bits:
        width <<= 1
    with decimal.localcontext() as ctx:
        ctx.prec = decimal.MAX_PREC
        ctx.Emax = decimal.MAX_EMAX
        ctx.Emin = decimal.MIN_EMIN
        ctx.traps[decimal.Inexact] = True
        digits = str(convert(abs(n), width))
    return "-" + digits if n < 0 else digits


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
    A zero denominator is a ValueError, like any other bad spelling,
    and so is an integer longer than CPython's limit on the digits of
    an int read from a string.
    """
    s = text.strip().replace(" ", "")

    def rational(part):
        try:
            return Fraction(part)
        except ZeroDivisionError:
            raise ValueError("zero denominator in %r" % text) from None
        except ValueError:
            # the regex has passed, so only CPython's limit on the
            # digits of an int read from a string is left to fail
            limit = sys.get_int_max_str_digits()
            raise ValueError("number has more than %d digits" % limit) from None

    if field == "Q":
        m = _RATIONAL_RE.match(s)
        if not m:
            raise ValueError("not a rational: %r" % text)
        return rational(s)
    if field != "Qi":
        raise ValueError("unknown field %r (expected 'Q' or 'Qi')" % field)
    m = _COMPOSITE_RE.match(s)
    if m:
        real, sign, magnitude = m.groups()
        return GaussianRational(rational(real), rational(sign + (magnitude or "1")))
    m = _IMAGINARY_RE.match(s)
    if m:
        sign, magnitude = m.groups()
        return GaussianRational(0, rational(sign + (magnitude or "1")))
    m = _RATIONAL_RE.match(s)
    if m:
        return GaussianRational(rational(s))
    raise ValueError("not a Q(i) scalar: %r" % text)


def digits_over(value, cap):
    """Whether an integer printed for value (a numerator or denominator
    of a real or imaginary part) has more than cap decimal digits.

    Decided from bit lengths; only an integer within a few bits of
    10**cap is compared with it.
    """
    parts = (value.re, value.im) if isinstance(value, GaussianRational) else (value,)
    for part in parts:
        for n in (abs(part.numerator), part.denominator):
            bits = n.bit_length()
            # 2^(bits-1) <= n < 2^bits and log10(2) = 0.30102999...
            if bits * 0.30103 + 1 <= cap:
                continue
            if (bits - 1) * 0.30102 >= cap or n >= 10**cap:
                return True
    return False


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
