"""Closed forms and the exact orbit of first-order difference maps.

A problem y_{n+1} = g(y_n) is rewritten as a forward difference system
with generator f = g - x.  iterate() computes the orbit exactly on
integers (homogeneous Horner with a small-modulus reduction; the
field-arithmetic Horner orbit it replaced is the test oracle);
solve_forward() evaluates the umbral closed form

    x + sum_k A_k(f)(x) C(n, k)

which terminates for integer n.  The values A_k(x0) are the Hurwitz
coefficients at x0 of the flow of phi' = f(phi), and they come from
its Taylor recursion u_(k+1) = f(u)_k on integers (or Gaussian
integers), the Hurwitz-ring kernel series._hurwitz_composite, with no
autonomous polynomial built.  _closed_column streams the rows
n = 0, 1, ... from that recursion, one step a row, each summed on
integers and divided once, so a digit cap stops the recursion at the
first row past it.  The closed form reproduces affine
maps and every polynomial fixed point exactly; for nonlinear maps away
from fixed points the umbral solution and the pointwise orbit are
different objects (the flow equation holds in the transported ring,
not composition by composition), and IterateTable reports the
disagreement honestly.  See also backward_relation_check and
abel_scaling_check for the exact coefficient identities tying the
forward, backward and Abel flows together.
"""

import functools
import json
from fractions import Fraction
from importlib import resources
from itertools import accumulate
from math import gcd

from .autonomous import aut_scale, autonomous_sequence, flow_from_autonomous
from .deltaflow import delta_flow, poly_flow_product
from .scalars import (
    GaussianRational,
    _lowest_terms,
    _reduce_over,
    digits_over,
    from_lanes,
    parse_scalar,
    rational_sqrt,
    to_lanes,
)
from .series import XSeries, _Gaussian, _hurwitz_composite, _lane
from .umbral import _Record, abel, backward, basic_sequence_from_delta, forward

__all__ = [
    "IterateTable",
    "DigitLimitError",
    "iterate",
    "solve_forward",
    "iterate_table",
    "solve_logistic",
    "solve_quadratic_map",
    "backward_relation_check",
    "abel_scaling_check",
    "load_corpus",
    "corpus_map",
]


class IterateTable(_Record):
    """Rows (n, closed, iterated, equal) for a difference problem."""

    _fields = ("rows",)

    def __init__(self, rows):
        vars(self).update(rows=rows)

    @property
    def all_equal(self):
        return all(r[3] for r in self.rows)


class DigitLimitError(ValueError):
    """A value of an orbit or closed form is longer than the digit cap."""


def _digit_limit(n, max_digits):
    return DigitLimitError(
        "the value at n = %d has more than %d decimal digits" % (n, max_digits)
    )


def _check_digits(value, n, max_digits):
    if max_digits is not None and digits_over(value, max_digits):
        raise _digit_limit(n, max_digits)


def iterate(g, x0, n, max_digits=None):
    """The orbit y_0 .. y_n of y_{k+1} = g(y_k), exactly.

    Each step runs on integers.  With g = G/C for integral G_0 .. G_d
    (G_d != 0) read once by to_lanes, and y = a/b, the next value is
    N/D with N = sum_k G_k a^k b^(d-k), by Horner's rule in a over the
    powers of b, and D = C b^d.

    Over Q, a/b is in lowest terms, and gcd(N, D) divides the small
    integer K = C |G_d|^d.  Proof: every term of N but G_d a^d has a
    factor b.  Let p^s, s >= 1, be the power of a prime p in b and
    t = v_p(G_d).  As p does not divide a, v_p(N) = t if t < s, and
    otherwise v_p(b^d) = ds <= dt; either way
    min(v_p(N), v_p(b^d)) <= dt, so gcd(N, b^d) divides G_d^d.  And
    gcd(N, C b^d) divides gcd(N, C) gcd(N, b^d), so it divides K.  The
    step therefore reduces by h = gcd(N mod K, D mod K, K), with no gcd
    of two long integers, and builds the Fraction N/h over D/h as it
    stands.

    Over Q(i), y = (a_r + a_i i)/b over the least common denominator
    b, and each Horner step multiplies by a_r + a_i i with three real
    products.  Each part N_r/D and N_i/D is put in lowest terms by gcds
    against the short r = C b_0, b_0 the common denominator of x0, or
    against factors of its powers (scalars._reduce_over), never by a
    gcd of two long integers.  This suffices because every prime of D
    divides r, by induction on the orbit: every prime of b_0 does, and
    if every prime of b_k does, so does every prime of D = C b_k^d and
    of its divisor b_(k+1), the next common denominator.  That is D/h
    for h = gcd(D/den(N_r/D), D/den(N_i/D)), the gcd of the factors
    the two parts divided out.

    Over Q(i), with a = a_r + a_i i and gcd(a_r, a_i, b) = 1, the
    common denominator D/h of the next value, h = gcd(N_r, N_i, D),
    has h dividing K = C Norm(G_d)^d 2^floor(d^2/2).  Proof: let p be
    a prime, e = v_p(h), so p^e divides N in Z[i] and D.  If p does not
    divide b, e <= v_p(C).  Otherwise let s = v_p(b) >= 1 and write
    N = G_d a^d + b M with M in Z[i].  Some Gaussian prime pi over p,
    with r = v_pi(p), does not divide a, unless p = 2 and 1 + i divides
    a (if every pi over p divided a, so would p, and p would divide
    a_r, a_i and b).  For such a pi let t = v_pi(G_d) <= r
    v_p(Norm(G_d)): if t < rs, v_pi(N) = t >= re, else rs <= t and
    e <= v_p(D) = v_p(C) + ds <= v_p(C) + dt/r; either way
    e <= v_p(C) + d v_p(Norm(G_d)).  In the case left, v_pi(a) = 1 for
    pi = 1 + i (v_pi(a) >= 2 would make 2 divide a), r = 2, and the same
    two cases with t + d in place of t give
    e <= v_2(C) + d v_2(Norm(G_d)) + floor(d^2/2).

    y_1 .. y_n have the one type of the field of g's coefficients and
    x0 together (int, Fraction or GaussianRational), and the int 0 for
    the zero map: the types of Horner's rule in their own arithmetic.
    With max_digits, stop with DigitLimitError at the first value
    holding an integer (numerator or denominator of a part) of more
    decimal digits; the orbit is not computed past it.  A value is
    refused before it is computed when the bounds above prove it too
    long: over Q its denominator is at least D/K, and over Q(i) the
    larger denominator of its two parts is at least the square root of
    D/K, their least common multiple.  Either way the refusal comes at
    the same n as it would after computing the value.
    """
    ys = [x0]
    _check_digits(x0, 0, max_digits)
    if g.is_zero:
        return tuple(ys + [0] * n)
    # 2^bits >= 10^max_digits, since 2^3.322 > 10
    bits = None if max_digits is None else -(-3322 * max_digits // 1000)
    C, Gr, Gi, kind = to_lanes(g.coeffs)
    b, (ar,), ai, x0_kind = to_lanes([x0])
    if Gi is None and ai is None:
        kind = max(kind, x0_kind)
        values = (_real_value(a, b, kind) for a, b in _q_orbit(Gr, C, ar, b, bits))
    else:
        values = _qi_orbit(Gr, Gi or [0] * len(Gr), C, ar, ai[0] if ai else 0, b, bits)
    for k, y in zip(range(1, n + 1), values):
        _check_digits(y, k, max_digits)
        ys.append(y)
    if len(ys) <= n:  # the orbit stopped at a value proven too long
        raise _digit_limit(len(ys), max_digits)
    return tuple(ys)


def _proven_over(C, b, d, K, bits):
    """Whether D/K > 2^bits for D = C b^d, from bit lengths alone:
    D >= 2^(len(C) - 1 + d (len(b) - 1)) and K < 2^len(K)."""
    return C.bit_length() - 1 + d * (b.bit_length() - 1) - K.bit_length() >= bits


def _q_factor(G, C):
    """K = C |G_d|^d, which every gcd(N, D) of a step over Q divides
    (see iterate)."""
    d = len(G) - 1
    return C * abs(G[d]) ** d


def _qi_factor(Gr, Gi, C):
    """K = C Norm(G_d)^d 2^floor(d^2/2), which every gcd(N_r, N_i, D)
    of a step over Q(i) divides (see iterate)."""
    d = len(Gr) - 1
    return C * (Gr[d] ** 2 + Gi[d] ** 2) ** d * 2 ** (d * d // 2)


def _real_value(a, b, kind):
    """a/b in lowest terms as a scalar of the given kind (see to_lanes)."""
    if kind == 0:
        return a  # over Z, b is 1
    q = _lowest_terms(a, b)
    return q if kind == 1 else GaussianRational(q)


def _powers(b, d):
    bp = [1]
    for _ in range(d):
        bp.append(bp[-1] * b)
    return bp


def _q_orbit(G, C, a, b, bits):
    """g(y), g(g(y)), ... as pairs (num, den) in lowest terms, den > 0,
    for g = G/C and y = a/b in lowest terms (see iterate); stops before
    a value whose denominator is proven to exceed 2^bits."""
    d = len(G) - 1
    K = _q_factor(G, C)
    while True:
        if bits is not None and _proven_over(C, b, d, K, bits):
            return
        bp = _powers(b, d)
        N = G[d]
        for k in range(d - 1, -1, -1):
            N *= a
            if G[k]:
                N += G[k] * bp[d - k]
        D = C * bp[d]
        h = gcd(N % K, D % K, K)
        a, b = (N // h, D // h) if h > 1 else (N, D)
        yield a, b


def _qi_orbit(Gr, Gi, C, ar, ai, b, bits):
    """g(y), g(g(y)), ... as GaussianRationals, for g = (Gr + Gi i)/C
    and y = (ar + ai i)/b over the least common denominator b (see
    iterate); stops before a value with a part whose denominator is
    proven to exceed 2^bits.  Each part is reduced against r = C b,
    whose primes include every prime of every later denominator."""
    d = len(Gr) - 1
    K = _qi_factor(Gr, Gi, C)
    r = C * b
    while True:
        if bits is not None and _proven_over(C, b, d, K, 2 * bits):
            return
        bp = _powers(b, d)
        s, t = ar + ai, ai - ar
        nr, ni = Gr[d], Gi[d]
        for k in range(d - 1, -1, -1):
            # (nr + ni i)(ar + ai i) with k1 = ar (nr + ni) is
            # (k1 - ni (ar + ai)) + (k1 + nr (ai - ar)) i
            k1 = ar * (nr + ni)
            nr, ni = k1 - ni * s, k1 + nr * t
            p = bp[d - k]
            nr += Gr[k] * p
            ni += Gi[k] * p
        D = C * bp[d]
        re, im = _reduce_over(nr, D, r), _reduce_over(ni, D, r)
        h = gcd(D // re.denominator, D // im.denominator)
        ar, ai, b = nr // h, ni // h, D // h
        yield GaussianRational(re, im)


def _closed_column(g, x0, n_max, max_digits=None):
    """Yield x0 + sum_k A_k(x0) C(n, k) for n = 0 .. n_max.

    A_k(x0) is the Hurwitz coefficient u_k at x0 of the flow of
    phi' = f(phi), f = g - x, and u_(k+1) = f(u)_k
    (series._hurwitz_composite); no autonomous polynomial is built.
    With f = F/d of degree m >= 1 (a constant or zero f is taken as of
    degree 1, so c = d) and x0 = a/b over the least common denominator
    b, b f(y/b) = G(y)/c for G_j = F_j b^(m-j) and c = d b^(m-1), so
    b phi(c t) is the flow of G from a.  Its Hurwitz coefficients v_k
    are integers, or Gaussian integers over Q(i), with v_0 = a and
    A_k(x0) = v_k / (b c^k).

    Row n is therefore E_n / (b c^n) for E_n = sum_k C(n, k) c^(n-k) v_k,
    the last entry of the diagonal e_0 = v_n, e_(j+1) = c e*_j + e_j,
    where e* is the diagonal of row n - 1: by induction
    e_j = sum_i C(j, i) c^i v_(n-i).  Each row is divided out once, in
    the field of x0 and A_1 .. A_(n_max) together (see
    scalars.to_lanes): that of x0 alone for n_max = 0 or f = 0.  Row n
    reads v_0 .. v_n only: with max_digits, the first row past it
    raises DigitLimitError before the next v_k is computed.
    """
    d, fr, fi, kind = to_lanes((g - XSeries.x()).coeffs)
    b, (ar,), ai, x0_kind = to_lanes([x0])
    kind = max(kind, x0_kind) if n_max else x0_kind
    gaussian = fi is not None or ai is not None
    pad = [0] * (2 - len(fr))  # a constant or zero f, as of degree 1
    fi = (fi or [0] * len(fr)) + pad
    fr = fr + pad
    m = len(fr) - 1
    c = d * b ** (m - 1)
    G = [_lane(r * b ** (m - j), i * b ** (m - j)) for j, (r, i) in enumerate(zip(fr, fi))]
    psi = [[_lane(ar, ai[0] if ai else 0)]]
    values = _hurwitz_composite(G, psi, [1] * n_max)
    re, im, den = [], [], b
    for n in range(n_max + 1):
        if n:
            psi.append(next(values))
            den *= c
        (v,) = psi[n]
        vr, vi = (v.re, v.im) if type(v) is _Gaussian else (v, 0)
        re = list(accumulate(map(c.__mul__, re), initial=vr))
        im = list(accumulate(map(c.__mul__, im), initial=vi)) if gaussian else [0]
        row = from_lanes(re[-1], im[-1], den, kind)
        _check_digits(row, n, max_digits)
        yield row


def solve_forward(g, x0, n):
    """Evaluate the forward closed form x0 + sum_k A_k(x0) C(n, k).

    The binomial coefficients vanish for k > n, so the sum is finite
    and exact; it is the last row of _closed_column.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    *_, closed = _closed_column(g, x0, n)
    return closed


def iterate_table(g, x0, n_max, max_digits=None):
    """Closed form against the iteration oracle, row by row: iterate,
    then _closed_column, so that a refused orbit costs no closed column.
    With max_digits, a value of either column past the cap raises
    DigitLimitError.
    """
    orbit = iterate(g, x0, n_max, max_digits)
    closed = _closed_column(g, x0, n_max, max_digits)
    return IterateTable(tuple((n, c, y, c == y) for n, (c, y) in enumerate(zip(closed, orbit))))


def logistic_map(mu):
    """g(x) = mu x (1 - x)."""
    return XSeries((0, mu, -mu))


def logistic_factors(mu):
    """Affine factors of the generator f = -x (mu x - (mu - 1))."""
    return [(-1, 0), (mu, 1 - mu)]


def solve_logistic(mu, x0, n):
    """Logistic value at time n through the factored semiflow product.

    Builds the forward flow from the two affine factors of the
    generator and evaluates at integer time; the zeros of the
    generator (0 and (mu-1)/mu) are preserved exactly.
    """
    if mu == 0:
        raise ValueError("mu must be nonzero")
    order = max(n, 1)
    Q = forward(order)
    psi = poly_flow_product(logistic_factors(mu), Q, order)
    return x0 + psi.evaluate(n, x0)


def quadratic_map(c):
    """g(z) = z^2 + c."""
    return XSeries((c, 0, 1))


def quadratic_alpha(c):
    """Root alpha of x^2 - x + c inside Q(i), when representable.

    Requires 4c - 1 to be a perfect rational square, so that
    alpha = (1 + sqrt(4c-1) i)/2 lies in Q(i); returns None otherwise.
    """
    if isinstance(c, GaussianRational):
        if not c.is_real:
            return None
        c = c.re
    root = rational_sqrt(4 * Fraction(c) - 1)
    if root is None:
        return None
    return GaussianRational(Fraction(1, 2), root / 2)


def solve_quadratic_map(c, z0, n):
    """Value z_n of z_{k+1} = z_k^2 + c through the factored flow.

    Uses the conjugate affine factorization of x^2 - x + c over Q(i)
    when the root is representable; otherwise falls back to the
    unfactored forward closed form.
    """
    alpha = quadratic_alpha(c)
    if alpha is None:
        return solve_forward(quadratic_map(c), z0, n)
    order = max(n, 1)
    Q = forward(order)
    psi = poly_flow_product([(1, -alpha), (1, -alpha.conjugate())], Q, order)
    return z0 + psi.evaluate(n, z0)


def backward_relation_check(f, order):
    """Residual of Phi_bwd(t, x, f) = Phi_fwd(-t, x, -f).

    Both sides are expanded to monomial form: the left over rising
    factorials, the right by scaling the generator sequence by -1 and
    substituting t -> -t.  The difference vanishes identically.

    Rising factorials do not vanish at large integer arguments, so a
    backward flow has no finite integer-time evaluation; this
    coefficient identity (and numerical partial sums) is how it is
    validated.
    """
    lhs = delta_flow(f, backward(order), order).to_tseries()
    aut = aut_scale(-1, autonomous_sequence(f, order))
    fwd_basis = basic_sequence_from_delta(forward(order), order)
    rhs = flow_from_autonomous(aut, fwd_basis).to_tseries().t_scale(-1)
    return lhs - rhs


def abel_scaling_check(alpha, a, f, order):
    """Residual of Phi_Abel(alpha)(t, x, a f) = Phi_Abel(a alpha)(a t, x, f).

    Scaling the generator sequence by a on the left matches rescaling
    both time and the Abel parameter on the right; the monomial
    expansions agree exactly.
    """
    aut = aut_scale(a, autonomous_sequence(f, order))
    lhs_basis = basic_sequence_from_delta(abel(alpha, order), order)
    lhs = flow_from_autonomous(aut, lhs_basis).to_tseries()
    rhs = delta_flow(f, abel(a * alpha, order), order).to_tseries().t_scale(a)
    return lhs - rhs


# ---------------------------------------------------------------------------
# the fixed corpus of test maps

@functools.cache
def _corpus():
    """The parsed corpus by name, read once per process."""
    text = resources.files("deltadyn").joinpath("corpus.json").read_text()
    return {e["name"]: _parse_entry(e) for e in json.loads(text)["maps"]}


def _copy_entry(entry):
    # the maps and scalars are immutable; the dicts are not
    return dict(entry, params=dict(entry["params"]))


def load_corpus():
    """The corpus of difference maps shipped with the package.

    corpus.json is read and parsed once per process; each call returns
    a fresh list of fresh dicts, so a caller may change them freely.
    """
    return [_copy_entry(e) for e in _corpus().values()]


def _parse_entry(entry):
    field = entry.get("field", "Q")
    kind = entry["kind"]
    if kind == "poly":
        g = XSeries([parse_scalar(c, field) for c in entry["g"]])
    elif kind == "logistic":
        g = logistic_map(parse_scalar(entry["mu"], field))
    elif kind == "quadratic":
        g = quadratic_map(parse_scalar(entry["c"], field))
    else:
        raise ValueError("unknown corpus kind %r" % kind)
    return {
        "name": entry["name"],
        "kind": kind,
        "field": field,
        "g": g,
        "params": {
            k: entry[k] for k in ("mu", "c") if k in entry
        },
    }


def corpus_map(name):
    """The entry of load_corpus named name, as a fresh dict."""
    entry = _corpus().get(name)
    if entry is None:
        raise KeyError("no corpus map named %r" % name)
    return _copy_entry(entry)
