"""Independent oracles used by the tests.

Everything here up to the last section is deliberately written against
plain coefficient lists with Fraction entries, without touching the
package's own series classes, so expected values come from a second
route.  The last section keeps the field-arithmetic loops that the
package's integer kernels replaced; they run on whatever scalars and
XSeries they are given: the autonomous recursion, the basis expansion,
the flow coefficients A_n * 1/n! and the Horner orbit.  The Taylor sum
form of composition, which Horner's rule replaced in the package,
follows them.
"""

import math
from fractions import Fraction
from itertools import permutations


def padd(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(n)
    ]


def pmul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def pder(a):
    return [i * c for i, c in enumerate(a)][1:]


def peval(a, x):
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def pcomp(outer, inner):
    acc = []
    for c in reversed(outer):
        acc = padd(pmul(acc, inner), [c])
    return acc


def falling_factorial(n):
    """Coefficient list of t(t-1)...(t-n+1)."""
    out = [Fraction(1)]
    for j in range(n):
        out = pmul(out, [-j, 1])
    return out


def rising_factorial(n):
    """Coefficient list of t(t+1)...(t+n-1)."""
    out = [Fraction(1)]
    for j in range(n):
        out = pmul(out, [j, 1])
    return out


def abel_poly(n, alpha):
    """Coefficient list of t (t - n alpha)^(n-1)."""
    if n == 0:
        return [Fraction(1)]
    out = [0, 1]
    for _ in range(n - 1):
        out = pmul(out, [-n * alpha, 1])
    return out


def stirling2_by_enumeration(n, k):
    """Count set partitions of {0..n-1} into k nonempty blocks."""
    if n == 0:
        return 1 if k == 0 else 0

    def partitions(items):
        if not items:
            yield []
            return
        head, rest = items[0], items[1:]
        for part in partitions(rest):
            for i in range(len(part)):
                yield part[:i] + [part[i] + [head]] + part[i + 1 :]
            yield part + [[head]]

    return sum(1 for p in partitions(list(range(n))) if len(p) == k)


def unsigned_stirling1_by_enumeration(n, k):
    """Count permutations of n elements with exactly k cycles."""
    if n == 0:
        return 1 if k == 0 else 0
    count = 0
    for perm in permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for start in range(n):
            if seen[start]:
                continue
            cycles += 1
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
        if cycles == k:
            count += 1
    return count


def bivariate_of_shift(coeffs):
    """Expand p(t+s) into {(i, j): coeff} from the coefficients of p."""
    from math import comb

    out = {}
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        for i in range(k + 1):
            key = (i, k - i)
            out[key] = out.get(key, 0) + c * comb(k, i)
    return {k: v for k, v in out.items() if v != 0}


def bivariate_product(pt, ps):
    """Outer product {(i, j): pt[i] * ps[j]}."""
    out = {}
    for i, a in enumerate(pt):
        if a == 0:
            continue
        for j, b in enumerate(ps):
            if b == 0:
                continue
            out[(i, j)] = out.get((i, j), 0) + a * b
    return out


def bivariate_add(acc, other, scale=1):
    for key, v in other.items():
        acc[key] = acc.get(key, 0) + scale * v
    return {k: v for k, v in acc.items() if v != 0}


# ---------------------------------------------------------------------------
# the field-arithmetic routes of the integer kernels

def autonomous_by_field_loop(f, order):
    """A_1 = f, A_(n+1) = f * dA_n/dx in the scalars' own arithmetic."""
    terms = [f]
    for _ in range(order - 1):
        terms.append(f * terms[-1].derivative())
    return tuple(terms)


def expand_by_field_loop(basis, coeffs, zero=0):
    """sum_n coeffs[n] q_n(t) by monomial power, accumulated from zero
    over the nonzero beta(k, n) in the scalars' own arithmetic."""
    out = [zero] * len(coeffs)
    for n, c in enumerate(coeffs):
        for k, b in enumerate(basis.poly(n).coeffs):
            if b != 0:
                out[k] = out[k] + c * b
    return out


def flow_coeffs_by_factorial(aut):
    """A_n * Fraction(1, n!) for the terms A_n of an autonomous sequence."""
    return tuple(t * Fraction(1, math.factorial(n)) for n, t in enumerate(aut.terms, 1))


def iterate_by_horner(g, x0, n):
    """The orbit y_0 .. y_n, each step by XSeries.evaluate (Horner's
    rule in the scalars' own arithmetic)."""
    ys = [x0]
    for _ in range(n):
        ys.append(g.evaluate(ys[-1]))
    return tuple(ys)


def taylor_sum_compose(f, w):
    """f(W) as the Taylor sum sum_k f^(k)(x)/k! (W - x)^k.

    The sum is finite because W - x has t-order at least 1, so W must
    be centred at x: a Flow with base or a TSeries with t^0 term x.
    """
    from deltadyn.flows import Flow, TSeries
    from deltadyn.series import XSeries

    ts = w.to_tseries() if isinstance(w, Flow) else w
    if ts.coefficient(0) != XSeries.x():
        raise ValueError("flow must be centred at the base series x")
    N = ts.order
    dev = TSeries((XSeries.zero(),) + ts.coeffs[1:], N)
    out = TSeries.zero(N)
    power = TSeries.zero(N) + 1
    fk = f
    k = 0
    kfact = 1
    while True:
        if fk.is_zero:
            break
        out = out + power * (fk * Fraction(1, kfact))
        if k == N:
            break
        fk = fk.derivative()
        k += 1
        kfact *= k
        power = power * dev
    return out
