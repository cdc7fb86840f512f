"""Delta operators and their basic polynomial sequences.

Each delta operator Q = p(d/dt) owns polynomials q_n with q_0 = 1,
q_n(0) = 0 and Q q_n = n q_{n-1}, generated by Rota's recurrence
q_(n+1)(t) = t (1/p')(d/dt) q_n(t).  The script prints the classical
families, their coefficient triangles, and the umbral composition
group that ties them together.
"""

from fractions import Fraction

from deltadyn import (
    abel,
    backward,
    basic_sequence_from_delta,
    forward,
    monomial_basis,
    shift_operator,
    first_expansion,
    touchard,
    umbral_compose,
    umbral_inverse,
)

DEPTH = 6


def in_t(q):
    """A basic polynomial printed in its variable t (polynomials print in x)."""
    return repr(q).replace("x", "t")


print("== the classical basic sequences ==")
for name, Q in (
    ("forward  (falling factorials)", forward(DEPTH)),
    ("backward (rising factorials) ", backward(DEPTH)),
    ("abel(1)                      ", abel(1, DEPTH)),
    ("touchard (set polynomials)   ", touchard(DEPTH)),
):
    basis = basic_sequence_from_delta(Q, DEPTH)
    print(name)
    for n in range(4):
        print("   q_%d = %s" % (n, in_t(basis.poly(n))))

print()
print("== the Touchard triangle is the Stirling-2 triangle ==")
tou = basic_sequence_from_delta(touchard(DEPTH), DEPTH)
for n in range(DEPTH + 1):
    print("  ", [tou.beta(k, n) for k in range(n + 1)])

print()
print("== basic sequence axioms, checked directly ==")
Q = abel(Fraction(1, 2), DEPTH)
basis = basic_sequence_from_delta(Q, DEPTH)
n = 4
print("  q_4(0) =", basis.poly(4).evaluate(0))
print("  Q q_4 == 4 q_3:", Q.apply_tpoly(basis.poly(4)) == 4 * basis.poly(3))

print()
print("== umbral composition group ==")
fwd = basic_sequence_from_delta(forward(2 * DEPTH), DEPTH)
inv = umbral_inverse(fwd)
mono = monomial_basis(DEPTH)
print("  inverse of the falling factorials = Touchard family:",
      inv.polys == basic_sequence_from_delta(touchard(2 * DEPTH), DEPTH).polys)
print("  compose(falling, inverse) == monomials:",
      umbral_compose(fwd, inv).polys == mono.polys)
composed = umbral_compose(fwd, basic_sequence_from_delta(backward(2 * DEPTH), DEPTH))
print("  falling after rising is NOT the monomials: r_3 =", in_t(composed.poly(3)))

print()
print("== first expansion: the shift E^1 in forward-difference powers ==")
c = first_expansion(shift_operator(1, 2 * DEPTH), forward(2 * DEPTH), DEPTH)
print("  coefficients c_k = [E^1 q_k](0):", c)
print("  so E^1 = I + (forward difference), a two-term identity")
