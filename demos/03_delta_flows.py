"""Delta flows: one solution family per delta operator.

Replacing the monomials of the classical flow by the basic polynomials
of an operator Q gives the delta flow Phi_Q = x + sum A_n q_n(t)/n!,
the umbral image of the classical flow.  It satisfies the transported
flow equation Q Phi_Q = L[f(Phi)] = f(x) dPhi_Q/dx, checked here
exactly; flows of one generator over different operators form a group
under composition, mirrored by their connection matrices.
"""

from fractions import Fraction

from deltadyn import (
    XSeries,
    classical_delta_flow,
    connection_flow,
    connection_matrix,
    delta_flow,
    flow_compose,
    flow_inverse,
    forward,
    abel,
    touchard,
    poly_flow_product,
    rho_q,
    verify_delta_ode,
)
from deltadyn.deltaflow import matrix_product

X = XSeries.x()
N = 8

print("== the flow equation holds for every operator ==")
f = X * (1 - X)
for name, Q in (("forward", forward(12)), ("abel(1)", abel(1, 12)), ("touchard", touchard(12))):
    residual = verify_delta_ode(f, Q, N)
    print("  Q = %-8s residual == 0: %s" % (name, residual.is_zero))

print()
print("== a linear forward system doubles: Phi(t, x) = x 2^t at integers ==")
df = delta_flow(X, forward(12), 10)
print("  t:", list(range(7)))
print("  x = 1:", [df.evaluate(t, Fraction(1)) for t in range(7)])

print()
print("== semiflow ring: a factored generator, product of affine pieces ==")
mu = Fraction(4)
factored = poly_flow_product([(-1, 0), (mu, 1 - mu)], forward(12), N)
direct = rho_q(XSeries((0, mu - 1, -mu)), forward(12), N)
print("  factored coefficients == direct:", factored.coeffs == direct.coeffs)

print()
print("== flow composition group over a fixed generator ==")
phi_fwd = delta_flow(f, forward(12), N)
phi_tou = delta_flow(f, touchard(12), N)
identity = classical_delta_flow(f, N)
print("  Phi_fwd o identity == Phi_fwd:",
      flow_compose(phi_fwd, identity).to_tseries()
      == phi_fwd.to_tseries())
print("  Phi_fwd o Phi_fwd^{-1} == identity:",
      flow_compose(phi_fwd, flow_inverse(phi_fwd)).to_tseries()
      == identity.to_tseries())

print()
print("== connection matrices reverse composition order ==")
composed = flow_compose(phi_fwd, phi_tou)
left = connection_matrix(composed.basis)
right = matrix_product(
    connection_matrix(phi_tou.basis), connection_matrix(phi_fwd.basis)
)
print("  matrix of (A o B) == B A:", left == right)

print()
print("== connection-matrix route equals the basis conversion ==")
for name, Q in (("forward", forward(12)), ("touchard", touchard(12))):
    via_matrix = connection_flow(f, Q, N)
    via_conversion = delta_flow(f, Q, N).to_monomial()
    print("  Q = %-8s" % name, via_matrix.coeffs == via_conversion.coeffs)
