"""deltadyn: exact flows for derivative and difference type dynamical systems.

The package builds and cross-checks, in exact rational (or Gaussian
rational) arithmetic, the solution flows of first-order autonomous
systems Q Phi = f(Phi) where Q is a delta operator: the ordinary
derivative, the forward and backward differences, the Abel operator
and the Touchard operator.  See README.md for a tour.
"""

from .scalars import GaussianRational, I, format_scalar, parse_scalar, rational_sqrt
from .series import (
    XSeries,
    compositional_inverse,
    derivative_sequence,
    hurwitz_product,
)
from .flows import Flow, TSeries, taylor_compose
from .autonomous import (
    AutonomousSequence,
    aut_add,
    aut_mul,
    aut_scale,
    autonomous_sequence,
    classical_flow,
    flow_factorize,
    h_sequence,
    semiflow,
)
from .umbral import (
    BasicSequence,
    DeltaOp,
    UmbralOperator,
    abel,
    backward,
    basic_sequence_by_recurrence,
    basic_sequence_from_delta,
    derivative,
    first_expansion,
    forward,
    monomial_basis,
    shift_operator,
    signed_stirling1,
    stirling2,
    touchard,
    umbral_compose,
    umbral_inverse,
)
from .deltaflow import (
    classical_delta_flow,
    connection_flow,
    connection_matrix,
    delta_flow,
    flow_compose,
    flow_inverse,
    linear_semiflow_terms,
    monomial_power_identity,
    poly_flow_product,
    poly_flow_sum,
    rho_q,
    rhoq_add,
    rhoq_mul,
    verify_delta_ode,
)
from .solver import (
    IterateTable,
    abel_scaling_check,
    backward_relation_check,
    iterate,
    iterate_table,
    load_corpus,
    solve_forward,
    solve_logistic,
    solve_quadratic_map,
)
from .numeric import (
    NumericConfig,
    SeriesDivergence,
    lambert_w,
    numeric_closed_form_check,
)

__version__ = "0.1.0"
