"""
Constrained Fisher scoring with a log barrier
=============================================

The generic engine behind both constrained estimators, demonstrated on
problems small enough to verify by hand.
"""

import numpy as np

from dkimle import BarrierProblem, solve

# --- an inactive constraint: plain regularized Newton ----------------------
# min 1/2 ||theta - c||^2  s.t.  theta_1 + theta_2 + theta_3 <= 10; the
# bound has slack at c, the barrier starts at its floor and the solve
# lands on c as an unconstrained Newton iteration would.
c = np.array([3.0, -1.0, 0.5])
prob = BarrierProblem(
    dim=3,
    n_constraints=1,
    objective=lambda t: 0.5 * float(np.sum((t - c) ** 2)),
    gradient=lambda t: t - c,
    information=lambda t, lam: np.eye(3),
    constraints=lambda t: np.array([float(np.sum(t)) - 10.0]),
    constraint_gradients=lambda t: np.ones((1, 3)),
    constraint_quadratic=lambda s: np.zeros(1),  # linear: no alpha^2 term
)
theta, diag = solve(prob, np.zeros(3), grad_tol=1e-10)
print("inactive constraint: theta* =", np.round(theta, 10), f"(final mu {diag.final_mu:.0e})")

# --- projection onto a half-space ------------------------------------------
# min 1/2 ||theta - (2,1)||^2  s.t.  theta_1 + theta_2 <= 1
# KKT by hand: theta* = (1, 0), multiplier 1.
a = np.array([1.0, 1.0])
prob = BarrierProblem(
    dim=2,
    n_constraints=1,
    objective=lambda t: 0.5 * float(np.sum((t - np.array([2.0, 1.0])) ** 2)),
    gradient=lambda t: t - np.array([2.0, 1.0]),
    information=lambda t, lam: np.eye(2),
    constraints=lambda t: np.array([float(a @ t) - 1.0]),
    constraint_gradients=lambda t: a[None, :],
    constraint_quadratic=lambda s: np.zeros(1),
)
theta, diag = solve(prob, np.array([-1.0, -1.0]))
print("\nhalf-space projection: theta* =", np.round(theta, 6))
print(f"  outer phases {diag.outer_iterations}, inner steps {diag.inner_iterations},"
      f" predictor steps {diag.predictor_steps}, final mu {diag.final_mu:.1e}")
print(f"  constraint value at the end: {float(a @ theta) - 1.0:.2e} (strictly inside)")

# --- the central path -------------------------------------------------------
# min theta s.t. theta >= 0 has barrier minimizer theta(mu) = mu, so the
# returned iterate tracks the final barrier parameter.
prob = BarrierProblem(
    dim=1,
    n_constraints=1,
    objective=lambda t: float(t[0]),
    gradient=lambda t: np.array([1.0]),
    information=lambda t, lam: np.array([[1e-12]]),
    constraints=lambda t: np.array([-t[0]]),
    constraint_gradients=lambda t: np.array([[-1.0]]),
    constraint_quadratic=lambda s: np.zeros(1),
)
theta, diag = solve(prob, np.array([1.0]))
print(f"\nlinear objective over theta >= 0: theta* = {theta[0]:.2e}"
      f" with final mu = {diag.final_mu:.2e}")

# --- monotone merit ----------------------------------------------------------
# The backtracking enforces descent of the barrier merit (objective minus
# mu * sum log slack), up to the merit's rounding; the raw objective alone
# may rise while the iterate re-centers on an active bound.  With the bound inactive the barrier
# term stays at the floor of mu and the objective trace descends too.
target = np.array([1.0, -2.0])
prob = BarrierProblem(
    dim=2,
    n_constraints=1,
    objective=lambda t: 0.5 * float(np.sum((t - target) ** 2)),
    gradient=lambda t: t - target,
    information=lambda t, lam: np.eye(2),
    constraints=lambda t: np.array([float(t[0] + t[1]) - 100.0]),
    constraint_gradients=lambda t: np.ones((1, 2)),
    constraint_quadratic=lambda s: np.zeros(1),
)
_, diag = solve(prob, np.array([5.0, 5.0]))
trace = np.array(diag.objective_trace)
print("inactive-bound objective trace non-increasing:",
      bool(np.all(np.diff(trace) <= 1e-12)))
