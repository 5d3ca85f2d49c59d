"""
Constrained Fisher scoring with a log barrier
=============================================

The generic engine behind both constrained estimators, demonstrated on
problems small enough to verify by hand.
"""

import numpy as np

from dkimle import BarrierProblem, solve

# --- an unconstrained quadratic: plain regularized Newton -----------------
c = np.array([3.0, -1.0, 0.5])
prob = BarrierProblem(
    dim=3,
    n_constraints=0,
    objective=lambda t: 0.5 * float(np.sum((t - c) ** 2)),
    gradient=lambda t: t - c,
    information=lambda t, lam: np.eye(3),
)
theta, diag = solve(prob, np.zeros(3), grad_tol=1e-10)
print("unconstrained quadratic: theta* =", np.round(theta, 10))

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
)
theta, diag = solve(prob, np.array([-1.0, -1.0]))
print("\nhalf-space projection: theta* =", np.round(theta, 6))
print(f"  outer phases {diag.outer_iterations}, inner steps {diag.inner_iterations},"
      f" final mu {diag.final_mu:.1e}")
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
)
theta, diag = solve(prob, np.array([1.0]))
print(f"\nlinear objective over theta >= 0: theta* = {theta[0]:.2e}"
      f" with final mu = {diag.final_mu:.2e}")

# --- monotone merit ----------------------------------------------------------
# For constrained problems the backtracking enforces descent of the
# barrier merit (objective minus mu * sum log slack); the raw objective
# alone may rise while the iterate re-centers. Unconstrained problems
# have merit == objective, so their trace is monotone outright.
prob_u = BarrierProblem(
    dim=2,
    n_constraints=0,
    objective=lambda t: 0.5 * float(np.sum((t - np.array([1.0, -2.0])) ** 2)),
    gradient=lambda t: t - np.array([1.0, -2.0]),
    information=lambda t, lam: np.eye(2),
)
_, diag_u = solve(prob_u, np.array([5.0, 5.0]))
trace = np.array(diag_u.objective_trace)
print("unconstrained objective trace non-increasing:",
      bool(np.all(np.diff(trace) <= 1e-15)))
