"""Constrained Fisher scoring with a logarithmic barrier.

A generic primal-dual interior scheme for problems

    minimize f(theta)   subject to   g_j(theta) <= 0,  j = 1..m,

where the caller supplies the objective, its gradient, an information
matrix I(theta, lambda) standing in for the Hessian (Fisher or empirical
Fisher of f plus sum_j lambda_j * Hessian of g_j), and the constraint
values and gradients.  Slacks are kept implicit (nu = -g(theta)) and every
accepted iterate is strictly feasible.  Each iteration first re-centers
the multipliers toward the central path lambda_j = mu / nu_j, then takes a
damped Fisher step on the barrier merit

    f(theta) - mu * sum_j log(-g_j(theta)),

backtracking until the merit does not increase and feasibility is strict.
The information matrix is made positive definite before factorization by
adding a multiple of the identity sized by the score norm, the usual
Levenberg-Marquardt regularization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "BarrierProblem",
    "SolverOptions",
    "SolverDiagnostics",
    "Infeasible",
    "NonConvergence",
    "regularize",
    "fisher_step",
    "solve",
]


class Infeasible(ValueError):
    """The starting point violates a constraint strictly."""


class NonConvergence(RuntimeError):
    """Step collapse before reaching tolerance; carries the best iterate."""

    def __init__(self, message, theta, diagnostics):
        super().__init__(message)
        self.theta = theta
        self.diagnostics = diagnostics


@dataclass
class BarrierProblem:
    """Problem description consumed by :func:`solve`.

    ``objective`` and ``gradient`` evaluate f and its gradient.
    ``information`` evaluates I(theta, lambda), the curvature model used
    in place of the Hessian (any symmetric matrix; it is regularized to
    positive definiteness before solving).  ``constraints`` returns the
    m-vector g(theta) and ``constraint_gradients`` the m x d matrix of
    stacked gradient rows.  ``n_constraints`` may be zero, in which case
    the solver reduces to plain regularized Fisher scoring.
    """

    dim: int
    n_constraints: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    information: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray] = None
    constraint_gradients: Callable[[np.ndarray], np.ndarray] = None


@dataclass
class SolverOptions:
    """Tuning constants; the defaults converge on voxel-sized problems.

    ``mu0`` caps the initial barrier parameter; the effective start value
    is scaled down to the complementarity of least-squares multipliers at
    the starting point, so problems whose constraints are inactive run
    with an essentially inactive barrier instead of being dragged onto a
    distant central path.  ``max_step_scale`` bounds a single update to
    that multiple of (1 + ||theta||), which keeps exponential objectives
    from being pushed into underflow regions where their gradient can no
    longer pull back.
    """

    mu0: float = 1.0
    mu_shrink: float = 0.2
    # the final barrier parameter bounds both the interior bias of the
    # solution (proportional to mu) and the smallest active-constraint
    # slack (mu / multiplier); 1e-10 keeps the bias negligible while the
    # slacks stay well above the float rounding noise of the constraint
    # evaluations (~1e-16)
    mu_min: float = 1e-10
    max_outer: int = 30
    max_inner: int = 50
    grad_tol: float = 1e-6
    constraint_tol: float = 1e-8
    step_shrink: float = 0.5
    min_step: float = 1e-12
    dual_step: float = 1.0
    max_step_scale: float = 10.0
    # multiple of the score norm used as Levenberg-Marquardt shift; the
    # shift keeps its role near the solution (where the score vanishes)
    # without drowning the curvature when the score is still large
    lm_scale: float = 1e-2

    def __post_init__(self):
        if not (0 < self.mu_shrink < 1 and 0 < self.step_shrink < 1):
            raise ValueError("shrink factors must lie in (0, 1)")
        if min(self.mu0, self.mu_min, self.grad_tol, self.min_step) <= 0:
            raise ValueError("all solver constants must be positive")


@dataclass
class SolverDiagnostics:
    outer_iterations: int = 0
    inner_iterations: int = 0
    final_mu: float = np.nan
    final_score_norm: float = np.nan
    max_complementarity: float = 0.0
    objective_trace: list = field(default_factory=list)
    converged: bool = False
    reason: str = ""


def regularize(H, score_norm):
    """Return H + score_norm * I, inflated further until Cholesky succeeds.

    The score norm is the Levenberg-Marquardt parameter; if the shifted
    matrix is still not positive definite the diagonal is repeatedly
    inflated by growing multiples of max(score_norm, 1e-8), which always
    terminates by diagonal dominance.
    """
    H = np.asarray(H, dtype=float)
    out = H + float(score_norm) * np.eye(H.shape[0])
    bump = 10.0 * max(float(score_norm), 1e-8)
    while True:
        try:
            np.linalg.cholesky(out)
            return out
        except np.linalg.LinAlgError:
            out = out + bump * np.eye(H.shape[0])
            bump *= 10.0


def fisher_step(info_reg, score):
    """Solve info_reg @ step = score by Cholesky with one refinement pass."""
    # imported on first use, so fits that never solve (WLS) load no scipy
    import scipy.linalg

    c, low = scipy.linalg.cho_factor(info_reg, check_finite=False)
    step = scipy.linalg.cho_solve((c, low), score, check_finite=False)
    resid = score - info_reg @ step
    step = step + scipy.linalg.cho_solve((c, low), resid, check_finite=False)
    return step


def _merit(problem, theta, mu):
    if problem.n_constraints == 0:
        return problem.objective(theta), None
    g = problem.constraints(theta)
    if np.any(g >= 0):
        return np.inf, g
    return problem.objective(theta) - mu * np.sum(np.log(-g)), g


def _initial_mu(problem, theta, nu, cap, floor):
    """Barrier parameter matched to the multiplier scale at the start.

    Non-negative least-squares multipliers lam minimizing
    ||grad f + A^T lam|| estimate the active-set scale; their mean
    complementarity with the starting slacks gives a mu of the right
    size.  Inactive problems get the floor, so the barrier never
    overwhelms an already near-optimal start.
    """
    import scipy.optimize

    A = problem.constraint_gradients(theta)
    grad = problem.gradient(theta)
    try:
        lam_ls, _ = scipy.optimize.nnls(A.T, -grad)
    except Exception:
        return cap
    comp = float(np.mean(lam_ls * nu))
    return float(min(cap, max(floor, comp)))


def solve(problem: BarrierProblem, theta0, options: SolverOptions = None):
    """Run the barrier scheme from a strictly feasible starting point.

    Returns
    -------
    (theta, diagnostics) : tuple
        The final iterate and a :class:`SolverDiagnostics`.

    Raises
    ------
    Infeasible
        If any g_j(theta0) >= 0.
    NonConvergence
        If backtracking collapses below the minimum step while the score
        is still above tolerance; the exception carries the best iterate.
    """
    opts = options or SolverOptions()
    theta = np.asarray(theta0, dtype=float).copy()
    diag = SolverDiagnostics()
    m = problem.n_constraints

    if m > 0:
        g = problem.constraints(theta)
        if np.any(g >= 0):
            raise Infeasible(
                f"starting point violates constraint {int(np.argmax(g >= 0))} "
                f"(g = {float(np.max(g)):.3g})"
            )
        nu = -g
        mu = _initial_mu(problem, theta, nu, opts.mu0, opts.mu_min)
        lam = mu / nu
    else:
        lam = np.zeros(0)
        mu = opts.mu0
    merit, g = _merit(problem, theta, mu)
    diag.objective_trace.append(problem.objective(theta))

    for outer in range(opts.max_outer):
        diag.outer_iterations = outer + 1
        # tolerance loosens with the barrier parameter: early subproblems
        # are solved coarsely, the last ones to grad_tol
        inner_tol = max(opts.grad_tol, 0.1 * mu) if m > 0 else opts.grad_tol
        for _ in range(opts.max_inner):
            if m > 0:
                g = problem.constraints(theta)
                nu = -g
                # dual re-centering toward the central path lambda = mu/nu
                lam = (1.0 - opts.dual_step) * lam + opts.dual_step * (mu / nu)
                A = problem.constraint_gradients(theta)
                score = problem.gradient(theta) + A.T @ lam
            else:
                score = problem.gradient(theta)
            score_norm = float(np.max(np.abs(score))) if score.size else 0.0
            diag.final_score_norm = score_norm
            if score_norm <= inner_tol:
                break
            diag.inner_iterations += 1

            info = problem.information(theta, lam)
            if m > 0:
                # barrier curvature: without it Newton steps ignore the
                # boundary's repulsion and the line search collapses when
                # a constraint is active
                info = info + (A.T * (lam / nu)) @ A
            if not np.all(np.isfinite(info)):
                # boundary-hugging iterates can overflow the barrier
                # curvature; fall back to a pure gradient step scale
                info = np.eye(problem.dim) * max(1.0, float(np.linalg.norm(score)))
            shift = opts.lm_scale * float(np.linalg.norm(score))
            step = None
            for _ in range(12):
                # the numpy test factorization inside regularize and the
                # scipy solve can disagree on barely-PD matrices; retry
                # with growing shifts until both accept
                info_reg = regularize(info, shift)
                try:
                    step = fisher_step(info_reg, score)
                    break
                except np.linalg.LinAlgError:
                    shift = 10.0 * shift + 1.0
            if step is None:
                diag.final_mu = mu
                diag.reason = "factorization failure"
                raise NonConvergence(
                    "information matrix could not be factored", theta, diag
                )

            alpha = 1.0
            step_norm = float(np.linalg.norm(step))
            cap = opts.max_step_scale * (1.0 + float(np.linalg.norm(theta)))
            if step_norm > cap:
                alpha = cap / step_norm
            merit, _ = _merit(problem, theta, mu)
            while True:
                trial = theta - alpha * step
                trial_merit, _ = _merit(problem, trial, mu)
                if trial_merit <= merit:
                    theta = trial
                    merit = trial_merit
                    break
                alpha *= opts.step_shrink
                if alpha < opts.min_step:
                    diag.final_mu = mu
                    diag.reason = "step collapse"
                    raise NonConvergence(
                        f"backtracking collapsed below {opts.min_step:g} "
                        f"with score norm {score_norm:.3g}",
                        theta,
                        diag,
                    )
            diag.objective_trace.append(problem.objective(theta))

        if m == 0:
            diag.converged = diag.final_score_norm <= opts.grad_tol
            diag.reason = "unconstrained score tolerance" if diag.converged else "max inner iterations"
            diag.final_mu = 0.0
            break

        diag.max_complementarity = float(np.max(lam * -problem.constraints(theta)))
        diag.final_mu = mu
        if mu <= opts.mu_min:
            # final barrier parameter: slacks of active constraints scale
            # with mu, so shrinking further only erodes float precision
            diag.converged = diag.final_score_norm <= opts.grad_tol
            diag.reason = (
                "mu and score tolerances" if diag.converged
                else "score tolerance not met at final mu"
            )
            break
        mu = max(mu * opts.mu_shrink, opts.mu_min)
    else:
        diag.final_mu = mu
        diag.reason = diag.reason or "max outer iterations"

    return theta, diag
