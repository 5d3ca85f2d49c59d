"""Constrained Fisher scoring with a logarithmic barrier.

A primal log-barrier scheme for problems

    minimize f(theta)   subject to   g_j(theta) <= 0,  j = 1..m,  m >= 1,

where the caller supplies the objective, its gradient, an information
matrix I(theta, lambda) standing in for the Hessian (Fisher or empirical
Fisher of f plus sum_j lambda_j * Hessian of g_j), and the constraint
values and gradients.  Slacks are kept implicit (nu = -g(theta)) and every
accepted iterate is strictly feasible.  The multipliers are not solved
for: each iteration sets them on the central path, lambda_j = mu / nu_j,
and takes a damped Fisher step on the barrier merit

    f(theta) - mu * sum_j log(-g_j(theta)),

backtracking until the merit rises by no more than its rounding (10 ulps, as
in IPOPT) and feasibility is strict.  Constraints are at most quadratic, so
when a backtrack's first trial is infeasible, the alphas that
g(theta - alpha s) = g - alpha A s + alpha^2 q(s) proves infeasible are
skipped unevaluated, and the accepted point stays; a scalar loop halves past
them without forming their trial points.  A trial with a NaN constraint is
infeasible, and a Fisher step that is not finite (from a NaN or inf in the
score or the information) raises NonConvergence: there is no fallback step.
Each outer pass shrinks mu by MU_SHRINK down to the floor MU_MIN, and the
pass at MU_MIN is the last: mu starts at most MU0 = 1 and 0.2^15 < 1e-10,
so a solve takes at most 16 outer passes and needs no iteration cap.
After each decrease mu -> mu', a predictor step extrapolates along the
central path (Fiacco & McCormick; Nocedal & Wright, ch. 19): theta + d with
I_bar d = (mu - mu') A^T (1/nu) and the barrier information I_bar at mu,
searched on the merit at mu'; theta stays where the search rejects it.
Each point is evaluated once: its objective and constraint values carry
over to the merit, the multipliers and the trace.  A step that rounds to
no move ends the subproblem, since repeating it would change nothing.
The information matrix is made positive definite by adding a multiple of
the identity sized by the score norm, the usual Levenberg-Marquardt
regularization; the LAPACK Cholesky factor (``potrf``) that accepts the
shifted matrix also solves the step (``potrs``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "BarrierProblem",
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
    stacked gradient rows; m = ``n_constraints`` is at least one.
    ``constraint_quadratic(s)`` is q(s): 0 for linear g, g(s) for homogeneous g.
    """

    dim: int
    n_constraints: int
    objective: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    information: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constraints: Callable[[np.ndarray], np.ndarray]
    constraint_gradients: Callable[[np.ndarray], np.ndarray]
    constraint_quadratic: Callable[[np.ndarray], np.ndarray]


# barrier parameter: MU0 caps the start value, which is scaled down to the
# complementarity of least-squares multipliers at the starting point, so
# problems whose constraints are inactive run with an essentially inactive
# barrier instead of being dragged onto a distant central path
MU0 = 1.0
MU_SHRINK = 0.2
# the final barrier parameter bounds both the interior bias of the
# solution (proportional to mu) and the smallest active-constraint
# slack (mu / multiplier); 1e-10 keeps the bias negligible while the
# slacks stay well above the float rounding noise of the constraint
# evaluations (~1e-16)
MU_MIN = 1e-10
MAX_INNER = 50
STEP_SHRINK = 0.5
MIN_STEP = 1e-12
# bounds a single update to this multiple of (1 + ||theta||), which keeps
# exponential objectives from being pushed into underflow regions where
# their gradient can no longer pull back
MAX_STEP_SCALE = 10.0
# multiple of the score norm used as Levenberg-Marquardt shift; the
# shift keeps its role near the solution (where the score vanishes)
# without drowning the curvature when the score is still large
LM_SCALE = 1e-2
# default score tolerance of the final barrier subproblem
GRAD_TOL = 1e-6
# a trial passes if its merit exceeds the current one by at most this multiple
# of |merit|, so that rounding noise does not reject steps near a solution
MERIT_ROUNDING = 10.0 * np.finfo(float).eps


@dataclass
class SolverDiagnostics:
    """Counters of one :func:`solve`.

    ``inner_iterations`` counts the Fisher steps computed but not the
    predictors, including a stalled step that rounds to no move and ends its
    subproblem; ``objective_trace`` holds f at the start and at each
    accepted iterate, so a stalled iteration adds no entry.
    """

    outer_iterations: int = 0
    inner_iterations: int = 0
    final_mu: float = np.nan
    final_score_norm: float = np.nan
    max_complementarity: float = 0.0
    objective_trace: list = field(default_factory=list)
    converged: bool = False
    reason: str = ""
    trials_evaluated: int = 0  # line-search trial points evaluated,
    trials_infeasible: int = 0  # the infeasible ones among them,
    trials_skipped: int = 0  # and trial points proven infeasible, not evaluated
    predictor_steps: int = 0  # predictor steps the line search accepted
    capped_subproblems: int = 0  # subproblems that ended at MAX_INNER


def regularize(H, shift):
    """Return (H + shift * I, its Cholesky factor), inflating the diagonal
    further until the factorization succeeds.

    The shift is the Levenberg-Marquardt parameter; if the shifted matrix
    is still not positive definite the diagonal is repeatedly inflated by
    growing multiples of max(shift, 1e-8), which terminates by diagonal
    dominance for a finite H.  No bump makes a non-finite H positive
    definite: when its factorization fails, it is returned at once with a
    NaN factor, which gives a NaN step.  The factor comes from LAPACK
    ``potrf`` (upper triangle) in the ``(c, lower)`` format of
    ``scipy.linalg.cho_factor``.
    """
    # imported on first use, so fits that never solve (WLS) load no scipy
    from scipy.linalg.lapack import dpotrf

    out = np.array(H, dtype=float, order="C")
    diagonal = out.reshape(-1)[:: out.shape[0] + 1]  # a view of out's diagonal
    diagonal += float(shift)
    bump = 10.0 * max(float(shift), 1e-8)
    while True:
        c, info = dpotrf(out, lower=False, clean=False)
        if info == 0 or bump == np.inf:
            return out, (c, False)
        if not np.isfinite(out).all():  # tested on the failure path only
            return out, (np.full_like(c, np.nan), False)
        diagonal += bump
        bump *= 10.0


def fisher_step(info_reg, score, factor):
    """Solve info_reg @ step = score with the Cholesky ``factor`` of
    info_reg from :func:`regularize` (LAPACK ``potrs``), plus one
    refinement pass."""
    from scipy.linalg.lapack import dpotrs

    c, lower = factor
    step = dpotrs(c, score, lower=lower)[0]
    resid = score - info_reg @ step
    return step + dpotrs(c, resid, lower=lower)[0]


def _evaluate(problem, theta):
    """(f, g, feasible) at theta; f is inf, and the objective is not
    called, when theta is not strictly feasible."""
    g = problem.constraints(theta)
    if not (g < 0).all():  # a NaN constraint is not strictly feasible either
        return np.inf, g, False
    return problem.objective(theta), g, True


def _merit(f, g, mu):
    """Barrier merit from the values :func:`_evaluate` returned; f is
    already inf where g is not strictly negative."""
    if f == np.inf:
        return f
    return f - mu * np.log(-g).sum()


def _feasible_bound(problem, theta, step, g, A):
    """Alpha past which a g_j convex along step is violated (+1e-6 rounding guard), or inf."""
    q, slope = problem.constraint_quadratic(step), A @ step
    g = g - 1e-15 * (np.abs(A) @ np.abs(theta))  # guard: g's terms are about |A||theta|
    with np.errstate(divide="ignore", invalid="ignore"):  # the positive root, no cancellation
        disc = np.sqrt(slope * slope - 4.0 * q * g)
        roots = np.where(slope > 0, (slope + disc) / (2.0 * q), -2.0 * g / (disc - slope))
    return (1.0 + 1e-6) * float(np.min(roots, where=(q >= 0) & (roots > 0), initial=np.inf))


def _skip_infeasible(alpha, bound, theta, step, diag):
    """The next alpha the line search tries from ``alpha`` on, halving past
    those above ``bound`` and counting them as skipped: the first at most
    ``bound`` or below MIN_STEP (where the search collapses), unless one
    before it rounds to no move (where it stalls).  Rounding is monotone:
    if the first alpha at most ``bound`` or below MIN_STEP moves theta,
    every larger one did, and a scalar loop finds it without forming their
    trials; if it does not, the first alpha that does not is found."""
    landing, skipped = alpha, 0
    while landing > bound and landing >= MIN_STEP:
        landing *= STEP_SHRINK
        skipped += 1
    if ((theta - landing * step) != theta).any():
        diag.trials_skipped += skipped
        return landing
    while ((theta - alpha * step) != theta).any():
        diag.trials_skipped += 1
        alpha *= STEP_SHRINK
    return alpha


def _line_search(problem, theta, f, g, A, step, mu, diag):
    """Backtrack along -step from 1 or the step cap until the merit at ``mu``
    passes: (alpha, accepted (theta, f, g)), or (alpha, None) on no move or
    collapse (alpha < MIN_STEP)."""
    step_norm, cap = math.sqrt(step @ step), MAX_STEP_SCALE * (1.0 + math.sqrt(theta @ theta))
    alpha = cap / step_norm if step_norm > cap else 1.0
    merit, bound = _merit(f, g, mu), None
    while ((trial := theta - alpha * step) != theta).any():
        f_trial, g_trial, feasible = _evaluate(problem, trial)
        diag.trials_evaluated += 1
        if _merit(f_trial, g_trial, mu) <= merit + MERIT_ROUNDING * abs(merit):
            return alpha, (trial, f_trial, g_trial)
        diag.trials_infeasible += not feasible
        if bound is None:
            bound = np.inf if feasible else _feasible_bound(problem, theta, step, g, A)
        alpha *= STEP_SHRINK
        if alpha > bound:
            alpha = _skip_infeasible(alpha, bound, theta, step, diag)
        if alpha < MIN_STEP:
            break
    return alpha, None


def _predictor_step(problem, theta, nu, A, mu, mu_next):
    """The step -d of the predictor: I_bar d = (mu - mu_next) A^T (1/nu), from
    d/dmu of the central-path condition grad f + mu A^T (1/nu) = 0."""
    info = problem.information(theta, mu / nu) + (A.T * (mu / (nu * nu))) @ A
    rhs = (mu_next - mu) * (A.T @ (1.0 / nu))
    info_reg, factor = regularize(info, LM_SCALE * math.sqrt(rhs @ rhs))
    return fisher_step(info_reg, rhs, factor)


def _initial_mu(problem, theta, nu):
    """Barrier parameter matched to the multiplier scale at the start.

    Non-negative least-squares multipliers lam minimizing
    ||grad f + A^T lam|| estimate the active-set scale; their mean
    complementarity with the starting slacks gives a mu of the right
    size.  Inactive problems get MU_MIN, so the barrier never
    overwhelms an already near-optimal start.
    """
    import scipy.optimize

    A = problem.constraint_gradients(theta)
    grad = problem.gradient(theta)
    lam_ls, _ = scipy.optimize.nnls(A.T, -grad)
    comp = float(np.mean(lam_ls * nu))
    return float(min(MU0, max(MU_MIN, comp)))


def solve(problem: BarrierProblem, theta0, grad_tol: float = GRAD_TOL):
    """Run the barrier scheme from a strictly feasible starting point until
    the score of the final barrier subproblem is at most ``grad_tol``.

    Returns
    -------
    (theta, diagnostics) : tuple
        The final iterate and a :class:`SolverDiagnostics`.

    Raises
    ------
    ValueError
        If ``grad_tol`` is not positive, the problem has no constraints, or
        (from ``scipy.optimize.nnls``) the gradients at theta0 are not finite.
    Infeasible
        If any g_j(theta0) >= 0 or is NaN.
    NonConvergence
        If backtracking collapses below the minimum step while the score
        is still above tolerance (reason "step collapse"), or a Fisher step
        is not finite (reason "non-finite step"); the exception carries the
        best iterate.
    """
    if not grad_tol > 0:
        raise ValueError(f"grad_tol must be positive, got {grad_tol}")
    if problem.n_constraints < 1:
        raise ValueError(f"the problem needs a constraint, got {problem.n_constraints}")
    theta = np.asarray(theta0, dtype=float).copy()
    diag = SolverDiagnostics()

    f, g, feasible = _evaluate(problem, theta)
    if not feasible:
        raise Infeasible(
            f"starting point violates constraint {int(np.argmax(~(g < 0)))} "
            f"(g = {float(np.max(g)):.3g})"
        )
    mu = _initial_mu(problem, theta, -g)
    diag.objective_trace.append(f)

    while True:
        diag.outer_iterations += 1
        # tolerance loosens with the barrier parameter: early subproblems
        # are solved coarsely, the last ones to grad_tol
        inner_tol = max(grad_tol, 0.1 * mu)
        for _ in range(MAX_INNER):
            nu = -g
            # multipliers on the central path
            lam = mu / nu
            A = problem.constraint_gradients(theta)
            score = problem.gradient(theta) + A.T @ lam
            score_norm = float(abs(score).max())
            diag.final_score_norm = score_norm
            if score_norm <= inner_tol:
                break
            diag.inner_iterations += 1

            # barrier curvature: without it Newton steps ignore the
            # boundary's repulsion and the line search collapses when a
            # constraint is active
            info = problem.information(theta, lam) + (A.T * (lam / nu)) @ A
            info_reg, factor = regularize(info, LM_SCALE * math.sqrt(score @ score))
            step = fisher_step(info_reg, score, factor)
            if not np.isfinite(step).all():
                diag.final_mu, diag.reason = mu, "non-finite step"
                raise NonConvergence(f"the Fisher step is not finite with score norm "
                                     f"{score_norm:.3g}", theta, diag)
            alpha, point = _line_search(problem, theta, f, g, A, step, mu, diag)
            if point is None and alpha < MIN_STEP:
                diag.final_mu, diag.reason = mu, "step collapse"
                raise NonConvergence(f"backtracking collapsed below {MIN_STEP:g} "
                                     f"with score norm {score_norm:.3g}", theta, diag)
            if point is None:  # no move: a further iteration would repeat this one
                break
            theta, f, g = point
            diag.objective_trace.append(f)
        else:
            diag.capped_subproblems += 1

        diag.max_complementarity = float((lam * -g).max())
        diag.final_mu = mu
        if mu <= MU_MIN:
            # final barrier parameter: slacks of active constraints scale
            # with mu, so shrinking further only erodes float precision
            diag.converged = diag.final_score_norm <= grad_tol
            diag.reason = ("mu and score tolerances" if diag.converged
                           else "score tolerance not met at final mu")
            break
        mu_next, A = max(mu * MU_SHRINK, MU_MIN), problem.constraint_gradients(theta)
        step = _predictor_step(problem, theta, -g, A, mu, mu_next)
        finite = np.isfinite(step).all()
        point = _line_search(problem, theta, f, g, A, step, mu_next, diag)[1] if finite else None
        if point is not None:
            theta, f, g = point
            diag.objective_trace.append(f)
            diag.predictor_steps += 1
        mu = mu_next

    return theta, diag
