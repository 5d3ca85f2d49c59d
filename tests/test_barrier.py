import dataclasses
from collections import Counter

import numpy as np
import pytest
import scipy.optimize
from scipy.linalg import cho_solve

from dkimle import barrier, estimators, rician
from dkimle.protocol import build_design
from dkimle.simulate import scenario
from dkimle.barrier import (
    MU_MIN,
    BarrierProblem,
    Infeasible,
    NonConvergence,
    fisher_step,
    regularize,
    solve,
)

from conftest import cho_fisher_step, cho_regularize


def quadratic_problem(c, constraints=None, constraint_grads=None, hessians=None):
    """min 1/2 ||theta - c||^2 with optional linear/quadratic constraints;
    ``hessians`` holds the constant Hessian of each quadratic constraint
    (None: all linear)."""
    c = np.asarray(c, dtype=float)
    d = c.size
    n = 0 if constraints is None else len(constraints)
    hessians = [np.zeros((d, d))] * n if hessians is None else hessians

    def g_fun(theta):
        return np.array([gi(theta) for gi in constraints])

    def a_fun(theta):
        return np.array([ai(theta) for ai in constraint_grads])

    def info(theta, lam):
        H = np.eye(d)
        for lj, hj in zip(lam, hessians):
            H = H + lj * hj
        return H

    return BarrierProblem(
        dim=d,
        n_constraints=n,
        objective=lambda t: 0.5 * float(np.sum((t - c) ** 2)),
        gradient=lambda t: t - c,
        information=info,
        constraints=g_fun if n else None,
        constraint_gradients=a_fun if n else None,
        constraint_quadratic=lambda s: np.array([0.5 * s @ hj @ s for hj in hessians]),
    )


class TestRegularize:
    def test_identity_untouched(self):
        out, _ = regularize(np.eye(3), 0.0)
        np.testing.assert_allclose(out, np.eye(3), atol=0)

    def test_simple_shift(self):
        out, _ = regularize(np.diag([1.0, -1.0]), 2.0)
        np.testing.assert_allclose(out, np.diag([3.0, 1.0]), atol=0)
        np.linalg.cholesky(out)

    def test_indefinite_becomes_pd(self, rng):
        for _ in range(20):
            A = rng.normal(size=(6, 6))
            H = A + A.T  # symmetric, generally indefinite
            out, _ = regularize(H, float(rng.uniform(0, 0.1)))
            np.linalg.cholesky(out)  # raises if not PD
            assert np.linalg.eigvalsh(out).min() > 0

    def test_factor_solves_the_returned_matrix(self, rng):
        """The factor belongs to the returned matrix, also when the shift
        alone leaves it indefinite and the diagonal had to be inflated."""
        for _ in range(20):
            A = rng.normal(size=(6, 6))
            H = A + A.T
            assert np.linalg.eigvalsh(H).min() < -1e-3
            out, factor = regularize(H, 1e-3)
            x = rng.normal(size=6)
            np.testing.assert_allclose(cho_solve(factor, out @ x), x, rtol=1e-8, atol=1e-10)


    def test_shift_and_bumps_reach_any_memory_layout(self, rng):
        """The shift and the bumps go to the diagonal of the returned copy
        also when H is Fortran-ordered, and H itself is left as it was."""
        A = rng.normal(size=(6, 6))
        H = np.asfortranarray(A + A.T)
        kept = H.copy()
        for shift in (0.0, 0.5, 1e3):
            out, _ = regularize(H, shift)
            ref_out, _ = cho_regularize(np.ascontiguousarray(H), shift)
            assert np.array_equal(out, ref_out) and np.array_equal(H, kept)


class TestLapackFactorization:
    def test_bit_identical_to_scipy_cho_factor_and_cho_solve(self, rng):
        """regularize and fisher_step call LAPACK potrf/potrs directly and
        give exactly what scipy's cho_factor/cho_solve gave, diagonal bumps
        included."""
        for shift in (1e-3, 0.0):
            for _ in range(10):
                A = rng.normal(size=(24, 24))
                H = A + A.T
                out, (c, lower) = regularize(H, shift)
                ref_out, (ref_c, ref_lower) = cho_regularize(H, shift)
                assert not np.array_equal(out, H + shift * np.eye(24))  # bumped
                assert np.array_equal(out, ref_out)
                assert np.array_equal(c, ref_c) and lower is ref_lower is False
                score = rng.normal(size=24)
                assert np.array_equal(fisher_step(out, score, (c, lower)),
                                      cho_fisher_step(ref_out, score, (ref_c, ref_lower)))

    def test_positive_definite_needs_no_bump(self, rng):
        A = rng.normal(size=(24, 24))
        H = A @ A.T + np.eye(24)
        out, (c, _) = regularize(H, 1e-2)
        ref_out, (ref_c, _) = cho_regularize(H, 1e-2)
        assert np.array_equal(out, H + 1e-2 * np.eye(24))
        assert np.array_equal(out, ref_out) and np.array_equal(c, ref_c)


def step_of(H, score):
    """fisher_step with the factor regularize gives an unshifted H."""
    H_reg, factor = regularize(H, 0.0)
    return fisher_step(H_reg, score, factor)


class TestFisherStep:
    def test_identity(self):
        s = np.array([1.0, -2.0, 3.0])
        np.testing.assert_allclose(step_of(np.eye(3), s), s, atol=0)

    def test_diagonal(self):
        step = step_of(np.diag([2.0, 4.0]), np.array([2.0, 4.0]))
        np.testing.assert_allclose(step, [1.0, 1.0], atol=1e-15)

    def test_residual_bound(self, rng):
        for _ in range(20):
            A = rng.normal(size=(8, 8))
            H = A @ A.T + 0.1 * np.eye(8)
            s = rng.normal(size=8)
            step = step_of(H, s)
            assert np.linalg.norm(H @ step - s) <= 1e-10 * np.linalg.norm(s) + 1e-14


class TestSolve:
    def test_inactive_constraint_quadratic(self):
        """A constraint satisfied with slack at the optimum must not move
        the solution."""
        c = np.array([1.0, 2.0])
        prob = quadratic_problem(
            c,
            constraints=[lambda t: t[0] + t[1] - 10.0],
            constraint_grads=[lambda t: np.array([1.0, 1.0])],
        )
        theta, diag = solve(prob, np.zeros(2))
        np.testing.assert_allclose(theta, c, atol=1e-6)

    def test_linear_objective_over_halfline(self):
        """min theta subject to theta >= 0: the barrier path gives
        theta(mu) = mu, so the final iterate sits within a few mu of 0."""
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
        assert 0 < theta[0] <= 10 * diag.final_mu

    def test_active_constraint_matches_kkt_oracle(self):
        """min 1/2||theta - c||^2 s.t. a . theta <= beta with the bound
        active; the KKT solution is the projection c - (a.c - beta)/|a|^2 a,
        computed by hand: c=(2,1), a=(1,1), beta=1 -> theta*=(1,0)."""
        c = np.array([2.0, 1.0])
        a = np.array([1.0, 1.0])
        prob = quadratic_problem(
            c,
            constraints=[lambda t: float(a @ t) - 1.0],
            constraint_grads=[lambda t: a],
        )
        theta, diag = solve(prob, np.array([-1.0, -1.0]))
        np.testing.assert_allclose(theta, [1.0, 0.0], atol=1e-5)
        assert float(a @ theta) <= 1.0

    def test_feasibility_maintained(self):
        """The returned iterate is strictly inside even when the
        unconstrained optimum is far outside the feasible set."""
        prob = quadratic_problem(
            np.array([5.0, 5.0]),
            constraints=[lambda t: float(t[0] + t[1]) - 1.0],
            constraint_grads=[lambda t: np.array([1.0, 1.0])],
        )
        theta, _ = solve(prob, np.array([0.0, 0.0]))
        assert theta[0] + theta[1] < 1.0
        np.testing.assert_allclose(theta, [0.5, 0.5], atol=1e-5)

    def test_problem_without_constraints_rejected(self):
        """The solver has no unconstrained mode; every tensor problem has a
        decay constraint per b > 0 row."""
        with pytest.raises(ValueError, match="needs a constraint"):
            solve(quadratic_problem([1.0, 2.0]), np.zeros(2))

    def test_infeasible_start_rejected(self):
        prob = quadratic_problem(
            np.zeros(2),
            constraints=[lambda t: float(t[0]) - 1.0],
            constraint_grads=[lambda t: np.array([1.0, 0.0])],
        )
        with pytest.raises(Infeasible):
            solve(prob, np.array([2.0, 0.0]))

    def test_mu_schedule_geometric(self):
        prob = quadratic_problem(
            np.array([2.0, 1.0]),
            constraints=[lambda t: float(t[0] + t[1]) - 1.0],
            constraint_grads=[lambda t: np.array([1.0, 1.0])],
        )
        theta, diag = solve(prob, np.array([-1.0, -1.0]))
        assert diag.final_mu <= MU_MIN * (1 + 1e-12)

    def test_outer_passes_end_at_mu_min(self):
        """min (t - 5)^2 s.t. t <= 1 from t = 0 starts at the cap MU0 = 1;
        since 0.2^14 > MU_MIN >= 0.2^15, the 16th pass runs at MU_MIN and
        is the last, which bounds every solve without an iteration cap."""
        prob = BarrierProblem(
            dim=1,
            n_constraints=1,
            objective=lambda t: float((t[0] - 5.0) ** 2),
            gradient=lambda t: np.array([2.0 * (t[0] - 5.0)]),
            information=lambda t, lam: np.array([[2.0]]),
            constraints=lambda t: np.array([t[0] - 1.0]),
            constraint_gradients=lambda t: np.array([[1.0]]),
            constraint_quadratic=lambda s: np.zeros(1),
        )
        theta0 = np.array([0.0])
        assert barrier._initial_mu(prob, theta0, -prob.constraints(theta0)) == barrier.MU0
        theta, diag = solve(prob, theta0)
        assert diag.outer_iterations == 16
        assert diag.final_mu == MU_MIN
        assert diag.converged and diag.reason == "mu and score tolerances"
        assert 0.0 < 1.0 - theta[0] < 1e-8

    def test_nonconvergence_carries_best_iterate(self):
        """A problem whose gradient lies about the objective forces step
        collapse; the exception must carry the last iterate."""
        prob = BarrierProblem(
            dim=1,
            n_constraints=1,
            objective=lambda t: float(t[0] ** 2),
            gradient=lambda t: np.array([-10.0]),  # wrong sign on purpose
            information=lambda t, lam: np.array([[1.0]]),
            constraints=lambda t: np.array([t[0] - 100.0]),  # inactive
            constraint_gradients=lambda t: np.array([[1.0]]),
            constraint_quadratic=lambda s: np.zeros(1),
        )
        with pytest.raises(NonConvergence) as err:
            solve(prob, np.array([1.0]))
        assert err.value.theta is not None

    def test_multipliers_positive_and_complementarity(self):
        prob = quadratic_problem(
            np.array([2.0, 1.0]),
            constraints=[lambda t: float(t[0] + t[1]) - 1.0],
            constraint_grads=[lambda t: np.array([1.0, 1.0])],
        )
        theta, diag = solve(prob, np.array([-1.0, -1.0]))
        assert diag.max_complementarity <= 10 * diag.final_mu + 1e-12
        assert diag.max_complementarity > 0  # lambda stayed positive

    def test_start_off_the_path_projects_onto_the_disk(self):
        """Projecting (3, 1) onto the unit disk from (-0.3, 0): the start's
        gradient presses on no constraint, so its nnls multiplier is 0, but
        its KKT residual 3.3 sets mu0 = 3.3e-3.  Started at MU_MIN instead,
        the solve jammed at (0.928, 0.372) with score norm 1.67e6.  The
        point is asserted, not ``converged``: the slack at MU_MIN rounds to
        a score of about 1.4e-6 here, above the 1e-6 tolerance."""
        prob, theta0 = disk_problem(np.array([3.0, 1.0])), np.array([-0.3, 0.0])
        assert barrier._initial_mu(prob, theta0, -prob.constraints(theta0)) == pytest.approx(3.3e-3)
        theta, diag = solve(prob, theta0)
        np.testing.assert_allclose(theta, np.array([3.0, 1.0]) / np.sqrt(10.0), rtol=0, atol=1e-10)
        assert diag.final_score_norm < 1e-5

    def test_warm_start_after_the_optimum_moved(self, monkeypatch):
        """Two solves whose optimum moves, the second started from the first's
        result, as an EM sweep starts its tensor solve from the last sweep's:
        first the interior point (-0.3, 0), then the projection of a target
        outside the disk.  At the warm start no constraint holds the gradient
        back, so the nnls multiplier is 0.  Scaled to the start's KKT
        residual, mu0 puts the second solve on its central path and it
        converges; without that floor mu0 = MU_MIN, and it ends at the
        inner-iteration cap about 1e-2 from the optimum."""
        first, _ = solve(disk_problem(np.array([-0.3, 0.0])), np.zeros(2))
        target = 1.2 * np.array([3.0, 1.0]) / np.sqrt(10.0)
        prob = disk_problem(target)
        lam, _ = scipy.optimize.nnls(prob.constraint_gradients(first).T, -prob.gradient(first))
        assert lam.tolist() == [0.0]
        theta, diag = solve(prob, first)
        assert diag.converged and diag.outer_iterations > 1
        np.testing.assert_allclose(theta, target / 1.2, rtol=0, atol=1e-8)

        monkeypatch.setattr(barrier, "MU_KKT", 0.0)
        theta, diag = solve(prob, first)
        assert diag.outer_iterations == 1 and diag.capped_subproblems == 1
        assert not diag.converged and np.abs(theta - target / 1.2).max() > 1e-3


def half_space_problem():
    """min 1/2 ||theta - (2, 1)||^2 s.t. theta_1 + theta_2 <= 1 (demo 03):
    theta* = (1, 0) with multiplier 1."""
    return quadratic_problem(np.array([2.0, 1.0]),
                             constraints=[lambda t: float(t[0] + t[1]) - 1.0],
                             constraint_grads=[lambda t: np.array([1.0, 1.0])])


class TestPredictor:
    """After each decrease of mu the solver extrapolates along the central
    path before the next subproblem's Fisher steps."""

    def test_predicted_point_is_closer_to_the_central_path(self):
        """The half-space projection has the central path theta(mu) = c - lam a,
        lam (lam |a|^2 - r) = mu with r = a.c - beta.  From theta(mu) exactly,
        the predictor lands nearer theta(mu') than theta(mu) is, with an
        error of second order: below mu times the distance it started at."""
        c, a = np.array([2.0, 1.0]), np.array([1.0, 1.0])
        prob = half_space_problem()
        r, aa = a @ c - 1.0, a @ a

        def on_path(mu):
            return c - (r + np.sqrt(r * r + 4.0 * aa * mu)) / (2.0 * aa) * a

        for mu in 10.0 ** -np.arange(7):
            mu_next, theta = mu * barrier.MU_SHRINK, on_path(mu)
            step = barrier._predictor_step(prob, theta, -prob.constraints(theta),
                                           prob.constraint_gradients(theta), mu, mu_next)
            before = np.linalg.norm(theta - on_path(mu_next))
            after = np.linalg.norm(theta - step - on_path(mu_next))
            assert after <= mu * before, (mu, before, after)

    def test_half_space_projection_counters(self):
        """From (-1, -1) mu starts at MU0 = 1 and falls 15 times; every
        predictor is accepted, no subproblem ends at MAX_INNER, and the solve
        takes at most 20 Fisher steps (91 without the predictor)."""
        theta, diag = solve(half_space_problem(), np.array([-1.0, -1.0]))
        assert diag.converged and diag.outer_iterations == 16
        assert diag.predictor_steps == 15 and diag.capped_subproblems == 0
        assert diag.inner_iterations <= 20

    def test_capped_subproblem_counted(self):
        """min 1/2 (t - 5)^2 s.t. t >= -100 with an information 1e6 times the
        curvature: each Fisher step goes 1e-6 of the way.  The constraint is
        inactive, and mu starts at 1e-3 times the KKT residual 5: 12 passes
        from 5e-3 down to 2.6e-10 and the pass at MU_MIN, each ending at
        MAX_INNER short of its tolerance, with 11 of the 12 predictors
        accepted."""
        prob = BarrierProblem(
            dim=1,
            n_constraints=1,
            objective=lambda t: float(0.5 * (t[0] - 5.0) ** 2),
            gradient=lambda t: np.array([t[0] - 5.0]),
            information=lambda t, lam: np.array([[1e6]]),
            constraints=lambda t: np.array([-t[0] - 100.0]),
            constraint_gradients=lambda t: np.array([[-1.0]]),
            constraint_quadratic=lambda s: np.zeros(1),
        )
        theta, diag = solve(prob, np.array([0.0]))
        assert diag.outer_iterations == 13 and diag.capped_subproblems == 13
        assert diag.inner_iterations == 13 * barrier.MAX_INNER
        assert diag.predictor_steps == 11
        assert not diag.converged and diag.reason == "score tolerance not met at final mu"


class TestGradTol:
    def test_solve_rejects_nonpositive_grad_tol(self):
        for grad_tol in (0.0, -1e-6, float("nan")):
            with pytest.raises(ValueError, match="grad_tol"):
                solve(quadratic_problem([1.0, 2.0]), np.zeros(2), grad_tol)


def disk_problem(c):
    """min 1/2 ||theta - c||^2 s.t. ||theta||^2 <= 1: q(s) = s^T s."""
    return quadratic_problem(c, constraints=[lambda t: float(t @ t) - 1.0],
                             constraint_grads=[lambda t: 2.0 * t],
                             hessians=[2.0 * np.eye(len(c))])


class TestSkipRule:
    """The line search halves past a trial without evaluating it only when
    the constraints prove it infeasible, and so accepts the point that
    evaluating every trial accepts."""

    @pytest.mark.parametrize("slack", [0.5, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_never_skips_a_feasible_alpha(self, slack):
        """Random feasible theta of the tensor problem whose kurtosis block
        is scaled to within ``slack`` (relative) of the decay boundary, and
        random steps: each alpha above the bound, of the halving sequence
        from 1 and of a dense set just above the bound, is infeasible."""
        protocol, _, _ = scenario("dataset2", snr=15.0, seed=0, n_voxels=1)
        design = build_design(protocol.rescaled(estimators.B_INTERNAL_SCALE))
        model = estimators.ExponentModel(design)
        loss = estimators.RicianSurrogate(1.0, np.ones(design.m))
        problem = estimators.tensor_problem(model, loss)
        rng = np.random.default_rng(20261019)
        skipped = 0
        for _ in range(150):
            L = rng.normal(size=6) * 0.3
            L[:3] = np.abs(L[:3]) + 0.7
            tq = rng.normal(size=18)
            # g(L; t tq) = g(L; 0) + t^2 g(0; tq): this t puts theta on the boundary
            t = np.sqrt(np.min(-model.constraints(np.r_[L, np.zeros(18)])
                               / model.constraints(np.r_[np.zeros(6), tq])))
            theta = np.r_[L, tq * t * (1.0 - slack)]
            g = problem.constraints(theta)
            if not np.all(g < 0):
                continue
            step = rng.normal(size=24) * 10.0 ** rng.uniform(-3, 1)
            bound = barrier._feasible_bound(problem, theta, step, g,
                                            problem.constraint_gradients(theta))
            alphas = 0.5 ** np.arange(41)
            if np.isfinite(bound):
                alphas = np.r_[alphas, bound * (1.0 + np.logspace(-12, 0, 25))]
            for alpha in alphas[alphas > bound]:
                assert np.any(model.constraints(theta - alpha * step) >= 0), (slack, alpha, bound)
                skipped += 1
        assert skipped > 1000

    def test_disk_projection_skips_and_matches_evaluating_every_trial(self, monkeypatch):
        """Projection of (3, 1) onto the unit disk from (0.6, -0.6): the
        constraint is quadratic, trials beyond the circle are skipped, and
        the iterates are those of the line search that evaluates every
        trial.  (From (0.1, -0.2) the predictor steps leave no trial to skip
        after the first subproblem, whose steps stay inside the circle.)"""
        c = np.array([3.0, 1.0])
        theta, diag = solve(disk_problem(c), np.array([0.6, -0.6]))
        np.testing.assert_allclose(theta, c / np.linalg.norm(c), atol=1e-6)
        assert diag.trials_skipped > 0 and diag.predictor_steps > 0
        monkeypatch.setattr(barrier, "_feasible_bound", lambda *args: np.inf)
        ref, ref_diag = solve(disk_problem(c), np.array([0.6, -0.6]))
        assert np.array_equal(theta, ref) and ref_diag.trials_skipped == 0
        assert diag.objective_trace == ref_diag.objective_trace
        assert diag.trials_evaluated + diag.trials_skipped == ref_diag.trials_evaluated
        assert diag.trials_infeasible + diag.trials_skipped == ref_diag.trials_infeasible


def line_problem(target, bound):
    """min 1/2 (t - target)^2 subject to t <= bound, in one dimension."""
    return quadratic_problem([target], constraints=[lambda t: float(t[0]) - bound],
                             constraint_grads=[lambda t: np.array([1.0])])


def outcome(problem, theta0):
    """solve's iterate, its diagnostics as a dict, and the message of the
    NonConvergence it raised (or None)."""
    try:
        theta, diag = solve(problem, np.array(theta0, dtype=float))
        message = None
    except NonConvergence as exc:
        theta, diag, message = exc.theta, exc.diagnostics, str(exc)
    return theta.tobytes(), dataclasses.asdict(diag), message


def one_at_a_time(alpha, bound, theta, step, diag):
    """:func:`barrier._skip_infeasible` forming the trial of every alpha it
    skips: each is checked for a move and for MIN_STEP before it is counted."""
    while alpha > bound and alpha >= barrier.MIN_STEP and (theta - alpha * step != theta).any():
        diag.trials_skipped += 1
        alpha *= barrier.STEP_SHRINK
    return alpha


class TestSkipLoop:
    """Past the alphas the bound proves infeasible, the line search halves
    in a scalar loop that forms no trial.  Its counters, iterates and exits
    equal those of stepping through the skipped alphas one at a time."""

    @pytest.mark.parametrize("alpha, bound, theta, step, want, skipped", [
        (0.5, 0.1, 1.0, 1.0, 0.0625, 3),  # lands on 0.0625 past 0.5, 0.25 and 0.125
        (0.5, 0.125, 1.0, 1.0, 0.125, 2),  # an alpha equal to the bound is tried
        # 2^-34 * 1.5 is below half an ulp of 1e8: the first alpha that
        # rounds to no move, 2^-28, is where the search stalls
        (0.5, 1e-10, 1e8, -1.5, 2.0**-28, 27),
        (0.5, 1e-13, 0.0, 1.0, 2.0**-40, 39),  # 2^-40 < MIN_STEP: it collapses there
    ])
    def test_next_alpha_and_skipped_count(self, alpha, bound, theta, step, want, skipped):
        for rule in (barrier._skip_infeasible, one_at_a_time):
            diag = barrier.SolverDiagnostics()
            assert rule(alpha, bound, np.array([theta]), np.array([step]), diag) == want
            assert diag.trials_skipped == skipped

    # (problem, start, bound forced on every line search or None, the case
    # the skip loop meets: the first alpha at most the bound moves theta,
    # rounds to no move, or lies below MIN_STEP)
    CASES = {
        # the first Fisher step overshoots t <= 1 more than twofold (with a
        # target of 5 exactly twofold: its first halving lands on the bound)
        "ordinary landing": (lambda: line_problem(20.0, 1.0), [0.0], None, "lands"),
        "landing rounds to no move": (lambda: line_problem(1e8 + 4.0, 1e8 + 1.0), [1e8],
                                      1e-10, "no move"),
        "skipping passes MIN_STEP": (lambda: line_problem(5.0, 1.0), [0.0], 1e-13,
                                     "below MIN_STEP"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_solve_equals_one_alpha_at_a_time(self, monkeypatch, case):
        make, theta0, forced, expected = self.CASES[case]
        if forced is not None:
            monkeypatch.setattr(barrier, "_feasible_bound", lambda *args: forced)
        original, met = barrier._skip_infeasible, set()

        def classified(alpha, bound, theta, step, diag):
            landing = alpha
            while landing > bound:
                landing *= barrier.STEP_SHRINK
            met.add("below MIN_STEP" if landing < barrier.MIN_STEP
                    else "lands" if (theta - landing * step != theta).any() else "no move")
            return original(alpha, bound, theta, step, diag)

        monkeypatch.setattr(barrier, "_skip_infeasible", classified)
        fast = outcome(make(), theta0)
        assert expected in met
        monkeypatch.setattr(barrier, "_skip_infeasible", one_at_a_time)
        assert fast == outcome(make(), theta0)
        assert fast[1]["trials_skipped"] > 0
        if expected == "below MIN_STEP":
            assert fast[1]["reason"] == "step collapse"


class TestNonFinite:
    """NaN and inf values have no fallback: a NaN constraint is infeasible,
    and a step that is not finite ends the solve."""

    @pytest.mark.parametrize("entry, value", [
        ((0, 0), np.nan), ((0, 1), np.nan), ((1, 1), np.inf), ((0, 1), np.inf)])
    def test_non_finite_information_raises_at_the_first_step(self, entry, value):
        """LAPACK's potrf factors a matrix with a NaN on or off its diagonal
        without an error, so the information is not checked; the Fisher
        step it gives is."""
        def information(theta, lam):
            H = np.eye(2)
            H[entry] = H[entry[::-1]] = value
            return H

        problem = dataclasses.replace(quadratic_problem(
            [1.0, 2.0], constraints=[lambda t: float(t[0] + t[1]) - 10.0],
            constraint_grads=[lambda t: np.array([1.0, 1.0])]), information=information)
        with np.errstate(all="ignore"), pytest.raises(NonConvergence, match="not finite") as err:
            solve(problem, np.zeros(2))
        diag = err.value.diagnostics
        assert diag.reason == "non-finite step"
        assert diag.inner_iterations == 1 and diag.trials_evaluated == 0
        assert np.array_equal(err.value.theta, np.zeros(2))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("entry, value", [((0, 1), np.inf), ((0, 0), -np.inf)])
    def test_non_finite_information_is_factored_at_most_twice(self, monkeypatch, entry,
                                                              value):
        """An inf off the diagonal or a -inf on it cannot be made positive
        definite by any bump: regularize returns after its first failed
        factorization, no warning is emitted, and the solve ends with a
        non-finite step as before."""
        from scipy.linalg import lapack

        calls, real = [], lapack.dpotrf

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(lapack, "dpotrf", counting)

        def information(theta, lam):
            H = np.eye(2)
            H[entry] = H[entry[::-1]] = value
            return H

        problem = dataclasses.replace(quadratic_problem(
            [1.0, 2.0], constraints=[lambda t: float(t[0] + t[1]) - 10.0],
            constraint_grads=[lambda t: np.array([1.0, 1.0])]), information=information)
        with pytest.raises(NonConvergence, match="not finite") as err:
            solve(problem, np.zeros(2))
        assert err.value.diagnostics.reason == "non-finite step"
        assert 1 <= len(calls) <= 2

    def test_nan_constraint_counts_as_infeasible(self):
        """t <= 1 computed as t - 1 and as a function that is NaN wherever
        t - 1 >= 0: the trials past the bound are infeasible in both, so the
        solves are identical, and a NaN start is rejected."""
        def nan_outside(t):
            g = float(t[0]) - 1.0
            return g if g < 0 else np.nan

        plain = line_problem(5.0, 1.0)
        nan = dataclasses.replace(plain, constraints=lambda t: np.array([nan_outside(t)]))
        assert outcome(nan, [0.0]) == outcome(plain, [0.0])
        assert outcome(plain, [0.0])[1]["trials_infeasible"] > 0
        assert barrier._evaluate(nan, np.array([3.0]))[2] is False
        with pytest.raises(Infeasible, match="constraint 0"):
            solve(nan, np.array([2.0]))


def counted(problem):
    """A copy of ``problem`` whose callables log the points they get."""
    calls = {"objective": [], "constraints": [], "gradient": []}

    def logged(name):
        fn = getattr(problem, name)

        def call(theta, *rest):
            calls[name].append(theta.tobytes())
            return fn(theta, *rest)
        return call

    swaps = {name: logged(name) for name in calls if getattr(problem, name) is not None}
    return dataclasses.replace(problem, **swaps), calls


def counted_solves(monkeypatch, y, protocol):
    """The call logs of :func:`counted` for every solve of an EM-MLE fit."""
    original = barrier.solve
    solves = []

    def counting_solve(problem, theta0, grad_tol):
        probe, calls = counted(problem)
        solves.append(calls)
        return original(probe, theta0, grad_tol)

    monkeypatch.setattr(barrier, "solve", counting_solve)
    estimators.fit_voxel(y, protocol, "mle")
    return solves


def assert_no_point_evaluated_twice(calls):
    for name in ("objective", "constraints"):
        repeats = sum(n - 1 for n in Counter(calls[name]).values())
        assert repeats == 0, f"{name} evaluated {repeats} times at a point it had seen"


class TestOneEvaluationPerPoint:
    """The start is evaluated once, and each trial point once; the merit,
    the multipliers and the trace reuse those values.

    A subproblem whose step is lost in rounding is left without evaluating
    the trial, so a stalled solve repeats no point either; iterates that
    cycle among points of equal merit still do (not covered here).
    """

    CASES = {
        "quadratic, inactive constraint": lambda: (quadratic_problem(
            [1.0, 2.0],
            constraints=[lambda t: float(t[0] + t[1]) - 10.0],
            constraint_grads=[lambda t: np.array([1.0, 1.0])],
        ), np.zeros(2)),
        "linear, active constraint": lambda: (BarrierProblem(
            dim=1,
            n_constraints=1,
            objective=lambda t: float(t[0]),
            gradient=lambda t: np.array([1.0]),
            information=lambda t, lam: np.array([[1e-12]]),
            constraints=lambda t: np.array([-t[0]]),
            constraint_gradients=lambda t: np.array([[-1.0]]),
            constraint_quadratic=lambda s: np.zeros(1),
        ), np.array([1.0])),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_no_point_evaluated_twice(self, case):
        problem, theta0 = self.CASES[case]()
        probe, calls = counted(problem)
        solve(probe, theta0)
        assert len(calls["objective"]) > 2
        assert_no_point_evaluated_twice(calls)

    @pytest.mark.parametrize("case", CASES)
    def test_objective_trace_is_the_objective_at_the_iterates(self, case):
        """The trace holds, bit for bit, the objective at the start and at
        each accepted iterate, the points at which the score is taken."""
        problem, theta0 = self.CASES[case]()
        probe, calls = counted(problem)
        theta, diag = solve(probe, theta0)
        points = [p for i, p in enumerate(calls["gradient"])
                  if i == 0 or p != calls["gradient"][i - 1]]
        if points[-1] != theta.tobytes():
            points.append(theta.tobytes())
        assert len(points) == diag.inner_iterations + diag.predictor_steps + 1
        assert diag.objective_trace == [problem.objective(np.frombuffer(p)) for p in points]

    def test_tensor_problem_voxel(self, monkeypatch):
        """Every solve of an EM-MLE voxel fit, on the full tensor problem."""
        protocol, rows, _ = scenario("dataset2", snr=15.0, seed=0, n_voxels=1)
        solves = counted_solves(monkeypatch, rows[0], protocol)
        assert len(solves) > 1
        for calls in solves:
            assert_no_point_evaluated_twice(calls)

    @pytest.mark.parametrize("voxel", [3, 12])
    def test_stalled_panel_voxels(self, monkeypatch, voxel):
        """The EM-MLE voxels of the seed-0 panel (dataset2, SNR 15, 18
        voxels) whose first solve stalled while it started at MU_MIN.  Before
        the stall exit it repeated its last iteration until the
        inner-iteration cap and evaluated the objective and the constraints
        at 929 (voxel 3) and 701 (voxel 12) points a second time.  Started
        at 1e-3 times the KKT residual, their solves converge without a
        stall."""
        protocol, rows, _ = scenario("dataset2", snr=15.0, seed=0, n_voxels=18)
        solves = counted_solves(monkeypatch, rows[voxel], protocol)
        assert len(solves) > 1
        for calls in solves:
            assert_no_point_evaluated_twice(calls)


class TestSolverWorkOnPanels:
    """The number of tensor solves, their total inner iterations and their
    line-search trials on the benchmark's seed-0 accuracy panels (dataset2,
    18 voxels; mle at SNR 15, cwls at SNR 5).  They repeat exactly, so a
    change that moves them moves the solver's work and has to report the
    new counts.  Before the skip rule, evaluating every trial took 16370
    trials on the mle panel (8312 infeasible, with the series/asymptotic
    Bessel kernel of that time) and 5127 on the cwls panel (947
    infeasible); the skip rule leaves the solves and inner iterations as
    they were.  Before the predictor steps the mle panel took 49 solves,
    2896 inner iterations and trials (6971, 1202, 6702), and the cwls panel
    36 solves, 2405 inner iterations and trials (3813, 500, 447).  Before
    mu0 was floored at 1e-3 times the start's KKT residual the mle panel
    took 50 solves, 2068 inner iterations, trials (3202, 948, 6561), 170
    predictors, 22 capped subproblems, 831 E-steps and 68 exponents; the
    cwls counts did not move."""

    # line-search trials (evaluated, evaluated and infeasible, skipped), and
    # (accepted predictor steps, subproblems that ended at MAX_INNER)
    TRIALS = {"mle": (2176, 63, 16), "cwls": (1874, 142, 68)}
    PREDICTOR = {"mle": (441, 0), "cwls": (233, 0)}

    @pytest.mark.parametrize("estimator, snr, solves, inner", [
        ("mle", 15.0, 49, 1634),
        ("cwls", 5.0, 36, 1458),
    ])
    def test_solves_and_inner_iterations(self, monkeypatch, estimator, snr, solves, inner):
        protocol, rows, _ = scenario("dataset2", snr=snr, seed=0, n_voxels=18)
        original = barrier.solve
        diags = []

        def counting_solve(problem, theta0, grad_tol):
            try:
                theta, diag = original(problem, theta0, grad_tol)
            except NonConvergence as exc:
                diags.append(exc.diagnostics)
                raise
            diags.append(diag)
            return theta, diag

        monkeypatch.setattr(barrier, "solve", counting_solve)
        for row in rows:
            estimators.fit_voxel(row, protocol, estimator)
        assert (len(diags), sum(d.inner_iterations for d in diags)) == (solves, inner)
        assert tuple(sum(getattr(d, f"trials_{kind}") for d in diags)
                     for kind in ("evaluated", "infeasible", "skipped")) == self.TRIALS[estimator]
        assert (sum(d.predictor_steps for d in diags),
                sum(d.capped_subproblems for d in diags)) == self.PREDICTOR[estimator]

    def test_mle_estep_count(self, monkeypatch):
        """Each EM E-step is taken once per parameter change: the E-step
        behind a sweep's surrogate value also starts the next sweep (860
        on this panel when it was repeated)."""
        protocol, rows, _ = scenario("dataset2", snr=15.0, seed=0, n_voxels=18)
        original = estimators.em_estep
        calls = []

        def counting_estep(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(estimators, "em_estep", counting_estep)
        for row in rows:
            estimators.fit_voxel(row, protocol, "mle")
        assert len(calls) == 815

    def test_mle_signal_model_evaluations(self, monkeypatch):
        """Each EM-MLE fit builds one exponent model and evaluates its
        exponent outside the tensor solves only at the start and after each
        tensor update (49 solves): the E-steps, M-steps and surrogate take
        that exponent (2448 models and 2398 evaluations on this panel when
        each step rebuilt the model)."""
        protocol, rows, _ = scenario("dataset2", snr=15.0, seed=0, n_voxels=18)
        model = estimators.ExponentModel
        original_init, original_exponent, original_solve = (
            model.__init__, model.exponent, barrier.solve)
        counts = Counter()
        in_solve = []

        def counting_init(self, design):
            counts["models"] += 1
            original_init(self, design)

        def counting_exponent(self, L, theta_q):
            if not in_solve:
                counts["exponents"] += 1
            return original_exponent(self, L, theta_q)

        def marked_solve(*args):
            in_solve.append(1)
            try:
                return original_solve(*args)
            finally:
                in_solve.pop()

        monkeypatch.setattr(model, "__init__", counting_init)
        monkeypatch.setattr(model, "exponent", counting_exponent)
        monkeypatch.setattr(barrier, "solve", marked_solve)
        for row in rows:
            estimators.fit_voxel(row, protocol, "mle")
        assert (counts["models"], counts["exponents"]) == (18, 67)

    def test_noise_model_stands_alone(self):
        """The Rician module holds the noise model only: it takes model
        signals, not tensors or designs."""
        for name in ("ExponentModel", "DesignMatrices", "ModelParams"):
            assert not hasattr(rician, name), name
