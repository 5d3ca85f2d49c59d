import dataclasses
import time
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

import dkimle
from dkimle import barrier, estimators
from dkimle.estimators import (
    B_INTERNAL_SCALE,
    ConstraintFlags,
    DegenerateVoxel,
    ExponentModel,
    LogResidual,
    RankDeficient,
    RicianSurrogate,
    VoxelData,
    em_estep,
    em_mstep_s0,
    em_mstep_sigma2,
    fit_voxel,
    init_params,
    tensor_problem,
    update_tensors,
    violation_flags,
    wls_fit,
)
from dkimle.protocol import AcquisitionProtocol, build_design, quartic_rows
from dkimle.rician import AugmentedState, bessel_ratio
from dkimle.simulate import random_tensor_truth, scenario, simulate_voxel
from dkimle.sphere import fibonacci_sphere
from dkimle.tensors import (
    ModelParams,
    apparent_coefficients,
    gram_from_q,
    kurtosis_from_gram,
    mean_diffusivity,
    predict_signal,
    theta_d_from_l,
)

from conftest import (
    LiftedCwls,
    ReferenceLogResidual,
    ReferenceRicianSurrogate,
    cho_fisher_step,
    cho_regularize,
    dense_p_matrix,
    fd_gradient,
    fd_hessian,
    kron_constraint_curvature,
    kron_curvature,
    random_unit,
    reference_tensor_problem,
    reference_violation_flags,
    two_pass_wls,
    vvec,
)


def internal_design(protocol):
    return build_design(protocol.rescaled(B_INTERNAL_SCALE))


def exponent(params, design):
    """The attenuation pair (exp eta_D, exp eta_Q) the EM steps take, at
    ``params``."""
    eta_d, eta_q = ExponentModel(design).exponent(params.L, params.theta_q)
    return np.exp(eta_d), np.exp(eta_q)


def decay_constraints(L, theta_q, design):
    """The decay constraints g of ``design`` at (L, theta_Q)."""
    return ExponentModel(design).constraints(np.concatenate([L, theta_q]))


def three_shell_protocol():
    dirs = fibonacci_sphere(24)
    shells = [500.0, 1000.0, 1500.0]
    b = np.repeat(shells, len(dirs))
    g = np.tile(dirs, (len(shells), 1))
    return AcquisitionProtocol(b, g)


def noiseless_voxel(seed):
    protocol = three_shell_protocol()
    rng = np.random.default_rng(seed)
    gt = random_tensor_truth(rng, protocol)
    vox = simulate_voxel(gt, protocol, 1.0, 1e-9, np.random.default_rng(seed + 1))
    return protocol, gt, vox


def feasible_params(rng, design, scale=0.3):
    L = rng.normal(size=6) * 0.3
    L[:3] = np.abs(L[:3]) + 0.7
    theta_q = rng.normal(size=18) * scale
    # shrink until strictly feasible
    for _ in range(40):
        g = decay_constraints(L, theta_q, design)
        if np.all(g < -1e-3):
            break
        theta_q *= 0.7
    return ModelParams(L, theta_q, 1.0, 0.01)


class TestWls:
    def test_noiseless_exact_recovery(self):
        protocol, gt, vox = noiseless_voxel(0)
        design = internal_design(protocol)
        fit = wls_fit(vox, design)
        theta_d_int = gt.theta_d / B_INTERNAL_SCALE
        np.testing.assert_allclose(fit.theta_d, theta_d_int, rtol=1e-7)
        md = mean_diffusivity(theta_d_int)
        np.testing.assert_allclose(fit.theta_w_scaled, md * md * gt.theta_w, rtol=1e-6, atol=1e-9)
        assert fit.log_s0 == pytest.approx(0.0, abs=1e-7)

    def test_b0_only_degenerate(self):
        protocol = AcquisitionProtocol(
            np.zeros(25), np.tile([1.0, 0, 0], (25, 1))
        )
        design = build_design(protocol)
        y = np.full(25, 3.0)
        fit = wls_fit(VoxelData(y), design)
        assert fit.underdetermined
        assert fit.log_s0 == pytest.approx(np.log(3.0), abs=1e-12)
        np.testing.assert_allclose(fit.theta_d, 0.0, atol=0)
        np.testing.assert_allclose(fit.theta_w_scaled, 0.0, atol=0)

    def test_too_few_rows(self):
        g = np.array([random_unit(np.random.default_rng(3)) for _ in range(10)])
        protocol = AcquisitionProtocol(np.full(10, 1000.0), g)
        with pytest.raises(RankDeficient):
            wls_fit(VoxelData(np.ones(10)), build_design(protocol))

    def test_degenerate_gradients(self):
        # 30 rows but a single direction: rank deficient
        protocol = AcquisitionProtocol(
            np.full(30, 1000.0), np.tile([1.0, 0, 0], (30, 1))
        )
        with pytest.raises(RankDeficient):
            wls_fit(VoxelData(np.ones(30)), build_design(protocol))

    def test_rank_check_follows_the_rows_used(self):
        """The design's rank is checked on the rows a voxel uses: after a
        full-rank fit, zeros that leave only a single gradient direction
        still raise RankDeficient on the same design."""
        base = three_shell_protocol()
        bvals = np.concatenate([base.bvals, np.linspace(500.0, 2000.0, 30)])
        protocol = AcquisitionProtocol(
            bvals, np.vstack([base.bvecs, np.tile([1.0, 0.0, 0.0], (30, 1))]))
        design = internal_design(protocol)
        y = np.exp(-1e-3 * bvals)
        wls_fit(VoxelData(y), design)
        y[:base.m] = 0.0
        with pytest.raises(RankDeficient, match="full column rank"):
            wls_fit(VoxelData(y), design)
        wls_fit(VoxelData(np.where(y > 0, y, 0.5)), design)

    @staticmethod
    def rank_case(name):
        """(protocol, magnitudes) of one design the rank rule is checked on."""
        if name.startswith("dataset"):
            protocol, rows, _ = scenario(name, seed=0, n_voxels=6 if name == "dataset1" else 1)
            return protocol, rows[0]
        if name == "too_few_rows":
            g = np.array([random_unit(np.random.default_rng(3)) for _ in range(10)])
            return AcquisitionProtocol(np.full(10, 1000.0), g), np.ones(10)
        if name == "single_direction":
            g = np.tile([1.0, 0, 0], (30, 1))
            return AcquisitionProtocol(np.full(30, 1000.0), g), np.ones(30)
        base = three_shell_protocol()  # zeros drop every row but a single direction's
        bvals = np.concatenate([base.bvals, np.linspace(500.0, 2000.0, 30)])
        y = np.exp(-1e-3 * bvals)
        y[:base.m] = 0.0
        return AcquisitionProtocol(
            bvals, np.vstack([base.bvecs, np.tile([1.0, 0.0, 0.0], (30, 1))])), y

    @pytest.mark.parametrize("name, deficient", [
        ("dataset1", False), ("dataset2", False), ("dataset3", False),
        ("too_few_rows", True), ("single_direction", True), ("zero_dropped_rows", True),
    ])
    def test_rank_rule_is_matrix_rank(self, name, deficient):
        """wls_fit raises RankDeficient exactly when np.linalg.matrix_rank
        of the regression matrix on the rows it uses is below 22."""
        protocol, y = self.rank_case(name)
        design = internal_design(protocol)
        use = y != 0.0
        X = np.column_stack([np.ones(int(np.sum(use))), design.z_d[use], design.z_w[use]])
        try:
            wls_fit(VoxelData(y), design)
            raised = False
        except RankDeficient:
            raised = True
        assert raised == (np.linalg.matrix_rank(X) < 22) == deficient

    @staticmethod
    def oracle_case(name):
        """(protocol, magnitude rows) of a seed-0 panel, or the dataset2
        voxel with one zero magnitude."""
        if name == "zero_row":
            protocol, rows, _ = scenario("dataset2", snr=15.0, seed=0, n_voxels=1)
            rows[0, 40] = 0.0
            return protocol, rows
        protocol, rows, _ = scenario(name, seed=0)
        return protocol, rows

    @pytest.mark.parametrize("name", ["dataset1", "dataset2", "dataset3", "zero_row"])
    def test_matches_two_pass_lstsq(self, name):
        """The single QR solve with weights Y^2 gives the two-pass SVD fit
        with weights Y^2 / S0^2, whose common 1/S0^2 cancels.  S0 and
        sigma^2 agree to 1e-12 relative, and each tensor block to 1e-12 of
        its largest element."""
        protocol, rows = self.oracle_case(name)
        design = internal_design(protocol)
        for y in rows:
            data = VoxelData(y)
            fit = wls_fit(data, design)
            log_s0, theta_d, theta_w_scaled, sigma2 = two_pass_wls(data, design)
            assert fit.s0 == pytest.approx(np.exp(log_s0), rel=1e-12)
            assert fit.sigma2 == pytest.approx(sigma2, rel=1e-12)
            for got, want in ((fit.theta_d, theta_d), (fit.theta_w_scaled, theta_w_scaled)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_exactly_22_usable_rows(self):
        """A voxel left with as many usable rows as parameters (32 of the 54
        dataset3 magnitudes zeroed, the 22 kept of full rank) gets the exact
        fit of the two-pass SVD solve."""
        protocol, rows, _ = scenario("dataset3", seed=0, n_voxels=1)
        design = internal_design(protocol)
        keep = np.arange(0, 54, 54 / 22).astype(int)
        y = np.zeros(protocol.m)
        y[keep] = rows[0, keep]
        assert keep.size == 22 and np.linalg.matrix_rank(design.regression[keep]) == 22
        data = VoxelData(y)
        fit = wls_fit(data, design)
        log_s0, theta_d, theta_w_scaled, _ = two_pass_wls(data, design)
        assert fit.s0 == pytest.approx(np.exp(log_s0), rel=1e-12)
        for got, want in ((fit.theta_d, theta_d), (fit.theta_w_scaled, theta_w_scaled)):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        np.testing.assert_allclose(fit.s0 * np.exp(design.regression[keep, 1:] @ np.concatenate(
            [fit.theta_d, fit.theta_w_scaled])), y[keep], rtol=1e-10)

    @pytest.mark.parametrize("n_rows", [5, 20, 53])
    def test_subnormal_rows_are_dropped_like_zero_rows(self, capfd, n_rows):
        """Magnitudes whose weight Y^2 underflows to 0 carry no weight: the
        fit equals the one with those magnitudes zero, or raises
        RankDeficient like it, and prints and warns nothing.  The two-pass
        SVD solve raised LinAlgError on all three, after LAPACK printed
        'DLASCL parameter number 4 had an illegal value'."""
        protocol, rows, _ = scenario("dataset3", seed=0, n_voxels=1)
        design = internal_design(protocol)
        subnormal, zero = rows[0].copy(), rows[0].copy()
        subnormal[:n_rows], zero[:n_rows] = 5e-324, 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            outcomes = []
            for y in (subnormal, zero):
                try:
                    fit = wls_fit(VoxelData(y), design)
                    outcomes.append(np.concatenate([[fit.log_s0, fit.sigma2],
                                                    fit.theta_d, fit.theta_w_scaled]))
                except RankDeficient as exc:
                    outcomes.append(str(exc))
        if n_rows == 5:
            np.testing.assert_array_equal(outcomes[0], outcomes[1])
        else:
            assert outcomes[0] == outcomes[1]
            assert ("usable rows" in outcomes[0]) == (n_rows == 53)
        assert capfd.readouterr() == ("", "")

    def test_full_row_fits_use_no_svd(self, monkeypatch):
        """Once the design's rank is cached, fits that use every row call
        no SVD: no lstsq, svd or matrix_rank."""
        protocol, rows, _ = scenario("dataset3", seed=0, n_voxels=3)
        design = internal_design(protocol)
        assert design.regression_rank == 22
        fit_voxel(rows[0], protocol, "wls")  # caches the driver's design and its rank

        def refuse(*args, **kwargs):
            raise AssertionError("SVD called")

        for name in ("lstsq", "svd", "matrix_rank"):
            monkeypatch.setattr(np.linalg, name, refuse)
        for y in rows:
            wls_fit(VoxelData(y), design)
            fit_voxel(y, protocol, "wls")

    def test_zero_rows_excluded(self):
        protocol, gt, vox = noiseless_voxel(4)
        y = vox.y.copy()
        y[3] = 0.0
        fit = wls_fit(VoxelData(y), internal_design(protocol))
        # one lost row barely moves a 72-row regression
        np.testing.assert_allclose(
            fit.theta_d, gt.theta_d / B_INTERNAL_SCALE, rtol=1e-5
        )


class TestVoxelData:
    def test_zero_mask_follows_y(self):
        """The zero mask is derived from the magnitudes and cannot be set,
        so it never disagrees with them (``test_api`` checks that it is no
        longer a constructor argument)."""
        vox = VoxelData([0.0, 0.5, 0.0, 1.0])
        np.testing.assert_array_equal(vox.zero_mask, [True, False, True, False])
        vox.y = np.array([1.0, 0.0])
        np.testing.assert_array_equal(vox.zero_mask, [False, True])
        with pytest.raises(AttributeError):
            vox.zero_mask = np.zeros(2, dtype=bool)

    @pytest.mark.parametrize("estimator", ["wls", "cwls", "mle"])
    def test_zero_magnitude_voxel_fits(self, estimator):
        """A dataset2 voxel with one zero magnitude; a caller-given mask
        that missed the zero used to make every estimator raise
        LinAlgError."""
        protocol, rows, _ = scenario("dataset2", snr=15.0, seed=0, n_voxels=1)
        y = rows[0].copy()
        y[40] = 0.0
        fit = fit_voxel(VoxelData(y), protocol, estimator)
        assert np.all(np.isfinite(fit.theta_d)) and np.all(np.isfinite(fit.theta_w))


class TestInitParams:
    def test_zero_kurtosis(self):
        protocol, gt, vox = noiseless_voxel(5)
        design = internal_design(protocol)
        wls = wls_fit(vox, design)
        wls.theta_w_scaled = np.zeros(15)
        params = init_params(wls, ExponentModel(design))
        np.testing.assert_allclose(params.theta_q, 0.0, atol=0)
        g = decay_constraints(params.L, params.theta_q, design)
        assert np.all(g < 0)

    def test_rank3_gram_roundtrip(self, rng):
        """A representable kurtosis form survives initialization exactly:
        the factored parameters reproduce the generating quartic on
        random directions."""
        protocol, gt, vox = noiseless_voxel(6)
        design = internal_design(protocol)
        wls = wls_fit(vox, design)
        params = init_params(wls, ExponentModel(design))
        md = mean_diffusivity(params.theta_d)
        G_init = gram_from_q(params.theta_q, md)
        G_true = dkimle.gram_from_kurtosis(gt.theta_w)
        for _ in range(30):
            v = vvec(random_unit(rng))
            got = float(v @ G_init @ v)
            want = float(v @ G_true @ v)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-8)
        np.testing.assert_allclose(
            kurtosis_from_gram(G_init), gt.theta_w, atol=1e-6
        )

    def test_negative_eigenvalue_clamped(self):
        protocol, gt, vox = noiseless_voxel(7)
        design = internal_design(protocol)
        wls = wls_fit(vox, design)
        wls.theta_d = np.array([1.0, 1.0, -0.5, 0.0, 0.0, 0.0])
        params = init_params(wls, ExponentModel(design))
        vals = np.linalg.eigvalsh(
            np.array([
                [params.theta_d[0], params.theta_d[3], params.theta_d[4]],
                [params.theta_d[3], params.theta_d[1], params.theta_d[5]],
                [params.theta_d[4], params.theta_d[5], params.theta_d[2]],
            ])
        )
        assert vals.min() > 0

    def test_always_strictly_feasible(self, rng):
        protocol = three_shell_protocol()
        design = internal_design(protocol)
        for seed in range(5):
            # corrupt heavily so the raw fit is strongly infeasible
            gt = random_tensor_truth(np.random.default_rng(seed), protocol)
            vox = simulate_voxel(gt, protocol, 1.0, 1.0 / 5.0, np.random.default_rng(seed))
            wls = wls_fit(vox, design)
            params = init_params(wls, ExponentModel(design))
            g = decay_constraints(params.L, params.theta_q, design)
            assert np.all(g < 0)


class TestEStep:
    def test_vanishing_amplitude(self):
        """cos(phase) expectations vanish with the signal amplitude."""
        protocol, gt, vox = noiseless_voxel(8)
        design = internal_design(protocol)
        params = feasible_params(np.random.default_rng(0), design)
        params.s0 = 1e-300
        state = em_estep(params, vox.y, exponent(params, design))
        np.testing.assert_allclose(state.cos_phi, 0.0, atol=1e-250)

    def test_snr_to_infinity(self):
        protocol, gt, vox = noiseless_voxel(9)
        design = internal_design(protocol)
        params = feasible_params(np.random.default_rng(1), design)
        params.sigma2 = 1e-20
        state = em_estep(params, vox.y, exponent(params, design))
        assert np.all(state.cos_phi > 1 - 1e-12)

    def test_matches_reassembled_argument(self, rng):
        """Each entry equals the Bessel ratio of Y S0 zeta psi / sigma^2
        assembled independently."""
        protocol, gt, vox = noiseless_voxel(10)
        design = internal_design(protocol)
        params = feasible_params(rng, design)
        state = em_estep(params, vox.y, exponent(params, design))
        s = predict_signal(params, design)
        kappa = vox.y * s / params.sigma2
        np.testing.assert_allclose(state.cos_phi, bessel_ratio(kappa), atol=1e-14)


class TestMSteps:
    def _instance(self, seed):
        protocol, gt, vox = noiseless_voxel(seed)
        design = internal_design(protocol)
        rng = np.random.default_rng(seed)
        params = feasible_params(rng, design)
        y = np.abs(rng.normal(0.5, 0.2, size=design.m))
        state = AugmentedState(rng.uniform(0.2, 0.99, size=design.m))
        return design, params, y, state

    def test_flat_model_average(self, rng):
        design, params, y, state = self._instance(11)
        params.L = np.zeros(6) + 1e-12
        params.theta_q = np.zeros(18)
        tau = y * state.cos_phi
        s0 = em_mstep_s0(state, y, exponent(params, design))
        assert s0 == pytest.approx(float(np.mean(tau)), rel=1e-12)

    def test_noiseless_exact_amplitude(self):
        protocol, gt, vox = noiseless_voxel(12)
        design = internal_design(protocol)
        params = ModelParams(
            dkimle.cholesky_of_d(gt.theta_d / B_INTERNAL_SCALE),
            init_params(wls_fit(vox, design), ExponentModel(design)).theta_q,
            2.0,  # wrong amplitude on purpose
            1e-12,
        )
        state = AugmentedState(np.full(design.m, np.nextafter(1.0, 0.0)))
        s0 = em_mstep_s0(state, vox.y, exponent(params, design))
        assert s0 == pytest.approx(1.0, rel=1e-5)

    def test_s0_maximizes_surrogate(self):
        """The closed-form amplitude equals the 1-d maximizer found by
        golden-section search."""
        design, params, y, state = self._instance(13)
        from dkimle.rician import joint_loglik

        def neg(s0):
            p = ModelParams(params.L, params.theta_q, s0, params.sigma2)
            return -joint_loglik(y, predict_signal(p, design), p.sigma2, state)

        best = minimize_scalar(neg, bounds=(1e-6, 10.0), method="bounded",
                               options={"xatol": 1e-12})
        s0 = em_mstep_s0(state, y, exponent(params, design))
        assert s0 == pytest.approx(best.x, rel=1e-6)

    def test_sigma2_formula_and_convention(self):
        """The noise update equals the independently assembled residual
        sum over 2(m-1); the exact 1-d mode uses 2m, so the update is the
        mode rescaled by m/(m-1)."""
        design, params, y, state = self._instance(14)
        s = predict_signal(params, design)
        tau = y * state.cos_phi
        m = design.m
        total = float(np.sum(y * y + s * s - 2 * tau * s))
        expected = total / (2 * (m - 1))
        got = em_mstep_sigma2(state, params, y, exponent(params, design))
        assert got == pytest.approx(expected, rel=1e-12)

        from dkimle.rician import joint_loglik

        def neg(sig2):
            return -joint_loglik(y, s, sig2, state)

        best = minimize_scalar(neg, bounds=(1e-8, 10.0), method="bounded",
                               options={"xatol": 1e-14})
        assert got == pytest.approx(best.x * m / (m - 1), rel=1e-4)

    def test_sigma2_perfect_fit(self):
        protocol, gt, vox = noiseless_voxel(15)
        design = internal_design(protocol)
        wls = wls_fit(vox, design)
        params = init_params(wls, ExponentModel(design))
        state = AugmentedState(np.full(design.m, np.nextafter(1.0, 0.0)))
        out = em_mstep_sigma2(state, params, vox.y, exponent(params, design))
        assert out < 1e-12  # clamp floor or genuine tiny residual

    def test_degenerate_amplitude(self):
        design, params, y, state = self._instance(16)
        params.L = np.full(6, 1e3)  # attenuation underflows every row
        with pytest.raises(DegenerateVoxel):
            em_mstep_s0(state, y, exponent(params, design))


def block_objectives(problem, params, scale=1.0):
    """The objective of ``problem`` over the L block and over the theta_Q
    block, the other held at ``params``, divided by ``scale``."""
    L, theta_q = params.L, params.theta_q
    return (lambda x: problem.objective(np.concatenate([x, theta_q])) / scale,
            lambda x: problem.objective(np.concatenate([L, x])) / scale)


class TestGradients:
    """Per-block slices of the tensor problem against finite differences
    (the EM objective is the Rician surrogate over sigma^2)."""

    def _instance(self, seed):
        protocol, gt, vox = noiseless_voxel(seed)
        design = internal_design(protocol)
        rng = np.random.default_rng(seed)
        params = feasible_params(rng, design)
        y = np.abs(rng.normal(0.6, 0.2, size=design.m))
        tau = y * rng.uniform(0.3, 0.99, size=design.m)
        return design, params, tau

    def _mle(self, seed):
        design, params, tau = self._instance(seed)
        problem = tensor_problem(ExponentModel(design), RicianSurrogate(params.s0, tau))
        grad = problem.gradient(np.concatenate([params.L, params.theta_q])) / params.sigma2
        return params, grad, block_objectives(problem, params, params.sigma2)

    def test_gradient_l_matches_fd(self):
        for seed in (20, 21, 22):
            params, grad, (f_l, _) = self._mle(seed)
            np.testing.assert_allclose(grad[:6], fd_gradient(f_l, params.L), rtol=1e-6, atol=1e-8)

    def test_gradient_q_matches_fd(self):
        for seed in (23, 24, 25):
            params, grad, (_, f_q) = self._mle(seed)
            np.testing.assert_allclose(grad[6:], fd_gradient(f_q, params.theta_q),
                                       rtol=1e-6, atol=1e-8)

    def test_cwls_gradients_and_hessians_match_fd(self):
        for seed in (26, 27):
            design, params, _ = self._instance(seed)
            rng = np.random.default_rng(seed + 100)
            rows = np.arange(design.m)
            log_y = rng.normal(0.0, 0.3, size=design.m)
            w = rng.uniform(0.5, 1.5, size=design.m)
            log_s0 = 0.1
            problem = tensor_problem(ExponentModel(design),
                                     LogResidual(log_s0, w, log_y, rows, design.m))
            theta = np.concatenate([params.L, params.theta_q])
            grad = problem.gradient(theta)
            hess = problem.information(theta, np.zeros(0))
            f_l, f_q = block_objectives(problem, params)

            np.testing.assert_allclose(grad[:6], fd_gradient(f_l, params.L), rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(grad[6:], fd_gradient(f_q, params.theta_q),
                                       rtol=1e-6, atol=1e-8)
            np.testing.assert_allclose(hess[:6, :6], fd_hessian(f_l, params.L, h=1e-4),
                                       rtol=1e-4, atol=1e-5)
            np.testing.assert_allclose(hess[6:, 6:], fd_hessian(f_q, params.theta_q, h=1e-4),
                                       rtol=1e-4, atol=1e-5)


class TestTensorUpdates:
    def test_zero_step_at_truth(self):
        """Starting the constrained update at the noiseless optimum must
        not move the parameters."""
        protocol, gt, vox = noiseless_voxel(30)
        design = internal_design(protocol)
        wls = wls_fit(vox, design)
        params = init_params(wls, ExponentModel(design))
        params.sigma2 = 1e-14
        state = em_estep(params, vox.y, exponent(params, design))
        L_new, q_new, _ = update_tensors(params, state, vox.y, ExponentModel(design))
        np.testing.assert_allclose(
            theta_d_from_l(L_new), theta_d_from_l(params.L), atol=1e-6
        )
        md = mean_diffusivity(theta_d_from_l(params.L))
        np.testing.assert_allclose(
            kurtosis_from_gram(gram_from_q(q_new, md)),
            kurtosis_from_gram(gram_from_q(params.theta_q, md)),
            atol=1e-6,
        )

    def test_one_acquisition_grid_oracle(self):
        """With a single acquisition and theta_Q = 0 the objective depends
        on L only through the scalar exponent, and theta_Q gets no score:
        the constrained update must keep theta_Q at 0 and match a dense
        grid search over that exponent."""
        protocol = AcquisitionProtocol(np.array([1000.0]), np.array([[1.0, 0, 0]]))
        design = internal_design(protocol)
        y = np.array([0.4])
        state = AugmentedState(np.array([0.95]))
        params = ModelParams([1.0, 1.0, 1.0, 0.0, 0.0, 0.0], np.zeros(18), 1.0, 0.01)
        tau = y * state.cos_phi

        L_new, q_new, _ = update_tensors(params, state, y, ExponentModel(design))
        np.testing.assert_array_equal(q_new, 0.0)
        eta_fit = float(design.z_d[0] @ theta_d_from_l(L_new))

        etas = np.linspace(-8.0, 0.0, 400001)
        vals = 0.5 * params.s0**2 * np.exp(2 * etas) - tau[0] * params.s0 * np.exp(etas)
        eta_grid = etas[np.argmin(vals)]
        assert eta_fit == pytest.approx(eta_grid, abs=1e-4)

    def test_constraint_activation_stays_feasible(self):
        """Data generated exactly on the decay bound: the fitted
        parameters respect g <= 0 at every weighted acquisition."""
        protocol = three_shell_protocol()
        design = internal_design(protocol)
        # isotropic voxel sitting exactly on the bound at b_max
        d_iso = 1.0e-3
        b_max = 1500.0
        k_app = 3.0 / (b_max * 1e-3 * 1.0)  # internal units: b=1.5, D=1
        gt = dkimle.GroundTruthVoxel(kind="isotropic", d_app=d_iso, k_app=k_app)
        rng = np.random.default_rng(0)
        vox = simulate_voxel(gt, protocol, 1.0, 1.0 / 25.0, rng)
        fit = fit_voxel(vox, protocol, "mle")
        g = decay_constraints(fit.params.L, fit.params.theta_q, design)
        assert np.all(g <= 1e-6)


class TestEmMleFit:
    def test_noiseless_recovery(self):
        protocol, gt, vox = noiseless_voxel(40)
        fit = fit_voxel(vox, protocol, "mle")
        np.testing.assert_allclose(fit.theta_d, gt.theta_d, rtol=1e-5)
        np.testing.assert_allclose(fit.theta_w, gt.theta_w, rtol=1e-4, atol=1e-7)
        assert fit.s0 == pytest.approx(1.0, rel=1e-5)
        assert fit.violations == ConstraintFlags()

    def test_ascent_on_noisy_voxels(self):
        protocol = three_shell_protocol()
        for seed in range(4):
            gt = random_tensor_truth(np.random.default_rng(seed), protocol)
            vox = simulate_voxel(gt, protocol, 1.0, 1.0 / 10.0, np.random.default_rng(seed))
            fit = fit_voxel(vox, protocol, "mle")
            diffs = np.diff(fit.loglik_trace)
            assert diffs.size == 0 or diffs.min() >= -1e-8

    def test_constraints_satisfied_after_fit(self):
        protocol = three_shell_protocol()
        design = internal_design(protocol)
        gt = random_tensor_truth(np.random.default_rng(50), protocol)
        vox = simulate_voxel(gt, protocol, 1.0, 1.0 / 8.0, np.random.default_rng(51))
        fit = fit_voxel(vox, protocol, "mle")
        vals = np.linalg.eigvalsh(dkimle.tensors.d_matrix(fit.params.theta_d)) if hasattr(dkimle, "tensors") else None
        md = fit.params.md
        G = gram_from_q(fit.params.theta_q, md)
        assert np.linalg.eigvalsh(G).min() >= -1e-10
        g = decay_constraints(fit.params.L, fit.params.theta_q, design)
        assert np.all(g <= 1e-8)


class TestCwlsFit:
    def test_noiseless_recovery(self):
        protocol, gt, vox = noiseless_voxel(41)
        fit = fit_voxel(vox, protocol, "cwls")
        np.testing.assert_allclose(fit.theta_d, gt.theta_d, rtol=1e-5)
        np.testing.assert_allclose(fit.theta_w, gt.theta_w, rtol=1e-4, atol=1e-7)

    def test_trace_non_decreasing(self):
        protocol = three_shell_protocol()
        gt = random_tensor_truth(np.random.default_rng(60), protocol)
        vox = simulate_voxel(gt, protocol, 1.0, 1.0 / 12.0, np.random.default_rng(61))
        fit = fit_voxel(vox, protocol, "cwls")
        diffs = np.diff(fit.loglik_trace)
        assert diffs.size == 0 or diffs.min() >= -1e-10


    def test_two_solves_the_second_from_the_first(self, monkeypatch):
        """CWLS is two solves of one fixed problem; the second starts from
        the first's result, bit for bit.  On voxel 26 of dataset3 seed 0, the
        one voxel of that set whose first solve ends short of its tolerance,
        that solve ends five subproblems at the inner-iteration cap, and the
        second converges, lowering f by 2.95e-4 relative."""
        protocol, rows, _ = scenario("dataset3", snr=15.0, seed=0, n_voxels=180)
        real_solve, solves = barrier.solve, []

        def recording(problem, theta0, grad_tol):
            theta, diag = real_solve(problem, theta0, grad_tol)
            solves.append((theta0.copy(), theta, diag))
            return theta, diag

        monkeypatch.setattr(barrier, "solve", recording)
        fit = fit_voxel(rows[26], protocol, "cwls")
        assert len(solves) == 2
        (_, first, first_diag), (start, second, diag) = solves
        assert start.tobytes() == first.tobytes()
        assert not first_diag.converged and first_diag.capped_subproblems > 0
        assert diag.converged and fit.converged
        assert np.concatenate([fit.params.L, fit.params.theta_q]).tobytes() == second.tobytes()
        assert fit.em_iterations == 2 and fit.loglik_trace.size == 2
        assert fit.loglik_trace[1] > fit.loglik_trace[0] + 2.5e-4 * abs(fit.loglik_trace[0])

    def test_the_solve_with_the_lower_f_is_returned(self, monkeypatch):
        """A second solve that ends short above the first's f does not replace
        a first solve that converged (cwls dataset2 SNR 5 seed 1, voxel 23,
        once reported converged = false that way).  A stub solve scripts the
        case: the second returns a point off the minimum, flagged short."""
        protocol, rows, _ = scenario("dataset2", snr=5.0, seed=1, n_voxels=40)
        real_solve, returned = estimators._solve, []

        def scripted(problem, theta0, grad_tol):
            theta, diag = real_solve(problem, theta0, grad_tol)
            if returned:  # shrinking theta_Q keeps the decay constraints
                theta, diag.converged = np.r_[theta[:6], 0.999 * theta[6:]], False
            returned.append((theta, diag.converged))
            return theta, diag

        monkeypatch.setattr(estimators, "_solve", scripted)
        fit = fit_voxel(rows[23], protocol, "cwls")
        (first, first_converged), (_, second_converged) = returned
        assert first_converged and not second_converged
        assert fit.loglik_trace[0] > fit.loglik_trace[1]
        assert np.concatenate([fit.params.L, fit.params.theta_q]).tobytes() == first.tobytes()
        assert fit.converged

    def test_panel_reaches_the_global_minimum(self):
        """On the 18 cwls panel voxels (dataset2, SNR 5, seed 0) the CWLS
        loss is within 1e-8 relative of the convex oracle's, with CWLS's log
        S0 and weights: the fits are global minima, not only stationary
        points of the factored parametrization (worst gap 6.7e-10)."""
        protocol, rows, _ = scenario("dataset2", snr=5.0, seed=0, n_voxels=18)
        design = internal_design(protocol)
        for y in rows:
            fit = fit_voxel(y, protocol, "cwls")
            oracle = LiftedCwls(design, y, fit.params.s0)
            _, f_min = oracle.solve()
            f = oracle.loss(oracle.factored_point(fit.params.theta_d, fit.params.theta_q))
            assert abs(f - f_min) <= 1e-8 * f_min


class TestEstimatorConsistency:
    def test_all_estimators_meet_at_truth(self):
        """As noise vanishes the three estimators coincide with the
        generating parameters."""
        protocol, gt, vox = noiseless_voxel(42)
        results = {e: fit_voxel(vox, protocol, e) for e in ("wls", "cwls", "mle")}
        for e, fit in results.items():
            np.testing.assert_allclose(fit.theta_d, gt.theta_d, rtol=1e-5)
            np.testing.assert_allclose(
                fit.theta_w, gt.theta_w, rtol=2e-5, atol=1e-7
            )
            assert fit.s0 == pytest.approx(1.0, rel=1e-5)


class TestMonteCarloBehavior:
    def _gm_csf_repeats(self, n, estimator):
        """Repeated noisy acquisitions of the (isotropic) GM/CSF preset
        voxel at SNR 15 on the six-shell protocol."""
        from dkimle.metrics import scalar_metrics
        from dkimle.simulate import ROI_PRESETS, GroundTruthVoxel, biexp_apparent, simulate_voxel

        d_app, k_app = biexp_apparent(ROI_PRESETS["GM/CSF"])
        gt = GroundTruthVoxel(kind="isotropic", d_app=d_app, k_app=k_app)
        dirs = fibonacci_sphere(30)
        shells = [62.0, 249.0, 560.0, 996.0, 1556.0, 2240.0]
        protocol = AcquisitionProtocol(
            np.repeat(shells, 30), np.tile(dirs, (len(shells), 1))
        )
        out = []
        for rep in range(n):
            vox = simulate_voxel(gt, protocol, 1.0, 1 / 15.0, np.random.default_rng([rep, 17]))
            fit = fit_voxel(vox, protocol, estimator)
            out.append(scalar_metrics(fit.theta_d, fit.theta_w, fit.s0, fit.sigma2))
        return out

    def test_wls_scalar_variances_at_plausible_scale(self):
        """Sampling variances of the log-linear fit land at the expected
        scales for this protocol and noise level: MD around 1e-9
        (mm^2/s)^2, FA around 1e-2 and MK around 1e-1."""
        sms = self._gm_csf_repeats(30, "wls")
        var_md = float(np.var([s.md for s in sms]))
        var_fa = float(np.var([s.fa for s in sms]))
        var_mk = float(np.var([s.mk for s in sms]))
        assert 1e-10 < var_md < 1e-8
        assert 1e-6 < var_fa < 1e-2
        assert 1e-4 < var_mk < 1.0

    def test_cwls_radial_kurtosis_variance_below_wls(self):
        """On the near-isotropic preset the constrained fit's radial
        kurtosis scatters far less than the unconstrained one."""
        wls = self._gm_csf_repeats(50, "wls")
        cwls = self._gm_csf_repeats(50, "cwls")
        var_wls = float(np.var([s.k_perp for s in wls]))
        var_cwls = float(np.var([s.k_perp for s in cwls]))
        assert var_cwls < var_wls


class TestViolationFlags:
    def test_unconstrained_wls_flags_negative_kurtosis(self):
        """At moderate noise a substantial share of raw fits violate the
        kurtosis positivity; constrained fits never do."""
        protocol = three_shell_protocol()
        design = internal_design(protocol)
        n_marked = 0
        for seed in range(12):
            gt = random_tensor_truth(np.random.default_rng(seed + 300), protocol)
            vox = simulate_voxel(gt, protocol, 1.0, 1.0 / 15.0, np.random.default_rng(seed))
            wls = wls_fit(vox, design)
            flags = violation_flags(wls.theta_d, wls.theta_w(), design)
            n_marked += flags.kurtosis_negative
        assert n_marked >= 3

    def test_clean_tensors_unflagged(self):
        protocol, gt, vox = noiseless_voxel(43)
        design = internal_design(protocol)
        flags = violation_flags(gt.theta_d / B_INTERNAL_SCALE, gt.theta_w, design)
        assert flags == ConstraintFlags()

    def test_decay_flag_matches_its_definition(self):
        """On the 180 WLS fits of dataset3, the decay flag is set exactly
        when K_app b D_app > 3 at some b > 0 acquisition, with (D_app, K_app)
        from apparent_coefficients in s/mm^2 units.  A fit with a row within
        1e-9 relative of the bound and none beyond it is skipped; K_app is
        undefined where D_app <= 0, so the 8 fits with such a row are not
        compared."""
        protocol, rows, _ = scenario("dataset3", seed=0)
        weighted = [(b, g) for b, g in zip(protocol.bvals, protocol.bvecs) if b > 0]
        compared, flagged, undefined = 0, 0, 0
        for row in rows:
            fit = fit_voxel(row, protocol, "wls")
            try:
                coefs = [apparent_coefficients(fit.theta_d, fit.theta_w, g) for _, g in weighted]
            except ValueError:
                undefined += 1
                continue
            ratio = np.array([k * b * d / 3.0 for (b, _), (d, k) in zip(weighted, coefs)])
            beyond = bool(np.any(ratio > 1.0 + 1e-9))
            if not beyond and np.any(np.abs(ratio - 1.0) <= 1e-9):
                continue
            assert fit.violations.decay_bound == beyond
            compared += 1
            flagged += beyond
        assert (compared, undefined) == (172, 8)
        assert 60 < flagged < 120  # about half

    def test_cached_directions_match_uncached_formula(self, rng):
        """The kurtosis-sign check uses a read-only table whose first 1000
        columns are minus the quartic rows of freshly built Fibonacci
        directions."""
        design = internal_design(three_shell_protocol())
        rows = quartic_rows(fibonacci_sphere(1000))
        cached = dkimle.estimators._flag_table(design)
        np.testing.assert_array_equal(cached[:15, :1000], -rows.T)
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0] = 1.0
        for _ in range(20):
            theta_w = rng.normal(size=15) * 0.3 + 0.2
            flags = violation_flags([1.0, 1.0, 1.0, 0, 0, 0], theta_w, design)
            assert flags.kurtosis_negative == bool(np.min(rows @ theta_w) < -1e-8)


class TestBlockFlags:
    """violation_flags of a (k, 6), (k, 15) block gives each row the flags
    of that row checked alone, wherever the row sits in a block of any
    size, and those flags are the one-voxel formula's
    (conftest.reference_violation_flags)."""

    # (theta_d, theta_w, the flag it raises) in internal units; a NaN row
    # raises nothing in particular, but must not reach the other rows
    ONE, W = np.array([1.0, 1.0, 1.0, 0, 0, 0]), np.full(15, 0.1)
    FLAGGED = [
        (np.array([1.0, 1.0, -0.1, 0, 0, 0]), W, "d_not_pd"),
        (ONE, np.array([-0.1] * 3 + [0.0] * 12), "kurtosis_negative"),
        (ONE, np.array([3.0] * 3 + [0.0] * 12), "decay_bound"),
        (np.array([np.nan, 1.0, 1.0, 0, 0, 0]), W, None),
    ]

    @pytest.fixture(scope="class")
    def pool(self):
        """The raw WLS tensors of 256 dataset3 voxels, some flagged."""
        protocol, rows, _ = scenario("dataset3", seed=0, n_voxels=256)
        design = internal_design(protocol)
        fits = [wls_fit(VoxelData(y), design) for y in rows]
        theta_d = np.array([f.theta_d for f in fits])
        theta_w = np.array([f.theta_w() for f in fits])
        alone = [violation_flags(d, w, design) for d, w in zip(theta_d, theta_w)]
        return design, theta_d, theta_w, alone

    def test_rows_raise_their_flags(self, pool):
        design = pool[0]
        for theta_d, theta_w, flag in self.FLAGGED[:3]:
            raised = reference_violation_flags(theta_d, theta_w, design)
            assert raised[[f.name for f in dataclasses.fields(ConstraintFlags)].index(flag)]

    @pytest.mark.parametrize("size", [1, 2, 3, 31, 32, 33, 256])
    def test_block_rows_equal_rows_alone(self, pool, size):
        design, theta_d, theta_w, alone = pool
        for bad_d, bad_w, flag in self.FLAGGED:
            bad_alone = violation_flags(bad_d, bad_w, design)
            for at in sorted({0, size // 2, size - 1}):
                block_d, block_w = theta_d[:size].copy(), theta_w[:size].copy()
                block_d[at], block_w[at] = bad_d, bad_w
                got = violation_flags(block_d, block_w, design)
                assert len(got) == size
                for i, flags in enumerate(got):
                    assert flags == (bad_alone if i == at else alone[i]), (flag, at, i)

    def test_flags_equal_one_voxel_formula(self, pool):
        design, theta_d, theta_w, _ = pool
        got = violation_flags(theta_d, theta_w, design)
        want = [reference_violation_flags(d, w, design) for d, w in zip(theta_d, theta_w)]
        assert [tuple(vars(f).values()) for f in got] == want
        assert 0 < sum(map(any, want)) < len(want)


class TestFitVoxelUnits:
    def test_design_cache_keyed_on_protocol_values(self):
        """Fitting protocol A, then B with other b-values, then A again
        matches fits with freshly built designs: no stale cache hit."""
        protocol_a, _, vox = noiseless_voxel(45)
        protocol_b = AcquisitionProtocol(protocol_a.bvals * 1.5, protocol_a.bvecs)
        for protocol in (protocol_a, protocol_b, protocol_a):
            fit = fit_voxel(vox, protocol, "wls")
            design = internal_design(protocol)
            wls = wls_fit(vox, design)
            np.testing.assert_array_equal(fit.theta_d, wls.theta_d * B_INTERNAL_SCALE)
            np.testing.assert_array_equal(fit.theta_w, wls.theta_w())
            assert (fit.s0, fit.sigma2) == (wls.s0, wls.sigma2)
            assert fit.violations == violation_flags(wls.theta_d, wls.theta_w(), design)

    def test_cached_design_is_read_only(self):
        protocol = three_shell_protocol()
        design = dkimle.estimators._internal_design(protocol.bvals.tobytes(),
                                                    protocol.bvecs.tobytes())
        for array in (design.z_d, design.z_w, design.v, design.b):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1.0

    def test_output_units_are_protocol_units(self):
        protocol, gt, vox = noiseless_voxel(44)
        fit = fit_voxel(vox, protocol, "wls")
        # ground truth is stored in mm^2/s and so is the fit output
        np.testing.assert_allclose(fit.theta_d, gt.theta_d, rtol=1e-6)
        md = mean_diffusivity(fit.theta_d)
        assert 0.1e-3 < md < 2.5e-3


class TestTensorProblem:
    """Finite-difference checks of the problem the constrained fits solve,
    and bit-for-bit checks against the reference forms in conftest."""

    def _instance(self, seed, protocol=None):
        design = internal_design(protocol or three_shell_protocol())
        rng = np.random.default_rng(seed)
        params = feasible_params(rng, design)
        theta = np.concatenate([params.L, params.theta_q])
        tau = np.abs(rng.normal(0.6, 0.2, size=design.m)) * rng.uniform(0.3, 0.99, size=design.m)
        # every other row carries weight, so the zero-weight rows are covered too
        rows = np.arange(0, design.m, 2)
        log_y = rng.normal(-0.5, 0.3, size=rows.size)
        w = rng.uniform(0.5, 1.5, size=rows.size)
        model = ExponentModel(design)
        losses = {
            "mle": RicianSurrogate(1.0, tau),
            "cwls": LogResidual(0.1, w, log_y, rows, design.m),
        }
        return model, losses, theta, rng

    def test_full_gradients_match_fd(self):
        for seed in (70, 71, 72):
            model, losses, theta, _ = self._instance(seed)
            for loss in losses.values():
                problem = tensor_problem(model, loss)
                grad = problem.gradient(theta)
                assert grad.shape == (24,)
                np.testing.assert_allclose(grad, fd_gradient(problem.objective, theta),
                                           rtol=1e-6, atol=1e-8)

    def test_cwls_information_is_the_exact_hessian(self):
        """At lambda = 0 the CWLS information is the full 24 x 24 Hessian,
        cross block included: eta has no cross derivatives (it is a sum of
        an L and a theta_Q term), but the Gauss-Newton part couples the
        blocks."""
        for seed in (73, 74):
            model, losses, theta, _ = self._instance(seed)
            problem = tensor_problem(model, losses["cwls"])
            H = problem.information(theta, np.zeros(0))
            fdH = fd_hessian(problem.objective, theta, h=1e-4)
            np.testing.assert_allclose(H, fdH, rtol=1e-4, atol=1e-5)
            assert np.abs(H[:6, 6:]).max() > 1e-3

    def test_constraint_gradients_match_fd(self):
        for seed in (75, 76):
            model, losses, theta, _ = self._instance(seed)
            A = tensor_problem(model, losses["mle"]).constraint_gradients(theta)
            assert A.shape == (model.n_constraints, 24)
            h = 1e-6
            fd = np.column_stack([
                (model.constraints(theta + h * e) - model.constraints(theta - h * e)) / (2 * h)
                for e in np.eye(24)
            ])
            np.testing.assert_allclose(A, fd, rtol=1e-6, atol=1e-8)

    def test_constraints_agree_with_constraint_values(self):
        """g_j = (6/b^2) theta_Q^T P_j theta_Q + (3/b^2) Z_Dj theta_D on the
        b > 0 rows, with P_j the dense 18 x 18 matrix."""
        model, _, theta, _ = self._instance(77)
        design, theta_d, theta_q = model.design, theta_d_from_l(theta[:6]), theta[6:]
        g = [6.0 / b**2 * (theta_q @ dense_p_matrix(v, b) @ theta_q) + 3.0 / b**2 * (z @ theta_d)
             for v, b, z in zip(design.v, design.b, design.z_d) if b > 0]
        np.testing.assert_allclose(model.constraints(theta), g, rtol=1e-12, atol=1e-14)

    def test_constraint_curvature_matches_fd(self):
        """sum_j lam_j Hess g_j against the FD Hessian of lam . g at random
        feasible points and random lam >= 0."""
        for seed in (78, 79, 80):
            model, _, theta, rng = self._instance(seed)
            lam = rng.uniform(0.0, 2.0, size=model.n_constraints)
            C = model.constraint_curvature(lam)
            fdC = fd_hessian(lambda t: float(lam @ model.constraints(t)), theta, h=1e-4)
            np.testing.assert_allclose(C, fdC, rtol=1e-4, atol=1e-5)

    def test_multipliers_add_the_constraint_curvature(self):
        model, losses, theta, rng = self._instance(81)
        lam = rng.uniform(0.0, 2.0, size=model.n_constraints)
        for loss in losses.values():
            problem = tensor_problem(model, loss)
            np.testing.assert_allclose(
                problem.information(theta, lam) - problem.information(theta, np.zeros(0)),
                model.constraint_curvature(lam), rtol=1e-10, atol=1e-10,
            )

    def test_memo_is_bit_identical_on_revisited_points(self):
        """The memoized problem gives exactly what one fresh evaluation per
        quantity gave, on a sequence that returns to earlier points; the
        constraints and their gradients share the exponent's quadratic form
        and Jacobian pieces also when b = 0 rows carry no constraint."""
        with_b0 = three_shell_protocol()
        b = np.insert(with_b0.bvals, [0, 0, 30], 0.0)
        with_b0 = AcquisitionProtocol(b, np.insert(with_b0.bvecs, [0, 0, 30], [0.0, 0.0, 1.0], 0))
        for seed, protocol in ((82, None), (83, None), (84, with_b0), (85, with_b0)):
            model, losses, a, rng = self._instance(seed, protocol)
            assert model.n_constraints == model.design.m - (3 if protocol else 0)
            b = a + 1e-3 * rng.normal(size=24)
            lam = rng.uniform(0.0, 2.0, size=model.n_constraints)
            # fresh copies, so the memo is keyed on values
            sequence = [("gradient", a), ("constraints", b), ("objective", b),
                        ("information", a), ("constraint_gradients", b), ("gradient", b),
                        ("constraints", a), ("information", b), ("objective", a),
                        ("constraint_gradients", a), ("constraint_quadratic", b)]
            for loss in losses.values():
                fast, ref = tensor_problem(model, loss), reference_tensor_problem(model, loss)
                for name, theta in sequence:
                    for args in ([(theta.copy(), lam), (theta.copy(), np.zeros(0))]
                                 if name == "information" else [(theta.copy(),)]):
                        assert np.array_equal(getattr(fast, name)(*args),
                                              getattr(ref, name)(*args)), name

    def test_constraints_are_quadratic_along_a_step(self):
        """g(theta - alpha s) = g(theta) - alpha A(theta) s + alpha^2 g(s): the
        decay constraints are a homogeneous quadratic in theta, which the
        line search's skip rule rests on."""
        for seed in range(86, 92):
            model, losses, theta, rng = self._instance(seed)
            A = tensor_problem(model, losses["mle"]).constraint_gradients(theta)
            g = model.constraints(theta)
            for alpha in (1e-3, 0.1, 1.0, 7.0):
                s = rng.normal(size=24) * 10.0 ** rng.uniform(-2, 1)
                want = model.constraints(theta - alpha * s)
                terms = (g, -alpha * (A @ s), alpha**2 * model.constraints(s))
                scale = np.max(np.abs(terms)) + np.max(np.abs(want))
                assert np.max(np.abs(sum(terms) - want)) <= 1e-12 * scale

    def test_curvature_blocks_equal_kron(self):
        for seed in (84, 85):
            model, _, _, rng = self._instance(seed)
            w = rng.normal(size=model.design.m)
            lam = rng.uniform(0.0, 2.0, size=model.n_constraints)
            for with_l in (True, False):
                assert np.array_equal(model.curvature(w, with_l), kron_curvature(model, w, with_l))
            assert np.array_equal(model.constraint_curvature(lam),
                                  kron_constraint_curvature(model, lam))

    @pytest.mark.parametrize("estimator, snr", [("cwls", 5.0), ("mle", 15.0)])
    def test_fit_voxel_bit_identical_to_reference(self, monkeypatch, estimator, snr):
        """Against the uncached problem, np.kron curvature, the losses as
        written, scipy's cho_factor/cho_solve and a line search that
        evaluates every trial, on every voxel of the benchmark's seed-0
        panel (dataset2, 18 voxels); cwls voxel 7 has a stalled solve."""
        protocol, rows, _ = scenario("dataset2", snr=snr, seed=0, n_voxels=18)
        fits = [fit_voxel(row, protocol, estimator) for row in rows]
        monkeypatch.setattr(estimators, "tensor_problem", reference_tensor_problem)
        monkeypatch.setattr(estimators, "RicianSurrogate", ReferenceRicianSurrogate)
        monkeypatch.setattr(estimators, "LogResidual", ReferenceLogResidual)
        monkeypatch.setattr(barrier, "_feasible_bound", lambda *args: np.inf)
        monkeypatch.setattr(barrier, "regularize", cho_regularize)
        monkeypatch.setattr(barrier, "fisher_step", cho_fisher_step)
        for voxel, (fit, row) in enumerate(zip(fits, rows)):
            ref = fit_voxel(row, protocol, estimator)
            for name in ("theta_d", "theta_w", "s0", "sigma2", "loglik_trace", "em_iterations",
                         "converged", "violations"):
                assert np.array_equal(getattr(fit, name), getattr(ref, name)), (voxel, name)

    def test_losses_equal_their_reference_forms(self):
        """The losses' values and derivatives equal the forms as written,
        bit for bit, with zero-weight rows and exponents that overflow."""
        model, _, theta, rng = self._instance(93)
        m = model.design.m
        tau = rng.uniform(0.1, 1.0, size=m)
        rows = np.arange(0, m, 3)
        w, log_y = rng.uniform(0.5, 1.5, size=rows.size), rng.normal(-0.5, 0.3, size=rows.size)
        losses = {"mle": RicianSurrogate(0.37, tau), "cwls": LogResidual(0.1, w, log_y, rows, m)}
        refs = {"mle": ReferenceRicianSurrogate(0.37, tau),
                "cwls": ReferenceLogResidual(0.1, w, log_y, rows, m)}
        eta_d, eta_q = model.exponent(theta[:6], theta[6:])
        wild = -400.0 * eta_d  # exp overflows on the b > 0 rows
        with np.errstate(over="ignore", invalid="ignore"):
            assert np.isnan(losses["mle"].value(wild, eta_q))
            for name, loss in losses.items():
                for args in ((eta_d, eta_q), (wild, eta_q)):
                    value, want = loss.value(*args), refs[name].value(*args)
                    assert value == want or (np.isnan(value) and np.isnan(want)), name
                    for got, ref in zip(loss.derivatives(*args), refs[name].derivatives(*args)):
                        assert got.tobytes() == ref.tobytes(), name


class TestSolveFailures:
    def test_update_tensors_returns_the_collapsed_iterate(self, monkeypatch):
        """A solve that raises NonConvergence gives back the iterate it
        carries, flagged not converged, without a second solve."""
        protocol, gt, vox = noiseless_voxel(31)
        design = internal_design(protocol)
        params = init_params(wls_fit(vox, design), ExponentModel(design))
        state = em_estep(params, vox.y, exponent(params, design))
        carried = np.linspace(0.1, 2.4, 24)
        calls = []

        def collapse(problem, theta0, options=None):
            calls.append(theta0)
            diag = barrier.SolverDiagnostics(reason="step collapse")
            raise barrier.NonConvergence("collapsed", carried.copy(), diag)

        monkeypatch.setattr(barrier, "solve", collapse)
        L, theta_q, converged = update_tensors(params, state, vox.y, ExponentModel(design))
        assert len(calls) == 1
        np.testing.assert_array_equal(L, carried[:6])
        np.testing.assert_array_equal(theta_q, carried[6:])
        assert converged is False


class TestConvergedFlag:
    def _scripted_mle(self, monkeypatch, solved_flags, logliks):
        """An EM-MLE fit with the tensor solves' flags and the surrogate
        values of each sweep scripted."""
        real_update = estimators.update_tensors
        flags, values = iter(solved_flags), iter(logliks)

        def update(*args, **kwargs):
            L, theta_q, _ = real_update(*args, **kwargs)
            return L, theta_q, next(flags)

        monkeypatch.setattr(estimators, "update_tensors", update)
        monkeypatch.setattr(estimators, "joint_loglik", lambda *args: next(values))
        protocol, gt, vox = noiseless_voxel(47)
        return fit_voxel(vox, protocol, "mle")

    def test_mle_flag_follows_the_last_solve(self, monkeypatch):
        fit = self._scripted_mle(monkeypatch, [True, False], [0.0, 0.0])
        assert fit.em_iterations == 2 and not fit.converged

    @pytest.mark.parametrize("first_solved", [True, False])
    def test_mle_flag_follows_the_rollback(self, monkeypatch, first_solved):
        """A rejected sweep restores the previous iterate and the flag of
        the solve that produced it."""
        fit = self._scripted_mle(monkeypatch, [first_solved, not first_solved], [0.0, -1.0])
        assert fit.em_iterations == 2 and list(fit.loglik_trace) == [0.0]
        assert fit.converged == first_solved

    def test_mle_without_stopping_is_not_converged(self, monkeypatch):
        protocol, gt, vox = noiseless_voxel(47)
        fit = fit_voxel(vox, protocol, "mle", dkimle.FitOptions(max_sweeps=1))
        assert fit.em_iterations == 1 and not fit.converged

    def test_cwls_flag_follows_the_solver(self, monkeypatch):
        protocol, gt, vox = noiseless_voxel(48)
        honest = fit_voxel(vox, protocol, "cwls")
        assert honest.converged
        real_solve = barrier.solve

        def short(*args, **kwargs):
            theta, diag = real_solve(*args, **kwargs)
            diag.converged = False
            return theta, diag

        monkeypatch.setattr(barrier, "solve", short)
        flagged = fit_voxel(vox, protocol, "cwls")
        assert not flagged.converged
        np.testing.assert_array_equal(flagged.theta_d, honest.theta_d)

    def test_b0_only_protocol_gives_the_flagged_wls_fit(self):
        """On an all-b=0 protocol cwls and mle return the WLS result: the
        zero tensors flagged d_not_pd, under their own estimator names."""
        protocol = AcquisitionProtocol(np.zeros(25), np.tile([1.0, 0, 0], (25, 1)))
        y = 3.0 + 0.01 * np.random.default_rng(5).normal(size=25)
        wls = fit_voxel(y, protocol, "wls")
        assert wls.violations == ConstraintFlags(d_not_pd=True)
        for estimator in ("cwls", "mle"):
            fit = fit_voxel(y, protocol, estimator)
            assert fit.estimator == estimator
            assert not fit.converged
            assert fit.violations == wls.violations
            for name in ("theta_d", "theta_w"):
                np.testing.assert_array_equal(getattr(fit, name), getattr(wls, name))
            assert (fit.s0, fit.sigma2) == (wls.s0, wls.sigma2)

    def test_b0_only_protocol_is_not_converged(self):
        """On an all-b=0 protocol only S0 is identifiable: every estimator
        reports converged False."""
        protocol = AcquisitionProtocol(np.zeros(25), np.tile([1.0, 0, 0], (25, 1)))
        y = 3.0 + 0.01 * np.random.default_rng(5).normal(size=25)
        for estimator in ("wls", "cwls", "mle"):
            fit = fit_voxel(y, protocol, estimator)
            assert not fit.converged, estimator
            assert fit.s0 == pytest.approx(3.0, rel=1e-2)


ESTIMATORS = ("wls", "cwls", "mle")


class TestDriver:
    """``fit_voxel`` is the one driver: it runs the WLS fit once per voxel
    and the violation check once per voxel or block for every estimator,
    and the start and the estimator's own step function once per
    constrained voxel."""

    STEPS = ("wls_fit", "init_params", "cwls_fit", "em_mle_fit", "violation_flags")

    def _counting(self, monkeypatch):
        calls = dict.fromkeys(self.STEPS, 0)
        for name in self.STEPS:
            def counted(*args, _real=getattr(estimators, name), _name=name, **kwargs):
                calls[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(estimators, name, counted)
        return calls

    @pytest.mark.parametrize("estimator, block",
                             [(e, block) for block in (False, True) for e in ESTIMATORS],
                             ids=[*ESTIMATORS, *(f"{e}-block" for e in ESTIMATORS)])
    def test_each_step_runs_once_per_voxel(self, monkeypatch, estimator, block):
        protocol, rows, _ = scenario("dataset2", snr=15.0, seed=0, n_voxels=2)
        calls = self._counting(monkeypatch)
        if block:
            fit_voxel(rows, protocol, estimator)
        else:
            for y in rows:
                fit_voxel(y, protocol, estimator)
        constrained = 0 if estimator == "wls" else 2
        assert calls == {"wls_fit": 2, "init_params": constrained,
                         "cwls_fit": constrained if estimator == "cwls" else 0,
                         "em_mle_fit": constrained if estimator == "mle" else 0,
                         "violation_flags": 1 if block else 2}  # a block is checked at once

    @pytest.mark.parametrize("estimator", ["wls", "cwls", "mle"])
    def test_b0_only_protocol_stops_after_wls(self, monkeypatch, estimator):
        protocol = AcquisitionProtocol(np.zeros(25), np.tile([1.0, 0, 0], (25, 1)))
        y = 3.0 + 0.01 * np.random.default_rng(5).normal(size=25)
        calls = self._counting(monkeypatch)
        fit_voxel(y, protocol, estimator)
        assert calls == {"wls_fit": 1, "init_params": 0, "cwls_fit": 0, "em_mle_fit": 0,
                         "violation_flags": 1}

    def test_unknown_estimator_raises_before_any_step(self, monkeypatch):
        protocol, rows, _ = scenario("dataset2", snr=15.0, seed=0, n_voxels=1)
        calls = self._counting(monkeypatch)
        with pytest.raises(ValueError, match="unknown estimator 'ls'"):
            fit_voxel(rows[0], protocol, "ls")
        assert calls == dict.fromkeys(self.STEPS, 0)


def fit_alone(y, protocol, estimator):
    """fit_voxel of one row: its result, or the ValueError it raised."""
    try:
        return fit_voxel(y, protocol, estimator)
    except ValueError as exc:
        return exc


def assert_same_fit(entry, alone):
    """A block entry equals the row fitted alone, bit for bit (wall time aside)."""
    if isinstance(alone, ValueError):
        assert (type(entry), str(entry)) == (type(alone), str(alone))
        return
    for name in ("theta_d", "theta_w", "loglik_trace"):
        assert getattr(entry, name).tobytes() == getattr(alone, name).tobytes(), name
    assert np.array([entry.s0, entry.sigma2]).tobytes() == np.array([alone.s0, alone.sigma2]).tobytes()
    assert vars(entry.violations) == vars(alone.violations)
    assert (entry.converged, entry.em_iterations) == (alone.converged, alone.em_iterations)


class TestBlockFit:
    """A (k, m) block fits each row as fit_voxel fits it alone: the rows that
    use every acquisition share one stacked WLS QR, and LAPACK runs once per
    voxel in it, so the results are equal bit for bit whatever the block
    size; the other rows take the per-voxel path, and a row that fails
    returns its error in place."""

    @pytest.fixture(scope="class")
    def panel(self):
        protocol, rows, _ = scenario("dataset3", seed=0)
        return protocol, rows, [fit_alone(y, protocol, "wls") for y in rows]

    @pytest.mark.parametrize("size", [1, 7, 125, 180])
    def test_wls_blocks_equal_rows_fitted_alone(self, panel, size, monkeypatch):
        protocol, rows, alone = panel
        assert rows.shape == (180, 54)
        real_qr, shapes = np.linalg.qr, []

        def recording_qr(a, mode="reduced"):
            shapes.append(a.shape)
            return real_qr(a, mode)

        monkeypatch.setattr(np.linalg, "qr", recording_qr)
        fitted = []
        for start in range(0, len(rows), size):
            t0 = time.perf_counter()
            block = fit_voxel(rows[start:start + size], protocol, "wls")
            elapsed = time.perf_counter() - t0
            # each row's own steps plus its share of the stacked solve
            assert 0.0 < sum(r.wall_time for r in block) <= elapsed
            fitted += block
        # one stacked QR per block
        assert shapes == [(len(b), 54, 23) for b in np.array_split(rows, range(size, 180, size))]
        assert len(fitted) == len(alone)
        for entry, single in zip(fitted, alone):
            assert_same_fit(entry, single)

    @pytest.mark.parametrize("estimator", ["cwls", "mle"])
    def test_constrained_block_equals_rows_fitted_alone(self, estimator):
        protocol, rows, _ = scenario("dataset2", snr=15.0, seed=0, n_voxels=4)
        fitted = fit_voxel(rows, protocol, estimator)
        assert len(fitted) == 4
        for entry, y in zip(fitted, rows):
            assert isinstance(entry, dkimle.FitResult)
            assert_same_fit(entry, fit_alone(y, protocol, estimator))

    @pytest.mark.filterwarnings("error")
    def test_mixed_block_rows_fit_or_fail_as_alone(self):
        protocol, rows, _ = scenario("dataset3", seed=0, n_voxels=6)
        rows = rows.copy()
        rows[0, 3] = 0.0       # one zero magnitude: fitted without that row
        rows[1, 5] = 5e-324    # a weight that underflows: likewise
        rows[2] = 0.0
        rows[3, 7] = np.nan
        rows[4, 2] = -1.0
        fitted = fit_voxel(rows, protocol, "wls")
        assert [type(r).__name__ for r in fitted] == [
            "FitResult", "FitResult", "RankDeficient", "ValueError", "ValueError", "FitResult"]
        for entry, y in zip(fitted, rows):
            assert_same_fit(entry, fit_alone(y, protocol, "wls"))

    def test_one_voxel_still_raises(self):
        protocol, rows, _ = scenario("dataset3", seed=0, n_voxels=1)
        with pytest.raises(RankDeficient, match="every magnitude is zero"):
            fit_voxel(np.zeros(54), protocol, "wls")
        assert isinstance(fit_voxel(rows[0], protocol, "wls"), dkimle.FitResult)
        with pytest.raises(ValueError, match="got shape"):
            fit_voxel(rows.reshape(1, 1, 54), protocol, "wls")
