import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dkimle.protocol import AcquisitionProtocol, build_design
from dkimle.tensors import (
    ModelParams,
    NotPositiveDefinite,
    apparent_coefficients,
    cholesky_of_d,
    d_matrix,
    factor_kurtosis,
    gram_from_kurtosis,
    gram_from_q,
    jacobian_l,
    kurtosis_from_gram,
    mean_diffusivity,
    predict_signal,
    q_from_gram,
    second_derivative_contraction,
    theta_d_from_l,
)

from conftest import (
    apply_p_batch,
    contraction_oracle,
    fd_gradient,
    fd_hessian,
    random_unit,
    tensor4_to_kurtosis,
    vvec,
    w15_to_full,
)

finite_l = st.lists(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False), min_size=6, max_size=6
)


class TestCholeskyMap:
    def test_identity(self):
        np.testing.assert_allclose(
            theta_d_from_l([1, 1, 1, 0, 0, 0]), [1, 1, 1, 0, 0, 0], atol=0
        )

    def test_zero(self):
        np.testing.assert_allclose(theta_d_from_l(np.zeros(6)), np.zeros(6), atol=0)

    def test_explicit_product_oracle(self):
        """theta_D(L) must match assembling U and computing U U^T."""
        L = np.array([2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
        U = np.array([[2, 0, 0], [1, 1, 0], [1, 1, 1.0]])
        D = U @ U.T
        expected = [D[0, 0], D[1, 1], D[2, 2], D[0, 1], D[0, 2], D[1, 2]]
        np.testing.assert_allclose(theta_d_from_l(L), expected, atol=0)
        np.testing.assert_allclose(theta_d_from_l(L), [4, 2, 3, 2, 2, 2], atol=0)

    @given(finite_l)
    @settings(max_examples=50, deadline=None)
    def test_always_positive_semidefinite(self, L):
        vals = np.linalg.eigvalsh(d_matrix(theta_d_from_l(L)))
        assert vals.min() >= -1e-12

    def test_roundtrip(self, rng):
        for _ in range(20):
            L = rng.normal(size=6)
            L[:3] = np.abs(L[:3]) + 0.1
            theta = theta_d_from_l(L)
            L2 = cholesky_of_d(theta)
            np.testing.assert_allclose(theta_d_from_l(L2), theta, atol=1e-12)

    def test_explicit_roundtrip(self):
        np.testing.assert_allclose(
            cholesky_of_d([4, 2, 3, 2, 2, 2]), [2, 1, 1, 1, 1, 1], atol=1e-12
        )

    def test_not_pd_raises_with_eigenvalue(self):
        with pytest.raises(NotPositiveDefinite) as err:
            cholesky_of_d([1, 1, -1, 0, 0, 0])
        assert err.value.min_eigenvalue == pytest.approx(-1.0)


class TestJacobian:
    def test_identity_point(self):
        J = jacobian_l([1, 1, 1, 0, 0, 0])
        assert J[0, 0] == 2 and J[1, 1] == 2 and J[2, 2] == 2
        assert J[3, 3] == 1 and J[4, 4] == 1  # the L1 entries

    def test_zero_point(self):
        np.testing.assert_allclose(jacobian_l(np.zeros(6)), np.zeros((6, 6)), atol=0)

    def test_matches_finite_differences(self, rng):
        for _ in range(10):
            L = rng.normal(size=6)
            J = jacobian_l(L)
            for i in range(6):
                fd = fd_gradient(lambda l: theta_d_from_l(l)[i], L, h=1e-6)
                np.testing.assert_allclose(J[i], fd, rtol=1e-7, atol=1e-8)


class TestSecondDerivativeContraction:
    def test_first_component(self):
        M = second_derivative_contraction([1, 0, 0, 0, 0, 0])
        expected = np.zeros((6, 6))
        expected[0, 0] = 2
        np.testing.assert_allclose(M, expected, atol=0)

    def test_cross_component(self):
        M = second_derivative_contraction([0, 0, 0, 1, 0, 0])
        expected = np.zeros((6, 6))
        expected[0, 3] = expected[3, 0] = 1
        np.testing.assert_allclose(M, expected, atol=0)

    def test_matches_fd_hessian(self, rng):
        for _ in range(8):
            z = rng.normal(size=6)
            L = rng.normal(size=6)
            M = second_derivative_contraction(z)
            H = fd_hessian(lambda l: float(z @ theta_d_from_l(l)), L, h=1e-4)
            np.testing.assert_allclose(M, H, atol=1e-6)

    def test_symmetric_and_linear(self, rng):
        z1, z2 = rng.normal(size=6), rng.normal(size=6)
        M1 = second_derivative_contraction(z1)
        np.testing.assert_allclose(M1, M1.T, atol=0)
        np.testing.assert_allclose(
            second_derivative_contraction(2 * z1 + z2),
            2 * M1 + second_derivative_contraction(z2),
            atol=1e-14,
        )


class TestGramKurtosisMaps:
    def test_rank_one_gram(self):
        G = np.zeros((6, 6))
        G[0, 0] = 1.0
        w = kurtosis_from_gram(G)
        expected = np.zeros(15)
        expected[0] = 1.0
        np.testing.assert_allclose(w, expected, atol=0)

    def test_identity_gram(self):
        """v^T I v = |v|^2 has quartic expansion with unit pure terms and
        1/6 pair terms (the 6-fold multiplicity of W1122 absorbs the
        rest); frozen from the polynomial-matching oracle."""
        w = kurtosis_from_gram(np.eye(6))
        expected = np.zeros(15)
        expected[:3] = 1.0
        expected[3:6] = 1.0 / 6.0
        np.testing.assert_allclose(w, expected, atol=1e-15)

    def test_random_gram_identity(self, rng):
        """Contraction of the mapped elements equals v^T G v on random
        unit directions."""
        A = rng.normal(size=(6, 6))
        G = A @ A.T
        w = kurtosis_from_gram(G)
        for _ in range(100):
            g = random_unit(rng)
            v = vvec(g)
            assert contraction_oracle(g, w) == pytest.approx(
                float(v @ G @ v), rel=1e-12, abs=1e-12
            )

    def test_gram_from_kurtosis_inverse(self, rng):
        """Reassembled Gram matrices reproduce the same quartic even
        though the free entries differ from the original."""
        A = rng.normal(size=(6, 3))
        G = A @ A.T
        w = kurtosis_from_gram(G)
        G2 = gram_from_kurtosis(w)
        for _ in range(50):
            v = vvec(random_unit(rng))
            assert float(v @ G2 @ v) == pytest.approx(float(v @ G @ v), rel=1e-11, abs=1e-12)

    def test_tensor4_roundtrip(self, rng):
        w = rng.normal(size=15)
        W4 = w15_to_full(w)
        # full symmetry
        np.testing.assert_allclose(W4, np.transpose(W4, (1, 0, 2, 3)), atol=0)
        np.testing.assert_allclose(W4, np.transpose(W4, (2, 3, 0, 1)), atol=0)
        np.testing.assert_allclose(tensor4_to_kurtosis(W4), w, atol=0)

    def test_gram_from_q_shape_and_scale(self, rng):
        theta_q = rng.normal(size=18)
        md = 0.7
        G = gram_from_q(theta_q, md)
        Q = theta_q.reshape(3, 6).T
        np.testing.assert_allclose(G, Q @ Q.T / md**2, atol=1e-15)
        assert np.linalg.matrix_rank(G, tol=1e-10) <= 3

    def test_gram_from_q_rejects_bad_md(self):
        with pytest.raises(ValueError, match="positive"):
            gram_from_q(np.zeros(18), 0.0)

    def test_q_from_gram_exact_for_rank3(self, rng):
        A = rng.normal(size=(6, 3))
        G = A @ A.T
        theta_q = q_from_gram(G, 1.3)
        G2 = gram_from_q(theta_q, 1.3)
        np.testing.assert_allclose(G2, G, atol=1e-10)

    def test_factor_kurtosis_recovers_representable(self, rng):
        """Any quartic arising from a PSD rank-3 Gram matrix is recovered
        exactly by the factor refinement, regardless of how its free
        Gram entries were re-split."""
        for _ in range(5):
            A = rng.normal(size=(6, 3))
            w = kurtosis_from_gram(A @ A.T)
            q0 = q_from_gram(gram_from_kurtosis(w), 1.0).reshape(3, 6).T
            Q, cost = factor_kurtosis(w, q0)
            assert cost < 1e-20
            np.testing.assert_allclose(
                kurtosis_from_gram(Q @ Q.T), w, atol=1e-9
            )


class TestSignalModel:
    def _design(self, rng, m=12, include_b0=True):
        g = np.array([random_unit(rng) for _ in range(m)])
        b = rng.uniform(0.2, 2.0, size=m)
        if include_b0:
            b[0] = 0.0
        return build_design(AcquisitionProtocol(b, g))

    def test_flat_signal(self, rng):
        d = self._design(rng)
        p = ModelParams(np.zeros(6), np.zeros(18), 2.5, 1.0)
        np.testing.assert_allclose(predict_signal(p, d), 2.5, atol=1e-14)

    def test_b0_rows_give_s0(self, rng):
        d = self._design(rng)
        p = ModelParams(rng.normal(size=6), rng.normal(size=18) * 0.2, 1.7, 1.0)
        s = predict_signal(p, d)
        assert s[0] == pytest.approx(1.7, abs=1e-14)

    def test_isotropic_matches_scalar_model(self, rng):
        """Isotropic D = d I with an isotropic quartic reduces to the
        scalar decay S0 exp(-b d + b^2 d^2 K / 6)."""
        d_iso, k = 0.9, 0.8
        L = cholesky_of_d([d_iso] * 3 + [0.0] * 3)
        theta_q = np.zeros(18)
        # v^T (K u u^T) v = K (g1^2+g2^2+g3^2)^2 = K for unit g
        theta_q[:6] = d_iso * np.sqrt(k) * np.array([1, 1, 1, 0, 0, 0])
        p = ModelParams(L, theta_q, 1.0, 1.0)
        design = self._design(rng, include_b0=False)
        s = predict_signal(p, design)
        b = design.b
        expected = np.exp(-b * d_iso + b**2 * d_iso**2 * k / 6.0)
        np.testing.assert_allclose(s, expected, rtol=1e-12)

    def test_representation_identity(self, rng):
        """The factored quadratic-form exponent agrees with the linear
        design-matrix form when the kurtosis coefficients are mapped
        through the Gram matrix."""
        design = self._design(rng, m=20)
        for _ in range(20):
            L = rng.normal(size=6)
            L[:3] = np.abs(L[:3]) + 0.3
            theta_q = rng.normal(size=18) * 0.4
            theta_d = theta_d_from_l(L)
            md = mean_diffusivity(theta_d)
            w = kurtosis_from_gram(gram_from_q(theta_q, md))
            lhs = design.z_d @ theta_d + apply_p_batch(theta_q, design.v, design.b)
            rhs = design.z_d @ theta_d + design.z_w @ (md * md * w)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-12)

    def test_overflow_clamps_with_warning(self, rng):
        d = self._design(rng)
        p = ModelParams(np.zeros(6), np.full(18, 20.0), 1.0, 1.0)
        with pytest.warns(RuntimeWarning, match="clamped"):
            s = predict_signal(p, d)
        assert np.all(np.isfinite(s))


class TestApparentCoefficients:
    def test_isotropic(self):
        d_app, k_app = apparent_coefficients(
            [1, 1, 1, 0, 0, 0], np.zeros(15), [0, 0, 1.0]
        )
        assert d_app == pytest.approx(1.0)
        assert k_app == 0.0

    def test_axis_contraction(self):
        d_app, _ = apparent_coefficients(
            [2, 1, 1, 0, 0, 0], np.zeros(15), [1.0, 0, 0]
        )
        assert d_app == pytest.approx(2.0)
        assert mean_diffusivity([2, 1, 1, 0, 0, 0]) == pytest.approx(4.0 / 3.0)

    def test_degenerate_direction_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            apparent_coefficients([1, 1, -1, 0, 0, 0], np.zeros(15), [0, 0, 1.0])

    def test_kapp_from_gram(self, rng):
        """K_app assembled from the Gram pipeline equals the direct
        definitional ratio using the brute-force contraction."""
        A = rng.normal(size=(6, 3)) * 0.5
        G = A @ A.T
        w = kurtosis_from_gram(G)
        L = rng.normal(size=6)
        L[:3] = np.abs(L[:3]) + 0.5
        theta_d = theta_d_from_l(L)
        md = mean_diffusivity(theta_d)
        g = random_unit(rng)
        d_app, k_app = apparent_coefficients(theta_d, w, g)
        expected = (md / d_app) ** 2 * contraction_oracle(g, w)
        assert k_app == pytest.approx(expected, rel=1e-12)
