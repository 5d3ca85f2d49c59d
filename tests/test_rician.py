import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ive

from dkimle.protocol import AcquisitionProtocol, build_design
from dkimle.rician import (
    AugmentedState,
    bessel_ratio,
    joint_loglik,
    rician_logpdf,
    sample_magnitude,
    vonmises_expected_cos,
)
from dkimle.tensors import ModelParams, predict_signal

from conftest import random_unit, vonmises_logpdf


def series_ratio_oracle(x):
    """I1/I0 from the ascending series, summed to machine precision.

    Independent reference for small arguments; the kernel under test
    divides scipy's scaled Bessel functions.
    """
    q = 0.25 * x * x
    t0 = t1 = 1.0
    s0 = s1 = 1.0
    for k in range(1, 200):
        t0 *= q / (k * k)
        t1 *= q / (k * (k + 1))
        s0 += t0
        s1 += t1
        if t0 < 1e-20 * s0:
            break
    return 0.5 * x * s1 / s0


def kernel_grid():
    """5 x 10^5 arguments from 0 to 1e300 plus the edge values.

    Uniform on [0, 15), exponential above 15, log-spaced from 15 up to
    1e300, and 0, the smallest subnormal and inf.
    """
    rng = np.random.default_rng(7)
    return np.concatenate([
        rng.uniform(0.0, 15.0, 100_000),
        15.0 + rng.exponential(5.0, 400_000),
        np.logspace(np.log10(15.0), 300.0, 2_000),
        [0.0, 5e-324, np.inf],
    ])


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestBesselRatio:
    def test_zero(self):
        assert bessel_ratio(0.0) == 0.0

    def test_unit_argument(self):
        # frozen from the series oracle (and cross-checked against the
        # scaled Bessel reference): I1(1)/I0(1)
        assert bessel_ratio(1.0) == pytest.approx(0.4463899658965345, abs=1e-14)

    def test_large_argument_asymptote(self):
        # 1 - A(x) ~ 1/(2x) + 1/(8x^2) + ... at x = 1e5
        val = bessel_ratio(1e5)
        assert 1.0 - val == pytest.approx(5.000012500032e-06, rel=1e-6)

    def test_against_scaled_bessel_reference(self):
        x = np.logspace(-6, 6, 400)
        ref = ive(1, x) / ive(0, x)
        np.testing.assert_allclose(bessel_ratio(x), ref, rtol=1e-10, atol=1e-14)

    def test_against_series_oracle_small(self):
        for x in [1e-6, 1e-3, 0.1, 0.5, 1.0, 5.0, 14.9]:
            assert bessel_ratio(x) == pytest.approx(series_ratio_oracle(x), rel=1e-13)

    def test_branch_boundary_continuity(self):
        # scipy's i0e and i1e switch Chebyshev expansions at x = 8
        lo = bessel_ratio(np.nextafter(8.0, 0.0))
        hi = bessel_ratio(8.0)
        assert abs(hi - lo) < 1e-14

    def test_monotone_and_bounded(self):
        x = np.concatenate([np.linspace(0, 30, 2000), np.logspace(1.5, 8, 500)])
        a = bessel_ratio(x)
        assert np.all(np.diff(a) >= 0)
        assert np.all(a >= 0) and np.all(a < 1.0 + 1e-15)

    def test_huge_argument_no_overflow(self):
        assert bessel_ratio(1e12) < 1.0 + 1e-15

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            bessel_ratio(-0.5)

    def test_nan_rejected(self):
        # i1e/i0e would pass NaN on into the phase expectations
        with pytest.raises(ValueError):
            bessel_ratio(np.nan)
        with pytest.raises(ValueError):
            bessel_ratio(np.array([1.0, 20.0, np.nan]))

    def test_same_bits_in_any_order_or_batch(self):
        # each value depends on its own argument alone, whatever order or
        # batch it lands in; numpy may take other loops for short arrays,
        # so short batches are checked too
        x = kernel_grid()
        ref = bessel_ratio(x)
        perm = np.random.default_rng(8).permutation(x.size)
        assert same_bits(bessel_ratio(x[perm]), ref[perm])
        for size in (1, 2, 180):
            batches = perm[:200 * size].reshape(200, size)
            assert all(same_bits(bessel_ratio(x[b]), ref[b]) for b in batches)

    @pytest.mark.parametrize("x", [0.0, 3.5, 15.0, 40.0, 1e300, float("inf")])
    def test_scalar_and_zero_d_inputs(self, x):
        ref = bessel_ratio(np.array([x]))
        out = bessel_ratio(x)
        assert type(out) is float and same_bits(out, ref[0])
        out0 = bessel_ratio(np.array(x))
        assert out0.shape == () and same_bits(out0, ref[0])

    def test_empty_input(self):
        out = bessel_ratio(np.zeros(0))
        assert out.shape == (0,) and out.dtype == float

    def test_no_floating_point_errors(self):
        # i1e(inf) / i0e(inf) is 0 / 0, so A(inf) is set, not divided
        x = kernel_grid()
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out = bessel_ratio(x)
        assert np.all((out >= 0) & (out <= 1))
        assert np.array_equal(out[x == np.inf], [1.0])


class TestRicianLogpdf:
    def test_rayleigh_special_case(self):
        y, sigma2 = 0.7, 0.3
        expected = np.log(y / sigma2) - y * y / (2 * sigma2)
        assert rician_logpdf(y, 0.0, sigma2) == pytest.approx(expected, rel=1e-14)

    def test_zero_magnitude_gaussian_case(self):
        s, sigma2 = 0.9, 0.2
        expected = -np.log(2 * np.pi * sigma2) - s * s / (2 * sigma2)
        assert rician_logpdf(0.0, s, sigma2) == pytest.approx(expected, rel=1e-14)

    def test_matches_series_evaluation(self):
        """Direct high-precision evaluation of the density formula at a
        moderate argument where raw I0 is finite."""
        y, s, sigma2 = 1.0, 1.0, 1.0
        from scipy.special import i0

        direct = np.log(y / sigma2 * np.exp(-(y * y + s * s) / (2 * sigma2)) * i0(y * s / sigma2))
        assert rician_logpdf(y, s, sigma2) == pytest.approx(direct, abs=1e-12)

    def test_high_snr_no_overflow(self):
        val = rician_logpdf(1.0, 1.0, 1e-10)
        assert np.isfinite(val)

    @pytest.mark.parametrize("s,sigma", [(0.0, 0.5), (1.0, 0.3), (2.0, 0.1), (1.0, 1.0)])
    def test_integrates_to_one(self, s, sigma):
        sigma2 = sigma * sigma
        total, _ = quad(
            lambda y: np.exp(rician_logpdf(y, s, sigma2)),
            1e-12,
            s + 12 * sigma,
            limit=200,
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_negative_y_rejected(self):
        with pytest.raises(ValueError):
            rician_logpdf(-0.1, 1.0, 1.0)

    def test_bad_sigma_rejected(self):
        with pytest.raises(ValueError):
            rician_logpdf(0.1, 1.0, 0.0)


class TestVonMises:
    def test_zero_signal(self):
        assert vonmises_expected_cos(1.0, 0.0, 1.0) == 0.0

    def test_unit_concentration(self):
        assert vonmises_expected_cos(2.0, 0.5, 1.0) == pytest.approx(
            0.4463899658965345, abs=1e-13
        )

    def test_approaches_one(self):
        assert vonmises_expected_cos(10.0, 10.0, 1e-6) > 1 - 1e-7

    def test_nan_concentration_rejected(self):
        with pytest.raises(ValueError):
            vonmises_expected_cos(np.array([2.0, np.nan]), 1.0, 1.0)

    @pytest.mark.parametrize("kappa", [0.0, 0.3, 2.0, 25.0])
    def test_density_integrates_to_one(self, kappa):
        total, _ = quad(
            lambda p: np.exp(vonmises_logpdf(p, kappa)), 0.0, 2 * np.pi, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-8)


class TestSampleMagnitude:
    def test_zero_noise_limit(self, rng):
        y = sample_magnitude(np.full(1000, 2.0), 1e-12, rng)
        np.testing.assert_allclose(y, 2.0, atol=1e-10)

    def test_rayleigh_mean(self, rng):
        """At S = 0 the magnitude is Rayleigh with mean sigma sqrt(pi/2)."""
        sigma = 0.7
        n = 200_000
        y = sample_magnitude(np.zeros(n), sigma, rng)
        expect = sigma * np.sqrt(np.pi / 2)
        se = sigma * np.sqrt((2 - np.pi / 2) / n)
        assert abs(y.mean() - expect) < 3 * se

    def test_high_snr_mean(self, rng):
        """At high SNR the mean approaches sqrt(S^2 + sigma^2)."""
        s, sigma = 10.0, 1.0
        n = 200_000
        y = sample_magnitude(np.full(n, s), sigma, rng)
        expect = np.sqrt(s * s + sigma * sigma)
        se = sigma / np.sqrt(n)
        assert abs(y.mean() - expect) < 3 * se + 1e-3

    def test_histogram_matches_density(self, rng):
        """Chi-square goodness of fit of 1e5 samples against the density."""
        s, sigma = 1.5, 0.5
        n = 100_000
        y = sample_magnitude(np.full(n, s), sigma, rng)
        edges = np.linspace(0, s + 6 * sigma, 41)
        observed, _ = np.histogram(y, edges)
        probs = np.empty(len(edges) - 1)
        for i in range(len(probs)):
            probs[i], _ = quad(
                lambda t: np.exp(rician_logpdf(t, s, sigma**2)), edges[i], edges[i + 1]
            )
        probs = np.clip(probs, 1e-12, None)
        expected = n * probs / probs.sum()
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        # 40 bins -> dof ~ 39; 3-sigma band around the mean
        assert chi2 < 39 + 3 * np.sqrt(2 * 39)

    def test_bad_sigma(self, rng):
        with pytest.raises(ValueError):
            sample_magnitude(np.ones(3), 0.0, rng)


class TestAugmentedState:
    def test_bounds_enforced(self):
        with pytest.raises(ValueError):
            AugmentedState(np.array([0.5, 1.0]))
        with pytest.raises(ValueError):
            AugmentedState(np.array([-0.1]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            AugmentedState(np.array([0.5, bad]))


class TestJointLoglik:
    def _setup(self, rng, m=15):
        g = np.array([random_unit(rng) for _ in range(m)])
        b = rng.uniform(0.2, 2.0, size=m)
        design = build_design(AcquisitionProtocol(b, g))
        L = rng.normal(size=6)
        L[:3] = np.abs(L[:3]) + 0.4
        params = ModelParams(L, rng.normal(size=18) * 0.2, 1.2, 0.05)
        return design, params

    def test_perfect_fit_reduces_to_noise_term(self, rng):
        design, params = self._setup(rng)
        s = y = predict_signal(params, design)
        state = AugmentedState(np.full(design.m, np.nextafter(1.0, 0.0)))
        ll = joint_loglik(y, s, params.sigma2, state)
        assert ll == pytest.approx(design.m * np.log(1.0 / params.sigma2), rel=1e-9)

    def test_sigma_doubling_from_optimum_lowers_value(self, rng):
        """The likelihood is unimodal in the noise level; doubling it
        away from the exact mode must strictly decrease the value."""
        design, params = self._setup(rng)
        y = np.abs(rng.normal(1.0, 0.2, size=design.m))
        cos = np.full(design.m, 0.9)
        state = AugmentedState(cos)
        s = predict_signal(params, design)
        quad_sum = float(np.sum(y**2 + s**2 - 2 * cos * y * s))
        sigma2_opt = quad_sum / (2 * design.m)
        assert joint_loglik(y, s, 2 * sigma2_opt, state) < joint_loglik(y, s, sigma2_opt, state)

    def test_termwise_oracle(self, rng):
        """Re-evaluate the augmented log-likelihood from its definition,
        term by term."""
        design, params = self._setup(rng)
        y = np.abs(rng.normal(1.0, 0.3, size=design.m))
        cos = rng.uniform(0.0, 0.99, size=design.m)
        state = AugmentedState(cos)
        s = predict_signal(params, design)
        expected = 0.0
        for j in range(design.m):
            expected += np.log(1.0 / params.sigma2) - (
                y[j] ** 2 + s[j] ** 2 - 2 * cos[j] * y[j] * s[j]
            ) / (2 * params.sigma2)
        assert joint_loglik(y, s, params.sigma2, state) == pytest.approx(expected, rel=1e-12)

    def test_bad_sigma_rejected(self, rng):
        design, params = self._setup(rng)
        y = np.ones(design.m)
        state = AugmentedState(np.zeros(design.m))
        with pytest.raises(ValueError):
            joint_loglik(y, predict_signal(params, design), -1.0, state)
