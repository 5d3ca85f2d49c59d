import json

import numpy as np
import pytest

from dkimle.estimators import ConstraintFlags, FitResult, fit_voxel
from dkimle import metrics
from dkimle.metrics import evaluate, scalar_metrics
from dkimle.protocol import monomial_vectors, quartic_rows
from dkimle.sphere import gauss_legendre_sphere
from dkimle.simulate import GroundTruthVoxel, random_tensor_truth, scenario
from dkimle.tensors import d_matrix, kurtosis_from_gram, mean_diffusivity

from conftest import reference_scalar_metrics, ring_directions, tensor4_to_kurtosis, w15_to_full


def rotate_tensors(theta_d, theta_w, R):
    D = np.array([
        [theta_d[0], theta_d[3], theta_d[4]],
        [theta_d[3], theta_d[1], theta_d[5]],
        [theta_d[4], theta_d[5], theta_d[2]],
    ])
    D2 = R @ D @ R.T
    W2 = np.einsum("ia,jb,kc,ld,abcd->ijkl", R, R, R, R, w15_to_full(theta_w))
    td2 = np.array([D2[0, 0], D2[1, 1], D2[2, 2], D2[0, 1], D2[0, 2], D2[1, 2]])
    return td2, tensor4_to_kurtosis(W2)


def random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def realistic_tensors(rng, mk_target=0.9):
    evals = rng.uniform(0.2, 2.2, size=3)
    R = random_rotation(rng)
    D = (R * evals) @ R.T
    theta_d = np.array([D[0, 0], D[1, 1], D[2, 2], D[0, 1], D[0, 2], D[1, 2]])
    A = rng.normal(size=(6, 3))
    theta_w = kurtosis_from_gram(A @ A.T)
    sm = scalar_metrics(theta_d, theta_w, 1.0, 1.0)
    return theta_d, theta_w * (mk_target / sm.mk)


class TestScalarMetrics:
    def test_isotropic_voxel(self):
        sm = scalar_metrics([0.7, 0.7, 0.7, 0, 0, 0], np.zeros(15), 1.0, 0.01)
        assert sm.md == pytest.approx(0.7)
        assert sm.fa == pytest.approx(0.0, abs=1e-12)
        assert sm.mk == pytest.approx(0.0, abs=1e-12)
        assert sm.k_perp == pytest.approx(0.0, abs=1e-12)
        assert sm.snr == pytest.approx(10.0)

    def test_fa_against_eigenvalue_formula(self):
        """diag(2,1,1): FA = sqrt(3/2 * sum (l - MD)^2 / sum l^2) = 0.4082."""
        sm = scalar_metrics([2.0, 1.0, 1.0, 0, 0, 0], np.zeros(15), 1.0, 1.0)
        assert sm.fa == pytest.approx(0.408248, abs=1e-5)

    def test_isotropic_kurtosis_direction_independent(self):
        """W built so the directional kurtosis is constant: MK and the
        radial mean both equal that constant."""
        k = 0.83
        theta_w = np.zeros(15)
        theta_w[:3] = k
        theta_w[3:6] = k / 3.0
        sm = scalar_metrics([1.0, 1.0, 1.0, 0, 0, 0], theta_w, 1.0, 1.0)
        assert sm.mk == pytest.approx(k, abs=1e-3)
        assert sm.k_perp == pytest.approx(k, abs=1e-3)

    def test_degenerate_tensor_flagged(self):
        sm = scalar_metrics([-1.0, -1.0, -1.0, 0, 0, 0], np.zeros(15), 1.0, 1.0)
        assert not sm.valid

    def test_rotation_invariance(self, rng):
        """Jointly rotating D and the rank-4 tensor leaves all scalar
        maps unchanged."""
        for _ in range(6):
            theta_d, theta_w = realistic_tensors(rng)
            R = random_rotation(rng)
            td2, tw2 = rotate_tensors(theta_d, theta_w, R)
            a = scalar_metrics(theta_d, theta_w, 1.0, 1.0)
            b = scalar_metrics(td2, tw2, 1.0, 1.0)
            assert b.md == pytest.approx(a.md, abs=1e-10)
            assert b.fa == pytest.approx(a.fa, abs=1e-10)
            assert b.mk == pytest.approx(a.mk, abs=1e-6)
            assert b.k_perp == pytest.approx(a.k_perp, abs=1e-6)

    @staticmethod
    def quadrature_mk(theta_d, theta_w, n_polar, n_azimuth):
        dirs, wts = gauss_legendre_sphere(n_polar, n_azimuth)
        d_app = np.einsum("ni,ij,nj->n", dirs, d_matrix(theta_d), dirs)
        md = mean_diffusivity(theta_d)
        k_app = (md / d_app) ** 2 * (quartic_rows(dirs) @ theta_w)
        return float(np.sum(wts * k_app))

    @classmethod
    def einsum_oracle(cls, theta_d, theta_w):
        """(MD, FA, MK, K_perp, valid) with D_app from einsum and W_app
        from quartic rows, on the Gauss-Legendre nodes and on N_RING
        ring_directions, under the validity rules of scalar_metrics."""
        D = d_matrix(theta_d)
        md = mean_diffusivity(theta_d)
        if md <= 0:
            return md, np.nan, np.nan, np.nan, False
        fa = float(np.sqrt(1.5) * np.linalg.norm(D - md * np.eye(3)) / np.linalg.norm(D))
        dirs, _ = gauss_legendre_sphere(metrics.N_POLAR, metrics.N_AZIMUTH)
        d_app = np.einsum("ni,ij,nj->n", dirs, D, dirs)
        if np.any(d_app <= 0):
            return md, fa, np.nan, np.nan, False
        mk = cls.quadrature_mk(theta_d, theta_w, metrics.N_POLAR, metrics.N_AZIMUTH)
        ring = ring_directions(np.linalg.eigh(D)[1][:, -1], metrics.N_RING)
        d_ring = np.einsum("ni,ij,nj->n", ring, D, ring)
        if np.any(d_ring <= 0):
            return md, fa, mk, np.nan, False
        k_perp = float(np.mean((md / d_ring) ** 2 * (quartic_rows(ring) @ theta_w)))
        return md, fa, mk, k_perp, True

    def test_mk_quadrature_converged(self, rng):
        """MK on a quadrature of twice the size in each angle differs from
        the default MK far below tolerance."""
        for _ in range(5):
            theta_d, theta_w = realistic_tensors(rng)
            a = scalar_metrics(theta_d, theta_w, 1.0, 1.0)
            assert abs(a.mk - self.quadrature_mk(theta_d, theta_w, 64, 128)) < 1e-4

    def test_mk_equals_uncached_quadrature(self, rng):
        """The cached, read-only quadrature tables equal, bit for bit, the
        monomial vectors, weights and quartic rows of freshly built nodes,
        and MK from them equals the einsum quadrature to 1e-13 relative."""
        dirs, wts = gauss_legendre_sphere(metrics.N_POLAR, metrics.N_AZIMUTH)
        fresh = (monomial_vectors(dirs), wts, quartic_rows(dirs))
        for cached, array in zip(metrics._quadrature(), fresh):
            np.testing.assert_array_equal(cached, array)
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 1.0
        for _ in range(5):
            theta_d, theta_w = realistic_tensors(rng)
            sm = scalar_metrics(theta_d, theta_w, 1.0, 1.0)
            assert sm.mk == pytest.approx(
                self.quadrature_mk(theta_d, theta_w, metrics.N_POLAR, metrics.N_AZIMUTH),
                rel=1e-13, abs=0)

    def test_k_perp_equals_ring_formula(self, rng):
        """K_perp from the five-sample ring tables equals the mean of the
        directional kurtosis over N_RING ring_directions to 1e-12 relative,
        for either seed of the ring basis."""
        cases = [realistic_tensors(rng) for _ in range(6)]
        # principal axis near e_x, where the ring basis is seeded with e_y
        for _ in range(3):
            _, theta_w = realistic_tensors(rng)
            axis = np.array([1.0, *rng.uniform(-0.1, 0.1, size=2)])
            Q, _ = np.linalg.qr(np.column_stack([axis, rng.normal(size=(3, 2))]))
            D = (Q * [2.5, 0.6, 0.4]) @ Q.T
            assert abs(np.linalg.eigh(D)[1][0, -1]) >= 0.9
            cases.append((np.array([D[0, 0], D[1, 1], D[2, 2], D[0, 1], D[0, 2], D[1, 2]]),
                          theta_w))
        for theta_d, theta_w in cases:
            sm = scalar_metrics(theta_d, theta_w, 1.0, 1.0)
            assert sm.k_perp == pytest.approx(self.einsum_oracle(theta_d, theta_w)[3],
                                              rel=1e-12, abs=0)

    def test_wls_panel_matches_einsum_oracle(self):
        """On WLS fits of the 180-voxel dataset3 panel, some with
        indefinite D, every voxel gets the oracle's validity, bit-equal MD
        and FA, and MK and K_perp within 1e-12 absolute + 1e-12 relative.
        Applying D_app's off-diagonal factor 2 twice flips 35 validities."""
        protocol, rows, _ = scenario("dataset3", seed=0)
        n_invalid = 0
        for y in rows:
            fit = fit_voxel(y, protocol, "wls")
            sm = scalar_metrics(fit.theta_d, fit.theta_w, fit.s0, fit.sigma2)
            md, fa, mk, k_perp, valid = self.einsum_oracle(fit.theta_d, fit.theta_w)
            assert (sm.valid, sm.md) == (valid, md)
            assert sm.fa == fa or np.isnan(sm.fa) and np.isnan(fa)
            for got, want in ((sm.mk, mk), (sm.k_perp, k_perp)):
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12, nan_ok=True)
            n_invalid += not valid
        assert 0 < n_invalid < len(rows)

    @pytest.mark.parametrize("bad", ["theta_d", "theta_w"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_tensor_flagged(self, bad, value):
        """A NaN or infinite tensor element gives an invalid record with
        NaN scalars, not a LinAlgError from eigh or a valid NaN MK."""
        tensors = {"theta_d": np.array([1.0, 0.8, 0.6, 0.1, 0, 0]), "theta_w": np.full(15, 0.1)}
        tensors[bad][4] = value
        sm = scalar_metrics(tensors["theta_d"], tensors["theta_w"], 1.0, 0.01)
        assert not sm.valid
        assert np.all(np.isnan([sm.md, sm.fa, sm.mk, sm.k_perp]))
        assert sm.snr == pytest.approx(10.0)

    def test_fa_bounds(self, rng):
        for _ in range(500):
            evals = rng.uniform(0.05, 3.0, size=3)
            R = random_rotation(rng)
            D = (R * evals) @ R.T
            sm = scalar_metrics(
                [D[0, 0], D[1, 1], D[2, 2], D[0, 1], D[0, 2], D[1, 2]],
                np.zeros(15), 1.0, 1.0,
            )
            assert 0.0 <= sm.fa <= 1.0 + 1e-12


def map_bits(sm):
    """A ScalarMetrics as bytes and validity, so that equal NaNs compare equal."""
    return np.array([sm.md, sm.fa, sm.mk, sm.k_perp, sm.snr]).tobytes(), sm.valid


class TestBlockMaps:
    """scalar_metrics of a (k, 6), (k, 15), (k,), (k,) block gives each row
    the maps of that row computed alone, bit for bit, wherever the row sits
    in a block of any size, and those maps equal the one-voxel formulas they
    replace (conftest.reference_scalar_metrics) to 1e-12 relative."""

    # (theta_d, theta_w, the rule it hits): NaN maps from a non-finite
    # tensor or MD <= 0; MK and K_perp NaN where D_app <= 0 at a quadrature
    # node; K_perp alone NaN where D_app <= 0 only on the ring, which holds
    # the z axis while the nearest nodes have D_app >= 1.8e-6
    W = np.full(15, 0.2)
    INVALID = [
        (np.array([np.nan, 1e-3, 1e-3, 0, 0, 0]), W, "non-finite"),
        (np.array([1e-3, 1e-3, 1e-3, 0, 0, 0]), np.full(15, np.inf), "non-finite"),
        (np.array([-1e-3, -1e-3, -1e-3, 0, 0, 0]), W, "md"),
        (np.array([2e-3, 1e-3, -0.5e-3, 0, 0, 0]), W, "node"),
        (np.array([2e-3, 1e-3, -1e-6, 0, 0, 0]), W, "ring"),
    ]

    @pytest.fixture(scope="class")
    def pool(self):
        """256 rows: the WLS fits of the dataset3 panel, some invalid, and
        realistic tensors."""
        protocol, rows, _ = scenario("dataset3", seed=0)
        fits = [f for f in fit_voxel(rows, protocol, "wls") if isinstance(f, FitResult)]
        rng = np.random.default_rng(11)
        extra = [realistic_tensors(rng) for _ in range(256 - len(fits))]
        theta_d = np.array([f.theta_d for f in fits] + [d for d, _ in extra])
        theta_w = np.array([f.theta_w for f in fits] + [w for _, w in extra])
        s0 = np.array([f.s0 for f in fits] + [1.0] * len(extra))
        sigma2 = np.array([f.sigma2 for f in fits] + [0.01] * len(extra))
        alone = [scalar_metrics(*row) for row in zip(theta_d, theta_w, s0, sigma2)]
        return theta_d, theta_w, s0, sigma2, alone

    def test_invalid_rows_hit_their_rules(self):
        for theta_d, theta_w, rule in self.INVALID:
            md, fa, mk, k_perp, _, valid = reference_scalar_metrics(theta_d, theta_w, 1.0, 0.01)
            nan = np.isnan([md, fa, mk, k_perp]).tolist()
            assert not valid
            assert nan == {"non-finite": [True] * 4, "md": [False, True, True, True],
                           "node": [False, False, True, True],
                           "ring": [False, False, False, True]}[rule], rule

    @pytest.mark.parametrize("size", [1, 2, 3, 31, 32, 33, 256])
    def test_block_rows_equal_rows_alone(self, pool, size):
        theta_d, theta_w, s0, sigma2, alone = pool
        for bad_d, bad_w, rule in self.INVALID:
            bad_alone = scalar_metrics(bad_d, bad_w, 1.0, 0.01)
            for at in sorted({0, size // 2, size - 1}):
                block = [a[:size].copy() for a in (theta_d, theta_w, s0, sigma2)]
                for array, value in zip(block, (bad_d, bad_w, 1.0, 0.01)):
                    array[at] = value
                got = scalar_metrics(*block)
                assert len(got) == size
                for i, sm in enumerate(got):
                    want = bad_alone if i == at else alone[i]
                    assert map_bits(sm) == map_bits(want), (rule, at, i)

    def test_maps_equal_one_voxel_formulas(self, pool):
        theta_d, theta_w, s0, sigma2, alone = pool
        rows = list(zip(theta_d, theta_w, s0, sigma2))
        rows += [(d, w, 1.0, 0.01) for d, w, _ in self.INVALID]
        got = scalar_metrics(*map(np.array, zip(*rows)))
        n_invalid = 0
        for sm, row in zip(got, rows):
            *maps, valid = reference_scalar_metrics(*row)
            assert sm.valid == valid
            assert [sm.md, sm.fa, sm.mk, sm.k_perp, sm.snr] == pytest.approx(
                maps, rel=1e-12, abs=0, nan_ok=True)
            n_invalid += not valid
        assert n_invalid > len(self.INVALID)


def make_fit(theta_d, theta_w, s0=1.0, sigma2=1.0 / 225.0, **kw):
    defaults = dict(
        estimator="test",
        theta_d=np.asarray(theta_d, float),
        theta_w=np.asarray(theta_w, float),
        s0=s0,
        sigma2=sigma2,
        loglik_trace=np.zeros(0),
        em_iterations=5,
        converged=True,
        violations=ConstraintFlags(),
        wall_time=0.01,
    )
    defaults.update(kw)
    return FitResult(**defaults)


class TestEvaluate:
    def _pairs(self, rng, n=6):
        fits, truths = [], []
        for seed in range(n):
            gt = random_tensor_truth(np.random.default_rng(seed + 40))
            gt.snr = 15.0
            gt.sigma = 1.0 / 15.0
            truths.append(gt)
            fits.append(make_fit(gt.theta_d, gt.theta_w, sigma2=gt.sigma**2))
        return fits, truths

    def test_perfect_fits_zero_error(self, rng):
        fits, truths = self._pairs(rng)
        rep = evaluate(fits, truths)
        for key in ("md", "fa", "mk", "k_perp", "dt", "kt"):
            assert rep.mse[key] == pytest.approx(0.0, abs=1e-12)
        assert all(v == 0.0 for v in rep.violation_pct.values())
        assert rep.n_voxels == len(fits)

    def test_known_md_offset(self, rng):
        fits, truths = self._pairs(rng, n=3)
        for f in fits:
            f.theta_d = f.theta_d + np.array([3e-5, 3e-5, 3e-5, 0, 0, 0])
        rep = evaluate(fits, truths)
        assert rep.mse["md"] == pytest.approx((3e-5) ** 2, rel=1e-6)

    def test_violation_percentages(self, rng):
        fits, truths = self._pairs(rng, n=4)
        fits[0].violations = ConstraintFlags(kurtosis_negative=True)
        fits[1].violations = ConstraintFlags(kurtosis_negative=True, d_not_pd=True)
        rep = evaluate(fits, truths)
        assert rep.violation_pct["kurtosis_negative"] == pytest.approx(50.0)
        assert rep.violation_pct["d_not_pd"] == pytest.approx(25.0)

    def test_length_mismatch(self, rng):
        fits, truths = self._pairs(rng, n=3)
        with pytest.raises(ValueError, match="fits vs"):
            evaluate(fits[:2], truths)

    def test_isotropic_truth_comparison(self):
        gt = GroundTruthVoxel(kind="isotropic", d_app=0.9e-3, k_app=0.8, snr=15.0)
        theta_w = np.zeros(15)
        theta_w[:3] = 0.8
        theta_w[3:6] = 0.8 / 3.0
        fit = make_fit([0.9e-3] * 3 + [0.0] * 3, theta_w, sigma2=(1 / 15.0) ** 2)
        rep = evaluate([fit], [gt])
        assert rep.mse["mk"] == pytest.approx(0.0, abs=1e-6)
        assert rep.mse["dt"] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("snr", [15.0, np.inf])
    def test_truth_snr_is_the_voxels_own(self, snr):
        """The truth side of the SNR error is the truth's ``snr`` for both
        kinds, noise-free (sigma 0, SNR infinite) included."""
        tensor = random_tensor_truth(np.random.default_rng(40))
        tensor.sigma, tensor.snr = 1.0 / snr, snr
        isotropic = GroundTruthVoxel(kind="isotropic", sigma=1.0 / snr, snr=snr,
                                     d_app=0.9e-3, k_app=0.8)
        fit = make_fit(tensor.theta_d, tensor.theta_w, sigma2=0.01)
        for gt in (tensor, isotropic):
            assert evaluate([fit], [gt]).mse["snr"] == (fit.snr - snr) ** 2

    def test_report_serialization(self, rng):
        fits, truths = self._pairs(rng, n=3)
        rep = evaluate(fits, truths)
        payload = json.loads(rep.to_json())
        assert payload["n_voxels"] == 3
        text = rep.format_table(title="x")
        assert "MK" in text and "runtime" in text

    def test_report_has_one_mse_table(self, rng):
        fits, truths = self._pairs(rng, n=2)
        payload = json.loads(evaluate(fits, truths).to_json())
        assert set(payload) == {"n_voxels", "mse", "violation_pct", "runtime",
                                "mean_em_iterations"}

    def test_infinite_mse_is_null_in_json(self, rng):
        """JSON has no Infinity: an infinite MSE is written as null, and
        the text table prints it as inf."""
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        fits, truths = self._pairs(rng, n=2)
        rep = evaluate(fits, truths)
        rep.mse["mk"] = np.inf
        payload = json.loads(rep.to_json(), parse_constant=reject)
        assert payload["mse"]["mk"] is None and payload["mse"]["md"] == rep.mse["md"]
        assert "inf" in rep.format_table().split("\n")[3]


class TestViolationRates:
    def test_unconstrained_wls_negative_kurtosis_band(self):
        """At SNR 15 a substantial share of raw log-linear fits have a
        negative directional kurtosis somewhere (tens of percent)."""
        from dkimle.estimators import B_INTERNAL_SCALE, VoxelData, wls_fit, violation_flags
        from dkimle.protocol import build_design
        from dkimle.simulate import simulate_voxel, random_tensor_truth, builtin_gradients
        from dkimle.protocol import AcquisitionProtocol

        dirs = builtin_gradients()
        protocol = AcquisitionProtocol(
            np.repeat([500.0, 1000.0, 1500.0], 18), np.tile(dirs, (3, 1))
        )
        design = build_design(protocol.rescaled(B_INTERNAL_SCALE))
        n_marked = 0
        n = 40
        for seed in range(n):
            gt = random_tensor_truth(np.random.default_rng(seed + 900), protocol)
            vox = simulate_voxel(gt, protocol, 1.0, 1 / 15.0, np.random.default_rng(seed))
            fit = wls_fit(vox, design)
            flags = violation_flags(fit.theta_d, fit.theta_w(), design)
            n_marked += flags.kurtosis_negative
        rate = 100.0 * n_marked / n
        assert 30.0 <= rate <= 75.0, f"violation rate {rate:.0f}%"
