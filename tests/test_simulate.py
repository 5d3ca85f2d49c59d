import json

import numpy as np
import pytest

from dkimle.protocol import AcquisitionProtocol
from dkimle.simulate import (
    ROI_PRESETS,
    BiexpParams,
    GroundTruthVoxel,
    biexp_apparent,
    builtin_gradients,
    max_b,
    random_tensor_truth,
    scenario,
    simulate_voxel,
)
from dkimle.sphere import fibonacci_sphere


class TestBiexpApparent:
    def test_pure_extracellular(self):
        p = BiexpParams(1.5e-3, 0.3e-3, 0.0)
        d, k = biexp_apparent(p)
        assert d == pytest.approx(0.3e-3)
        assert k == 0.0

    def test_pure_intracellular(self):
        p = BiexpParams(1.5e-3, 0.3e-3, 1.0)
        d, k = biexp_apparent(p)
        assert d == pytest.approx(1.5e-3)
        assert k == 0.0

    def test_thalamus_preset_values(self):
        """Frozen from direct evaluation of the two-compartment formulas
        on the thalamus preset (1.320, 0.271, 0.617)."""
        d, k = biexp_apparent(ROI_PRESETS["TH"])
        assert d == pytest.approx(0.918233e-3, abs=1e-9)
        assert k == pytest.approx(0.925231, abs=1e-5)

    def test_kurtosis_upper_bound_on_physical_grid(self):
        """3 f (1-f) x^2 / (f x + (1-f))^2 approaches 3 (1-f)/f as the
        compartment ratio x grows, so it stays below 3 on the tissue
        grid spanned by the presets (f >= 0.49); outside that range the
        formula is unbounded."""
        for f in np.linspace(0.49, 0.99, 25):
            for ratio in np.linspace(1.01, 12.0, 40):
                p = BiexpParams(ratio * 1e-3, 1e-3, f)
                _, k = biexp_apparent(p)
                assert k <= 3.0 + 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            BiexpParams(0.3e-3, 1.5e-3, 0.5)  # inverted compartments
        with pytest.raises(ValueError):
            BiexpParams(1.5e-3, 0.3e-3, 1.2)


class TestMaxB:
    def test_single_roi_formula(self):
        # engineered so D_app * K_app = 1e-3 exactly
        p = BiexpParams(2.0e-3, 0.99999e-3, 0.5)
        d, k = biexp_apparent(p)
        target = 3.0 / (d * k)
        assert max_b([p]) == pytest.approx(target, rel=1e-12)

    def test_zero_kurtosis_unbounded(self):
        p = BiexpParams(1.5e-3, 0.3e-3, 0.0)
        assert max_b([p]) == np.inf

    def test_six_preset_bounds(self):
        """Per-ROI bounds frozen from direct evaluation; the binding
        region is PU/GP at ~2718 s/mm^2."""
        bounds = {}
        for name, p in ROI_PRESETS.items():
            d, k = biexp_apparent(p)
            bounds[name] = 3.0 / (d * k)
        assert bounds["TH"] == pytest.approx(3531.2, abs=0.5)
        assert bounds["PU/GP"] == pytest.approx(2717.7, abs=0.5)
        assert min(bounds, key=bounds.get) == "PU/GP"
        assert max_b(ROI_PRESETS.values()) == pytest.approx(min(bounds.values()), rel=1e-12)


class TestBuiltinGradients:
    def test_count_and_first_row(self):
        g = builtin_gradients()
        assert g.shape == (18, 3)
        np.testing.assert_allclose(
            g[0], [0.737068, -0.568030, 0.366160], atol=1e-6
        )

    def test_unit_norm(self):
        g = builtin_gradients()
        np.testing.assert_allclose(np.linalg.norm(g, axis=1), 1.0, atol=1e-9)

    def test_well_spread(self):
        """Minimum pairwise angle (antipodally folded) is 32.4 degrees;
        assert the conservative 10-degree floor."""
        g = builtin_gradients()
        worst = 90.0
        for i in range(18):
            for j in range(i + 1, 18):
                c = min(abs(float(g[i] @ g[j])), 1.0)
                worst = min(worst, float(np.degrees(np.arccos(c))))
        assert worst > 10.0


class TestSimulateVoxel:
    def _protocol(self):
        dirs = fibonacci_sphere(12)
        return AcquisitionProtocol(
            np.r_[0.0, np.full(12, 1000.0)],
            np.vstack([[1.0, 0, 0], dirs]),
        )

    def test_noise_free_b0(self):
        gt = GroundTruthVoxel(kind="isotropic", d_app=0.9e-3, k_app=0.8)
        vox = simulate_voxel(gt, self._protocol(), 1.0, 0.0, np.random.default_rng(0))
        assert vox.y[0] == pytest.approx(1.0)

    def test_scalar_decay_oracle(self):
        """The isotropic noise-free signal equals the closed-form decay
        exp(-b D + b^2 D^2 K / 6) evaluated directly."""
        d_app, k_app = biexp_apparent(ROI_PRESETS["TH"])
        gt = GroundTruthVoxel(kind="isotropic", d_app=d_app, k_app=k_app)
        protocol = AcquisitionProtocol(np.array([996.0]), np.array([[1.0, 0, 0]]))
        vox = simulate_voxel(gt, protocol, 1.0, 0.0, np.random.default_rng(0))
        bd = 0.996 * 0.918233  # ms/um^2 times um^2/ms
        expected = np.exp(-bd + bd * bd * 0.925231 / 6.0)
        assert vox.y[0] == pytest.approx(expected, rel=1e-5)

    def test_rician_mean_at_b0(self):
        gt = GroundTruthVoxel(kind="isotropic", d_app=0.9e-3, k_app=0.8)
        protocol = AcquisitionProtocol(np.zeros(10000), np.tile([1.0, 0, 0], (10000, 1)))
        sigma = 1.0 / 15.0
        vox = simulate_voxel(gt, protocol, 1.0, sigma, np.random.default_rng(7))
        expect = np.sqrt(1.0 + sigma**2)  # high-SNR Rician mean expansion
        se = sigma / np.sqrt(10000)
        assert abs(vox.y.mean() - expect) < 3 * se + 1e-4

    def test_decay_violation_warns(self):
        gt = GroundTruthVoxel(kind="isotropic", d_app=1.0e-3, k_app=2.9)
        protocol = AcquisitionProtocol(np.array([2500.0]), np.array([[1.0, 0, 0]]))
        with pytest.warns(RuntimeWarning, match="decay bound"):
            simulate_voxel(gt, protocol, 1.0, 0.0, np.random.default_rng(0))

    def test_tensor_signal_monotone_below_bound(self):
        """Noise-free decay is monotone in b for every preset up to the
        joint bound."""
        bound = max_b(ROI_PRESETS.values())
        bvals = np.linspace(1.0, bound * 0.999, 60)
        protocol = AcquisitionProtocol(bvals, np.tile([1.0, 0, 0], (60, 1)))
        for name, preset in ROI_PRESETS.items():
            d_app, k_app = biexp_apparent(preset)
            gt = GroundTruthVoxel(kind="isotropic", d_app=d_app, k_app=k_app)
            vox = simulate_voxel(gt, protocol, 1.0, 0.0, np.random.default_rng(0))
            assert np.all(np.diff(vox.y) < 0), name


class TestRandomTensorTruth:
    def test_feasible_for_protocol(self):
        dirs = fibonacci_sphere(20)
        protocol = AcquisitionProtocol(
            np.full(20, 2000.0), dirs
        )
        for seed in range(10):
            gt = random_tensor_truth(np.random.default_rng(seed), protocol)
            # spot check on many directions including the protocol's
            from dkimle.tensors import d_matrix, mean_diffusivity
            from dkimle.protocol import quartic_rows

            test_dirs = np.vstack([fibonacci_sphere(400), dirs])
            D = d_matrix(gt.theta_d)
            d_app = np.einsum("ni,ij,nj->n", test_dirs, D, test_dirs)
            w_app = quartic_rows(test_dirs) @ gt.theta_w
            md = mean_diffusivity(gt.theta_d)
            k_app = (md / d_app) ** 2 * w_app
            assert np.all(k_app * 2000.0 * d_app <= 3.0 + 1e-9)
            assert np.all(w_app >= -1e-12)

    def test_kurtosis_range(self):
        protocol = AcquisitionProtocol(np.full(6, 1000.0), fibonacci_sphere(6))
        from dkimle.metrics import scalar_metrics

        for seed in range(6):
            gt = random_tensor_truth(np.random.default_rng(seed), protocol)
            sm = scalar_metrics(gt.theta_d, gt.theta_w, 1.0, 1.0)
            assert 0.1 < sm.mk < 1.3


class TestScenarios:
    def test_dataset1_shape(self):
        protocol, rows, truths = scenario("dataset1", snr=15.0, seed=1)
        assert rows.shape == (6, 180)  # six ROIs, six shells x 30 directions
        assert protocol.m == 180
        assert [t.roi for t in truths] == list(ROI_PRESETS)

    def test_dataset3_shape_and_ramp(self):
        protocol, rows, truths = scenario("dataset3", seed=1, n_voxels=60)
        assert protocol.m == 54  # three shells x 18 directions
        snrs = sorted({t.snr for t in truths})
        assert snrs[0] == pytest.approx(8.0)
        assert len({t.snr for t in truths[:20]}) == 1  # constant per block

    def test_determinism(self):
        _, rows1, _ = scenario("dataset2", snr=12.0, seed=9, n_voxels=3)
        _, rows2, _ = scenario("dataset2", snr=12.0, seed=9, n_voxels=3)
        np.testing.assert_array_equal(rows1, rows2)

    def test_bad_snr(self):
        with pytest.raises(ValueError, match="SNR"):
            scenario("dataset1", snr=0.0)

    def test_unknown_scenario(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            scenario("dataset9")

    @pytest.mark.parametrize("n_voxels", [0, -2])
    def test_voxel_count_below_one(self, n_voxels):
        with pytest.raises(ValueError, match="voxel count"):
            scenario("dataset2", n_voxels=n_voxels)

    @pytest.mark.parametrize("n_voxels", [1, 100])
    def test_dataset1_voxel_count_is_fixed(self, n_voxels):
        with pytest.raises(ValueError, match="6 fixed ROI voxels"):
            scenario("dataset1", n_voxels=n_voxels)
        assert len(scenario("dataset1", n_voxels=6)[1]) == 6

    def test_noise_free_truth_roundtrip(self):
        """A truth simulated without noise keeps its SNR of infinity through
        the sidecar: the entry leaves it out, which is strict JSON, and the
        default restores it."""
        def reject(token):
            raise ValueError(f"{token} is not JSON")

        _, _, truths = scenario("dataset1", snr=np.inf)
        text = json.dumps(truths[0].to_dict())
        clone = GroundTruthVoxel.from_dict(json.loads(text, parse_constant=reject))
        assert clone == truths[0] and clone.snr == np.inf

    def test_reads_infinite_snr_of_older_sidecars(self):
        entry = json.loads('{"kind": "isotropic", "sigma": 0.0, "snr": Infinity, '
                           '"d_app": 0.001, "k_app": 0.8}')
        assert GroundTruthVoxel.from_dict(entry).snr == np.inf

    def test_truth_roundtrip_serialization(self):
        _, _, truths = scenario("dataset2", seed=4, n_voxels=2)
        for gt in truths:
            clone = GroundTruthVoxel.from_dict(gt.to_dict())
            np.testing.assert_allclose(clone.theta_d, gt.theta_d)
            np.testing.assert_allclose(clone.theta_w, gt.theta_w)
            assert clone.snr == gt.snr
