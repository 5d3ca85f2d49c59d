import dataclasses
import json

import numpy as np
import pytest

from dkimle.protocol import (
    AcquisitionProtocol,
    build_design,
    dump_protocol,
    load_protocol,
)
from dkimle.simulate import scenario

from conftest import apply_p, apply_p_batch, contraction_oracle, dense_p_matrix, random_unit, vvec


def make_protocol(bvals, bvecs):
    return AcquisitionProtocol(np.asarray(bvals, float), np.asarray(bvecs, float))


class TestBuildDesign:
    def test_axis_aligned_gradient(self):
        p = make_protocol([1000.0], [[1.0, 0.0, 0.0]])
        d = build_design(p)
        np.testing.assert_allclose(d.z_d[0], [-1000.0, 0, 0, 0, 0, 0], atol=1e-12)
        expected_w = np.zeros(15)
        expected_w[0] = 1000.0**2 / 6.0
        np.testing.assert_allclose(d.z_w[0], expected_w, atol=1e-12)
        np.testing.assert_allclose(d.v[0], [1, 0, 0, 0, 0, 0], atol=1e-15)

    def test_diagonal_gradient(self):
        s = 1.0 / np.sqrt(2.0)
        p = make_protocol([1.0], [[s, s, 0.0]])
        d = build_design(p)
        np.testing.assert_allclose(d.z_d[0], [-0.5, -0.5, 0, -1.0, 0, 0], atol=1e-12)

    def test_zw_matches_contraction_oracle(self, rng):
        """Each Z_W row contracted with theta_W equals (b^2/6) times the
        brute-force 81-term tensor contraction, for random tensors."""
        g = np.array([random_unit(rng) for _ in range(12)])
        b = rng.uniform(0.1, 3.0, size=12)
        d = build_design(make_protocol(b, g))
        for _ in range(5):
            w15 = rng.normal(size=15)
            direct = d.z_w @ w15
            oracle = np.array(
                [bj**2 / 6.0 * contraction_oracle(gj, w15) for bj, gj in zip(b, g)]
            )
            np.testing.assert_allclose(direct, oracle, rtol=1e-12, atol=1e-14)

    def test_b0_rows_are_zero(self):
        p = make_protocol([0.0, 1000.0], [[1, 0, 0], [0, 1, 0]])
        d = build_design(p)
        assert np.all(d.z_d[0] == 0)
        assert np.all(d.z_w[0] == 0)
        assert np.any(d.z_d[1] != 0)

    def test_regression_matrix_is_cached_and_read_only(self):
        """``regression`` equals [1 | Z_D | Z_W] bit for bit, is built once
        per design and cannot be written."""
        protocol, _, _ = scenario("dataset3", seed=0, n_voxels=1)
        d = build_design(protocol)
        np.testing.assert_array_equal(
            d.regression, np.column_stack([np.ones(d.m), d.z_d, d.z_w]))
        assert d.regression is d.regression
        with pytest.raises(ValueError, match="read-only"):
            d.regression[0, 0] = 2.0

    @pytest.mark.parametrize("name", ["dataset1", "dataset3"])
    def test_regression_rank_is_cached_matrix_rank(self, monkeypatch, name):
        """``regression_rank`` is the int ``np.linalg.matrix_rank`` of
        ``regression``, computed once per design and not assignable."""
        protocol, _, _ = scenario(name, seed=0, n_voxels=6 if name == "dataset1" else 1)
        d = build_design(protocol)
        calls = []
        real = np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank", lambda X: calls.append(1) or real(X))
        rank = d.regression_rank
        assert type(rank) is int and rank == real(d.regression) == 22
        assert d.regression_rank == rank and len(calls) == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            d.regression_rank = 21

    def test_v_first_three_sum_to_one(self, rng):
        g = np.array([random_unit(rng) for _ in range(20)])
        d = build_design(make_protocol(np.ones(20), g))
        np.testing.assert_allclose(d.v[:, :3].sum(axis=1), 1.0, atol=1e-12)

    def test_rejects_bad_gradient(self):
        with pytest.raises(ValueError, match="norm"):
            make_protocol([1.0], [[1.0, 1.0, 0.0]])

    def test_rejects_negative_b(self):
        with pytest.raises(ValueError, match="negative"):
            make_protocol([-5.0], [[1.0, 0.0, 0.0]])


class TestApplyP:
    def test_zero_theta(self):
        assert apply_p(np.zeros(18), np.array([1, 0, 0, 0, 0, 0.0]), 2.0) == 0.0

    def test_single_monomial(self):
        theta = np.zeros(18)
        theta[0] = 1.0
        v = np.array([1.0, 0, 0, 0, 0, 0])
        assert apply_p(theta, v, np.sqrt(6.0)) == pytest.approx(1.0, abs=1e-14)

    def test_matches_dense_matrix(self, rng):
        """The factored evaluation equals theta^T P theta with P built as
        the explicit 18 x 18 block matrix."""
        for _ in range(20):
            theta = rng.normal(size=18)
            g = random_unit(rng)
            v = vvec(g)
            b = rng.uniform(0.1, 3.0)
            dense = float(theta @ dense_p_matrix(v, b) @ theta)
            assert apply_p(theta, v, b) == pytest.approx(dense, abs=1e-12, rel=1e-12)

    def test_nonnegative(self, rng):
        for _ in range(100):
            theta = rng.normal(size=18)
            v = vvec(random_unit(rng))
            assert apply_p(theta, v, rng.uniform(0, 3)) >= 0.0

    def test_batch_matches_scalar(self, rng):
        theta = rng.normal(size=18)
        g = np.array([random_unit(rng) for _ in range(7)])
        b = rng.uniform(0, 2, size=7)
        d = build_design(make_protocol(b, g))
        batch = apply_p_batch(theta, d.v, d.b)
        single = [apply_p(theta, d.v[j], d.b[j]) for j in range(7)]
        np.testing.assert_allclose(batch, single, rtol=1e-14)


class TestDtiReduction:
    def test_zero_kurtosis_reduces_to_pure_dti(self, rng):
        """With theta_Q = 0 the exponent is exactly the linear diffusion
        model Z_D theta_D."""
        g = np.array([random_unit(rng) for _ in range(10)])
        b = rng.uniform(0, 3, size=10)
        d = build_design(make_protocol(b, g))
        theta_d = rng.normal(size=6)
        expo_dki = d.z_d @ theta_d + apply_p_batch(np.zeros(18), d.v, d.b)
        np.testing.assert_allclose(expo_dki, d.z_d @ theta_d, atol=1e-14)


class TestLoadProtocol:
    def test_text_roundtrip(self, rng):
        """A written protocol loads back bit for bit."""
        g = np.array([random_unit(rng) for _ in range(5)])
        p = make_protocol(rng.uniform(0, 2000, 5), g)
        p2 = load_protocol(dump_protocol(p))
        np.testing.assert_array_equal(p2.bvals, p.bvals)
        np.testing.assert_array_equal(p2.bvecs, p.bvecs)

    @pytest.mark.parametrize("name", ["dataset1", "dataset2", "dataset3"])
    def test_scenario_protocol_roundtrip(self, name):
        """The protocols `dkimle simulate` writes load back bit for bit."""
        p = scenario(name, n_voxels=6 if name == "dataset1" else 1)[0]
        p2 = load_protocol(dump_protocol(p))
        np.testing.assert_array_equal(p2.bvals, p.bvals)
        np.testing.assert_array_equal(p2.bvecs, p.bvecs)

    def test_json_form(self):
        text = json.dumps({
            "bvals": [0.0, 1000.0],
            "bvecs": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]],
        })
        p = load_protocol(text)
        assert p.m == 2
        np.testing.assert_allclose(p.bvecs[1], [1, 0, 0])

    @pytest.mark.parametrize("bvals, bvecs, key", [
        ([0, True, 1000], [[1, 0, 0]] * 3, "bvals"),
        (["0", 1000], [[1, 0, 0]] * 2, "bvals"),
        ([0, 1000], [[1, 0, 0], [1, "0", 0]], "bvecs"),
        ([0, 1000], [[1, 0, 0], [1, 0]], "bvecs"),
    ])
    def test_json_rejects_non_numbers(self, bvals, bvecs, key):
        """Booleans and numeric strings are not b-values or gradient entries."""
        with pytest.raises(ValueError, match=key):
            load_protocol(json.dumps({"bvals": bvals, "bvecs": bvecs}))

    def test_json_and_text_agree(self):
        text = "0 0 0 1\n1500 0.5 0.5 0.7071067811865476\n"
        as_json = json.dumps({
            "bvals": [0, 1500],
            "bvecs": [[0, 0, 1], [0.5, 0.5, 0.7071067811865476]],
        })
        p1 = load_protocol(text)
        p2 = load_protocol(as_json)
        np.testing.assert_allclose(p1.bvals, p2.bvals)
        np.testing.assert_allclose(p1.bvecs, p2.bvecs, atol=1e-12)

    def test_comments_and_blanks(self):
        p = load_protocol("# header\n\n1000 1 0 0  # inline\n")
        assert p.m == 1

    def test_renormalizes_close_gradient(self):
        # off unit norm by ~6e-7, the worst row of the builtin 18-set
        p = load_protocol("1000 0.737068 -0.568030 0.366160\n")
        assert abs(np.linalg.norm(p.bvecs[0]) - 1.0) < 1e-12

    def test_loads_builtin_direction_file(self):
        """An 18-direction single-shell file parses to m = 18 with every
        gradient accepted under the renormalization tolerance."""
        from dkimle.simulate import _GRADIENTS_18

        lines = [f"1000 {g[0]} {g[1]} {g[2]}" for g in _GRADIENTS_18]
        p = load_protocol("\n".join(lines) + "\n")
        assert p.m == 18
        np.testing.assert_allclose(np.linalg.norm(p.bvecs, axis=1), 1.0, atol=1e-12)

    def test_rejects_far_from_unit(self):
        with pytest.raises(ValueError, match="away from 1"):
            load_protocol("1000 1.1 0 0\n")

    def test_empty_is_error(self):
        with pytest.raises(ValueError, match="empty"):
            load_protocol("# nothing here\n")

    def test_nan_is_error(self):
        with pytest.raises(ValueError, match="NaN|finite"):
            load_protocol("1000 nan 0 0\n")

    def test_malformed_row(self):
        with pytest.raises(ValueError, match="line 1"):
            load_protocol("1000 1 0\n")

    def test_zero_gradient_on_weighted_row_rejected(self):
        with pytest.raises(ValueError, match="zero gradient"):
            load_protocol("1000 0 0 0\n")
