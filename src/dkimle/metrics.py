"""Rotation-invariant scalar maps and the estimator evaluation harness."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .estimators import ConstraintFlags
from .protocol import PAIR_COUNTS, monomial_vectors, quartic_rows
from .simulate import GroundTruthVoxel
from .sphere import gauss_legendre_sphere
from .tensors import d_matrix, gram_from_kurtosis, mean_diffusivity

__all__ = ["ScalarMetrics", "scalar_metrics", "EvalReport", "evaluate"]

# spherical quadrature sizes: the Gauss-Legendre product rule at 32 x 64
# integrates the kurtosis ratio to machine precision for tissue-like
# anisotropy; 256 ring points are spectrally exact for the radial mean
N_POLAR, N_AZIMUTH = 32, 64
N_RING = 256


@lru_cache(maxsize=1)
def _quadrature():
    """The Gauss-Legendre nodes' quadratic monomial vectors, their weights
    and their quartic rows at N_POLAR x N_AZIMUTH (read-only)."""
    dirs, wts = gauss_legendre_sphere(N_POLAR, N_AZIMUTH)
    vecs, rows = monomial_vectors(dirs), quartic_rows(dirs)
    for array in (vecs, wts, rows):
        array.setflags(write=False)
    return vecs, wts, rows


# D_app and W_app along the great circle g(t) = cos t e2 + sin t e3 are
# binary forms in (cos t, sin t), and D_app = D_app (cos^2 t + sin^2 t) is
# quartic too: their values at five angles determine both on the circle
_RING_SAMPLES = np.pi * np.arange(5) / 5
_RING_CS = np.column_stack([np.cos(_RING_SAMPLES), np.sin(_RING_SAMPLES)])


def _binary_quartics(t):
    c, s = np.cos(t), np.sin(t)
    return np.column_stack([c**4, c**3 * s, c**2 * s**2, c * s**3, s**4])


@lru_cache(maxsize=1)
def _ring_table():
    """(5, N_RING) map from a binary quartic's values at the sample angles
    to its values at the ring angles t = 2 pi k / N_RING (read-only)."""
    t = 2.0 * np.pi * np.arange(N_RING) / N_RING
    table = np.linalg.solve(_binary_quartics(_RING_SAMPLES).T, _binary_quartics(t).T)
    table.setflags(write=False)
    return table


def _ring_basis(axis):
    """Orthonormal rows (e2, e3) spanning the plane orthogonal to a unit
    axis, e2 = axis x seed / |axis x seed| and e3 = axis x e2, from scalar
    cross products."""
    a0, a1, a2 = axis.tolist()
    # e2 = axis x e_x, or axis x e_y when the axis is near e_x
    x, y, z = (0.0, a2, -a1) if abs(a0) < 0.9 else (-a2, 0.0, a0)
    n = math.sqrt(x * x + y * y + z * z)
    x, y, z = x / n, y / n, z / n
    return np.array([[x, y, z], [a1 * z - a2 * y, a2 * x - a0 * z, a0 * y - a1 * x]])


@dataclass
class ScalarMetrics:
    """Per-voxel scalar summary: MD, FA, MK, radial kurtosis and SNR."""

    md: float
    fa: float
    mk: float
    k_perp: float
    snr: float
    valid: bool = True

    def to_dict(self) -> dict:
        # an invalid map's NaN is written as null, since JSON has no NaN
        return {k: v if np.isfinite(v) else None for k, v in vars(self).items()}


def scalar_metrics(theta_d, theta_w, s0, sigma2) -> ScalarMetrics:
    """Scalar maps from one voxel's tensors.

    MD = tr(D)/3; FA is the normalized eigenvalue dispersion
    sqrt(3/2) ||D - MD I||_F / ||D||_F; MK averages the directional
    kurtosis over the N_POLAR x N_AZIMUTH Gauss-Legendre sphere; K_perp
    averages it over N_RING equally spaced points of the great circle
    orthogonal to the principal eigenvector; SNR = S0/sigma.
    Voxels with non-finite tensors or MD <= 0 are flagged invalid with NaN scalars.
    """
    theta_w = np.asarray(theta_w, dtype=float)
    snr = float(s0 / np.sqrt(sigma2))
    finite = np.isfinite(theta_d).all() and np.isfinite(theta_w).all()
    md = mean_diffusivity(theta_d) if finite else np.nan
    if not md > 0:
        return ScalarMetrics(md, np.nan, np.nan, np.nan, snr, valid=False)

    D = d_matrix(theta_d)
    dev = D - md * np.eye(3)
    norm_d = np.linalg.norm(D)
    fa = float(np.sqrt(1.5) * np.linalg.norm(dev) / norm_d) if norm_d > 0 else 0.0

    vecs, wts, rows = _quadrature()
    d_coef = theta_d * PAIR_COUNTS
    d_app = vecs @ d_coef
    if (d_app <= 0).any():
        return ScalarMetrics(md, fa, np.nan, np.nan, snr, valid=False)
    k_app = (md / d_app) ** 2 * (rows @ theta_w)
    mk = float((wts * k_app).sum())

    _, evecs = np.linalg.eigh(D)
    ring_vecs = monomial_vectors(_RING_CS @ _ring_basis(evecs[:, -1]))
    w_samples = ((ring_vecs @ gram_from_kurtosis(theta_w)) * ring_vecs).sum(1)  # v^T G v = W_app
    d_ring, w_ring = np.stack([ring_vecs @ d_coef, w_samples]) @ _ring_table()
    if (d_ring <= 0).any():
        return ScalarMetrics(md, fa, mk, np.nan, snr, valid=False)
    k_ring = (md / d_ring) ** 2 * w_ring
    k_perp = float(k_ring.sum() / N_RING)

    return ScalarMetrics(md, fa, mk, k_perp, snr)


def _truth_metrics(gt: GroundTruthVoxel) -> ScalarMetrics:
    if gt.kind == "isotropic":
        return ScalarMetrics(gt.d_app, 0.0, gt.k_app, gt.k_app, gt.snr)
    return replace(scalar_metrics(gt.theta_d, gt.theta_w, gt.s0, 1.0), snr=gt.snr)


_SCALARS = ("md", "fa", "mk", "k_perp")


@dataclass
class EvalReport:
    """Aggregate comparison of fitted voxels against their ground truth.

    ``mse`` carries per-metric mean squared deviations from truth, plus
    the full-vector tensor errors DT (6 diffusion elements, squared units of
    theta_D) and KT (15 kurtosis elements).  Violation percentages count
    raw fitted parameters before any clamping.
    """

    n_voxels: int
    mse: dict
    violation_pct: dict
    runtime: dict
    mean_em_iterations: float

    def to_json(self) -> str:
        # an infinite MSE (a noise-free truth's SNR) is written as null,
        # since JSON has no Infinity
        mse = {k: v if np.isfinite(v) else None for k, v in self.mse.items()}
        return json.dumps({**vars(self), "mse": mse})

    def format_table(self, title: str = "") -> str:
        head = ["metric", "MSE"]
        rows = [(k.upper(), self.mse[k]) for k in (*_SCALARS, "dt", "kt")]
        width = max(len(h) for h, _ in rows) + 2
        lines = []
        if title:
            lines.append(title)
        lines.append(f"{head[0]:<{width}}{head[1]:>14}")
        for name, value in rows:
            lines.append(f"{name:<{width}}{value:>14.6g}")
        lines.append(
            "violations %  "
            + "  ".join(f"#{i}: {pct:.2f}" for i, pct in
                        enumerate(self.violation_pct.values(), start=1))
        )
        lines.append(
            f"runtime s/voxel  mean: {self.runtime['mean']:.4g}  "
            f"max: {self.runtime['max']:.4g}  min: {self.runtime['min']:.4g}"
        )
        lines.append(f"mean EM iterations  {self.mean_em_iterations:.4g}")
        return "\n".join(lines)


def evaluate(fits, truths) -> EvalReport:
    """Per-metric errors, violation rates and timing for a batch of fits.

    Parameters
    ----------
    fits : list of FitResult
        Fitted voxels with ``theta_d`` in the same units as the truths.
    truths : list of GroundTruthVoxel
    """
    if len(fits) != len(truths):
        raise ValueError(f"{len(fits)} fits vs {len(truths)} truths")

    sq_err = {k: [] for k in _SCALARS}
    sq_err["dt"] = []
    sq_err["kt"] = []
    sq_err["snr"] = []
    counts = {flag.name: 0 for flag in fields(ConstraintFlags)}
    times = []
    iters = []

    for fit, gt in zip(fits, truths):
        est = scalar_metrics(fit.theta_d, fit.theta_w, fit.s0, fit.sigma2)
        ref = _truth_metrics(gt)
        for k in _SCALARS:
            e = getattr(est, k) - getattr(ref, k)
            sq_err[k].append(e * e if np.isfinite(e) else np.inf)
        sq_err["snr"].append((est.snr - ref.snr) ** 2)
        if gt.kind == "tensor":
            sq_err["dt"].append(float(np.mean((fit.theta_d - gt.theta_d) ** 2)))
            sq_err["kt"].append(float(np.mean((fit.theta_w - gt.theta_w) ** 2)))
        else:
            # isotropic truth: D = d_app I, W isotropic with mean k_app
            td = np.array([gt.d_app] * 3 + [0.0] * 3)
            tw = np.zeros(15)
            tw[:3] = gt.k_app
            tw[3:6] = gt.k_app / 3.0
            sq_err["dt"].append(float(np.mean((fit.theta_d - td) ** 2)))
            sq_err["kt"].append(float(np.mean((fit.theta_w - tw) ** 2)))
        for flag, raised in vars(fit.violations).items():
            counts[flag] += raised
        times.append(fit.wall_time)
        iters.append(fit.em_iterations)

    n = len(fits)
    mse = {k: float(np.mean(v)) for k, v in sq_err.items()}
    return EvalReport(
        n_voxels=n,
        mse=mse,
        violation_pct={k: 100.0 * c / n for k, c in counts.items()},
        runtime={
            "mean": float(np.mean(times)),
            "max": float(np.max(times)),
            "min": float(np.min(times)),
        },
        mean_em_iterations=float(np.mean(iters)),
    )

