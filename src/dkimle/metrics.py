"""Rotation-invariant scalar maps and the estimator evaluation harness."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace
from functools import lru_cache

import numpy as np

from .estimators import CHUNK_ROWS, ConstraintFlags, _row_product
from .protocol import PAIR_COUNTS, monomial_vectors, quartic_rows
from .simulate import GroundTruthVoxel
from .sphere import gauss_legendre_sphere
from .tensors import d_matrix, gram_from_kurtosis

__all__ = ["ScalarMetrics", "scalar_metrics", "EvalReport", "evaluate"]

# spherical quadrature sizes: the Gauss-Legendre product rule at 32 x 64
# integrates the kurtosis ratio to machine precision for tissue-like
# anisotropy; 256 ring points are spectrally exact for the radial mean
N_POLAR, N_AZIMUTH = 32, 64
N_RING = 256


@lru_cache(maxsize=1)
def _quadrature():
    """The Gauss-Legendre nodes' quadratic monomial vectors, their weights
    and their quartic rows at N_POLAR x N_AZIMUTH (read-only).  The
    vectors and rows are Fortran-ordered, so that their transposes are the
    C-contiguous tables of the stacked products."""
    dirs, wts = gauss_legendre_sphere(N_POLAR, N_AZIMUTH)
    vecs, rows = np.asfortranarray(monomial_vectors(dirs)), np.asfortranarray(quartic_rows(dirs))
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


def _ring_bases(axes):
    """(k, 2, 3) orthonormal rows (e2, e3) spanning the planes orthogonal to
    unit axes (k, 3), e2 = axis x seed / |axis x seed| and e3 = axis x e2."""
    # axis x e_x = (0, a2, -a1), or axis x e_y = (-a2, 0, a0) when the axis
    # is near e_x
    e2 = np.where(np.abs(axes[:, :1]) < 0.9, axes[:, [0, 2, 1]] * [0.0, 1.0, -1.0],
                  axes[:, [2, 1, 0]] * [-1.0, 0.0, 1.0])
    e2 /= np.sqrt((e2 * e2).sum(axis=1))[:, None]
    e3 = axes[:, [1, 2, 0]] * e2[:, [2, 0, 1]] - axes[:, [2, 0, 1]] * e2[:, [1, 2, 0]]
    return np.stack([e2, e3], axis=1)


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
        return {k: v if math.isfinite(v) else None for k, v in vars(self).items()}


def scalar_metrics(theta_d, theta_w, s0, sigma2):
    """Scalar maps from one voxel's tensors, or from a block's.

    MD = tr(D)/3; FA is the normalized eigenvalue dispersion
    sqrt(3/2) ||D - MD I||_F / ||D||_F; MK averages the directional
    kurtosis over the N_POLAR x N_AZIMUTH Gauss-Legendre sphere; K_perp
    averages it over N_RING equally spaced points of the great circle
    orthogonal to the principal eigenvector; SNR = S0/sigma.
    Voxels with non-finite tensors or MD <= 0 are flagged invalid with NaN
    scalars, and so are MK and K_perp where D_app <= 0 at a quadrature node,
    and K_perp where D_app <= 0 on the ring.

    One voxel's (6,) and (15,) tensors and scalar S0 and sigma^2 give its
    :class:`ScalarMetrics`; a block's (k, 6), (k, 15), (k,) and (k,) give a
    list of k, each the maps of its row computed alone.  One voxel is
    computed as a block of one: a stacked ``eigh``, and products with the
    quadrature and ring tables in chunks of
    :data:`~dkimle.estimators.CHUNK_ROWS` rows.
    """
    theta_d = np.asarray(theta_d, dtype=float)
    theta_w = np.asarray(theta_w, dtype=float)
    single = theta_d.ndim == 1
    theta_d, theta_w = theta_d.reshape(-1, 6), theta_w.reshape(-1, 15)
    snr = np.divide(s0, np.sqrt(sigma2), dtype=float).reshape(-1)
    k = len(theta_d)
    md, fa, mk, k_perp = np.full((4, k), np.nan)
    finite = np.isfinite(theta_d).all(axis=1) & np.isfinite(theta_w).all(axis=1)
    md[finite] = (theta_d[finite, 0] + theta_d[finite, 1] + theta_d[finite, 2]) / 3.0
    ok = np.flatnonzero(md > 0)
    valid = np.zeros(k, dtype=bool)
    if ok.size:
        fa[ok], mk[ok], k_perp[ok], valid[ok] = _maps(theta_d[ok], theta_w[ok], md[ok])
    result = [ScalarMetrics(*row) for row in zip(md.tolist(), fa.tolist(), mk.tolist(),
                                                 k_perp.tolist(), snr.tolist(), valid.tolist())]
    return result[0] if single else result


def _frobenius(matrices):
    """Frobenius norms of a (k, 3, 3) stack, each by one BLAS dot product as
    ``np.linalg.norm`` computes the norm of one matrix."""
    flat = matrices.reshape(-1, 9)
    return np.sqrt(np.matmul(flat[:, None, :], flat[:, :, None])[:, 0, 0])


def _maps(theta_d, theta_w, md):
    """FA, MK, K_perp and validity of rows with MD > 0."""
    D = d_matrix(theta_d)
    norm_d = _frobenius(D)
    dev = _frobenius(D - md[:, None, None] * np.eye(3))
    fa = np.divide(np.sqrt(1.5) * dev, norm_d, out=np.zeros_like(dev), where=norm_d > 0)

    # D_app and W_app at the five sample angles of the ring
    _, evecs = np.linalg.eigh(D)
    bases = _ring_bases(evecs[:, :, -1])
    dirs = _RING_CS[:, 0, None] * bases[:, None, 0] + _RING_CS[:, 1, None] * bases[:, None, 1]
    ring_vecs = monomial_vectors(dirs.reshape(-1, 3)).reshape(len(md), 5, 6)
    d_coef = theta_d * PAIR_COUNTS
    d_samples = (ring_vecs * d_coef[:, None]).sum(axis=-1)
    vg = (ring_vecs[..., None] * gram_from_kurtosis(theta_w)[:, None]).sum(axis=-2)
    w_samples = (vg * ring_vecs).sum(axis=-1)  # v^T G v = W_app

    vecs, wts, rows = _quadrature()
    table = _ring_table()
    mk, k_perp = np.empty(len(md)), np.empty(len(md))
    quad_ok, ring_ok = np.empty(len(md), dtype=bool), np.empty(len(md), dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, len(md), CHUNK_ROWS):
            part = slice(start, start + CHUNK_ROWS)
            d_app = _row_product(d_coef[part], vecs.T)
            quad_ok[part] = d_app.min(axis=1) > 0
            k_app = np.divide(md[part, None], d_app, out=d_app)
            k_app *= k_app
            k_app *= _row_product(theta_w[part], rows.T)
            k_app *= wts
            mk[part] = k_app.sum(axis=1)
            d_ring = _row_product(d_samples[part], table)
            ring_ok[part] = d_ring.min(axis=1) > 0
            k_ring = np.divide(md[part, None], d_ring, out=d_ring)
            k_ring *= k_ring
            k_ring *= _row_product(w_samples[part], table)
            k_perp[part] = k_ring.sum(axis=1) / N_RING
    mk[~quad_ok] = np.nan
    k_perp[~(quad_ok & ring_ok)] = np.nan
    return fa, mk, k_perp, quad_ok & ring_ok


def stack_fits(fits):
    """The (k, 6) theta_D, (k, 15) theta_W, (k,) S0 and (k,) sigma^2 of a
    list of fits: :func:`scalar_metrics`'s block arguments."""
    return (np.array([f.theta_d for f in fits]).reshape(-1, 6),
            np.array([f.theta_w for f in fits]).reshape(-1, 15),
            np.array([f.s0 for f in fits]), np.array([f.sigma2 for f in fits]))


def _truth_metrics(truths) -> list:
    """The truths' maps, the tensor truths' in one block."""
    tensor = [gt for gt in truths if gt.kind == "tensor"]
    maps = iter(scalar_metrics(np.array([gt.theta_d for gt in tensor]).reshape(-1, 6),
                               np.array([gt.theta_w for gt in tensor]).reshape(-1, 15),
                               np.array([gt.s0 for gt in tensor]), np.ones(len(tensor))))
    return [replace(next(maps), snr=gt.snr) if gt.kind == "tensor" else
            ScalarMetrics(gt.d_app, 0.0, gt.k_app, gt.k_app, gt.snr) for gt in truths]


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

    estimates = scalar_metrics(*stack_fits(fits))
    for fit, gt, est, ref in zip(fits, truths, estimates, _truth_metrics(truths)):
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

