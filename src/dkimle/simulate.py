"""Synthetic voxel generation.

Two ground-truth families are supported.  Biexponential region presets
give analytic isotropic (D_app, K_app) pairs for six brain tissue types;
full-tensor ground truths draw a random positive definite diffusion
tensor and a random rank-3 PSD Gram matrix, scaled into the kurtosis
range reported for healthy tissue and into strict feasibility for the
protocol.  Noise-free signals are corrupted with Rician noise of
sigma = S0 / SNR.

Everything is deterministic under a fixed seed; voxel streams are derived
from (seed, voxel index) so batches are independent of scheduling.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .estimators import B_INTERNAL_SCALE, VoxelData, _internal_design
from .protocol import AcquisitionProtocol, json_field, quartic_rows
from .rician import sample_magnitude
from .sphere import fibonacci_sphere
from .tensors import kurtosis_from_gram, mean_diffusivity

__all__ = [
    "BiexpParams",
    "ROI_PRESETS",
    "GroundTruthVoxel",
    "biexp_apparent",
    "max_b",
    "simulate_voxel",
    "builtin_gradients",
    "random_tensor_truth",
    "scenario",
    "SCENARIOS",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 1234
# mean kurtosis range of random tensor truths, and the relative distance
# they keep from the decay bound at the protocol's largest b
MEAN_K_RANGE = (0.4, 1.2)
DECAY_MARGIN = 0.05


@dataclass(frozen=True)
class BiexpParams:
    """Two-compartment decay: intra/extra diffusivities and fast fraction.

    Diffusivities in mm^2/s with d_in > d_ex > 0 and f_in in [0, 1].
    """

    d_in: float
    d_ex: float
    f_in: float

    def __post_init__(self):
        if not (self.d_in > self.d_ex > 0):
            raise ValueError(f"need d_in > d_ex > 0, got {self.d_in}, {self.d_ex}")
        if not 0 <= self.f_in <= 1:
            raise ValueError(f"f_in must be in [0, 1], got {self.f_in}")


# mean biexponential parameters of six regions of interest in normal human brain
ROI_PRESETS = {
    "GM/CSF": BiexpParams(1.479e-3, 0.466e-3, 0.490),
    "GM/WM": BiexpParams(1.142e-3, 0.338e-3, 0.622),
    "TH": BiexpParams(1.320e-3, 0.271e-3, 0.617),
    "PU/GP": BiexpParams(1.609e-3, 0.257e-3, 0.648),
    "FWM": BiexpParams(1.155e-3, 0.125e-3, 0.648),
    "ICWM": BiexpParams(1.215e-3, 0.183e-3, 0.637),
}

# optimized 18-direction gradient scheme (electrostatic energy minimum)
_GRADIENTS_18 = np.array([
    [0.737068, -0.568030, 0.366160],
    [0.795763, 0.431108, 0.425331],
    [-0.822530, 0.367692, 0.433874],
    [0.000650, 0.985575, 0.169239],
    [0.228998, 0.150756, 0.961682],
    [-0.412439, -0.753502, 0.511984],
    [-0.358616, 0.232844, 0.903979],
    [-0.891249, -0.417614, 0.176844],
    [0.319924, -0.498679, 0.805586],
    [0.309857, 0.667672, 0.676907],
    [0.579701, -0.807043, -0.112374],
    [-0.209598, -0.358489, 0.909700],
    [0.990653, -0.112342, 0.077367],
    [0.153276, -0.903274, 0.400754],
    [0.530172, 0.845386, 0.065124],
    [-0.282930, 0.716688, 0.637423],
    [0.720077, -0.052737, 0.691887],
    [-0.733882, -0.178601, 0.655377],
])

_SHELLS_6 = (62.0, 249.0, 560.0, 996.0, 1556.0, 2240.0)
_SHELLS_3 = (500.0, 1000.0, 1500.0)


def builtin_gradients() -> np.ndarray:
    """The optimized 18-direction set, renormalized to unit vectors."""
    g = _GRADIENTS_18.copy()
    return g / np.linalg.norm(g, axis=1)[:, None]


def biexp_apparent(p: BiexpParams):
    """Analytic apparent coefficients of the biexponential model.

    D_app = f D_in + (1 - f) D_ex and
    K_app = 3 f (1 - f) (D_in - D_ex)^2 / D_app^2.
    """
    d_app = p.f_in * p.d_in + (1.0 - p.f_in) * p.d_ex
    if d_app == 0:
        raise ValueError("D_app vanished")
    k_app = 3.0 * p.f_in * (1.0 - p.f_in) * (p.d_in - p.d_ex) ** 2 / d_app**2
    return d_app, k_app


def max_b(rois) -> float:
    """Largest b keeping the signal monotone for every ROI.

    The per-ROI bound is 3 / (D_app K_app), from the decay constraint
    K_app <= 3 / (b D_app); a zero-kurtosis ROI contributes no bound.
    Returns +inf if no ROI bounds b.
    """
    best = np.inf
    for p in rois:
        d_app, k_app = biexp_apparent(p)
        if k_app > 0:
            best = min(best, 3.0 / (d_app * k_app))
    return float(best)


@dataclass
class GroundTruthVoxel:
    """Either an isotropic (D_app, K_app) pair or full tensors.

    ``theta_d`` is in mm^2/s; ``theta_w`` is dimensionless; isotropic
    voxels leave the tensors None and carry d_app/k_app instead.
    """

    kind: str  # "isotropic" | "tensor"
    s0: float = 1.0
    sigma: float = 0.0
    snr: float = np.inf
    d_app: float = None
    k_app: float = None
    theta_d: np.ndarray = None
    theta_w: np.ndarray = None
    roi: str = None

    def to_dict(self) -> dict:
        """The fields that are set, tensors as lists; the infinite ``snr`` of
        a noise-free truth, which JSON cannot hold, is left to the default."""
        return {key: value.tolist() if isinstance(value, np.ndarray) else value
                for key, value in vars(self).items()
                if value is not None and not (key == "snr" and value == np.inf)}

    @classmethod
    def from_dict(cls, d: dict) -> "GroundTruthVoxel":
        """Inverse of :meth:`to_dict`.  Raises ValueError on a ``kind``
        other than isotropic or tensor, and unless every number is a finite
        JSON number, with ``d_app``/``k_app`` required of an isotropic voxel
        and 6 and 15 tensor entries of a tensor voxel; TypeError on an
        unknown key."""
        if not isinstance(d, dict):
            raise ValueError("a truth entry must be a JSON object")
        kind = d.get("kind")
        if kind not in ("isotropic", "tensor"):
            raise ValueError(f"kind must be 'isotropic' or 'tensor', got {kind!r}")
        if d.get("snr") == np.inf:  # a noise-free truth's SNR, as older sidecars hold it
            d = {key: value for key, value in d.items() if key != "snr"}
        shapes = {"theta_d": (6,), "theta_w": (15,)}
        required = ("d_app", "k_app") if kind == "isotropic" else tuple(shapes)
        numbers = {key: json_field(d, key, shapes.get(key, ()))
                   for key in ("s0", "sigma", "snr", "d_app", "k_app", *shapes)
                   if key in d or key in required}
        return cls(**{**d, **numbers})


def _log_attenuation(gt: GroundTruthVoxel, protocol: AcquisitionProtocol):
    """The noise-free log S - log S0 as its terms linear and quadratic in b,
    (eta_D, eta_W)."""
    b = protocol.bvals
    if gt.kind == "isotropic":
        # b s/mm^2 times D mm^2/s is dimensionless; no rescale needed
        return -b * gt.d_app, b**2 * gt.d_app**2 * gt.k_app / 6.0
    # linear representation: exponent = Z_D theta_D + Z_W (MD^2 theta_W),
    # exact for any theta_w without factoring the Gram matrix
    design = _internal_design(protocol.bvals.tobytes(), protocol.bvecs.tobytes())
    theta_d_int = gt.theta_d / B_INTERNAL_SCALE
    md = mean_diffusivity(theta_d_int)
    return design.z_d @ theta_d_int, design.z_w @ (md * md * gt.theta_w)


def simulate_voxel(gt: GroundTruthVoxel, protocol: AcquisitionProtocol, s0: float,
                   sigma: float, rng: np.random.Generator) -> VoxelData:
    """Rician-corrupted magnitudes for one voxel.

    A ground truth violating the monotone-decay bound at some acquisition,
    where the b-slope of the log signal, eta_D + 2 eta_W, is positive, is
    still simulated but triggers a warning (the signal is then
    non-monotone in b there).
    """
    eta_d, eta_w = _log_attenuation(gt, protocol)
    if np.any(eta_d + 2.0 * eta_w > 0):
        warnings.warn(
            "ground truth violates the decay bound at some acquisition; "
            "signal is non-monotone in b",
            RuntimeWarning,
            stacklevel=2,
        )
    s = s0 * np.exp(eta_d + eta_w)
    if sigma == 0.0:
        return VoxelData(s.copy())
    return VoxelData(sample_magnitude(s, sigma, rng))


def _random_rotation(rng):
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def random_tensor_truth(rng: np.random.Generator,
                        protocol: AcquisitionProtocol = None) -> GroundTruthVoxel:
    """Random feasible full-tensor ground truth.

    D has eigenvalues uniform in [0.6, 2.95] x 1e-3 mm^2/s at a random
    orientation (mean diffusivity ~1.78e-3, the regime of healthy-brain
    voxel archives); the kurtosis quartic comes from a random rank-3 PSD
    Gram matrix scaled so mean directional kurtosis is uniform in
    ``MEAN_K_RANGE`` and, when a protocol is given, shrunk so K_app stays
    at most (1 - ``DECAY_MARGIN``) times the decay bound 3 / (b_max D_app)
    at every direction of the grid and the protocol.
    """
    evals = rng.uniform(0.6e-3, 2.95e-3, size=3)
    R = _random_rotation(rng)
    D = (R * evals) @ R.T
    theta_d = np.array([D[0, 0], D[1, 1], D[2, 2], D[0, 1], D[0, 2], D[1, 2]])
    md = mean_diffusivity(theta_d)

    Q = rng.normal(size=(6, 3))
    G = Q @ Q.T
    theta_w = kurtosis_from_gram(G)

    dirs = fibonacci_sphere(256)
    if protocol is not None:
        dirs = np.vstack([dirs, protocol.bvecs])
    d_app = np.einsum("ni,ij,nj->n", dirs, D, dirs)
    w_app = quartic_rows(dirs) @ theta_w
    mk = float(np.mean((md / d_app) ** 2 * w_app))
    target = rng.uniform(*MEAN_K_RANGE)
    scale = target / mk if mk > 0 else 0.0
    theta_w = theta_w * scale
    w_app = w_app * scale

    if protocol is not None:
        b_pos = protocol.bvals[protocol.bvals > 0]
        if b_pos.size:
            b_max = float(np.max(b_pos))
            # K_app(g) <= 3 / (b_max D_app(g)) across the direction grid
            k_app = (md / d_app) ** 2 * w_app
            limit = 3.0 / (b_max * d_app)
            ratio = np.max(k_app / limit)
            if ratio > 1.0 - DECAY_MARGIN:
                theta_w = theta_w * (1.0 - DECAY_MARGIN) / ratio

    return GroundTruthVoxel(kind="tensor", theta_d=theta_d, theta_w=theta_w)


def _protocol_shells(shells, directions) -> AcquisitionProtocol:
    bvals = np.repeat(np.asarray(shells, dtype=float), len(directions))
    bvecs = np.tile(directions, (len(shells), 1))
    return AcquisitionProtocol(bvals, bvecs)


def _scenario_dataset1(snr, seed, n_voxels=None):
    if n_voxels is not None and n_voxels != len(ROI_PRESETS):
        raise ValueError(f"dataset1 has {len(ROI_PRESETS)} fixed ROI voxels, "
                         f"got a voxel count of {n_voxels}")
    protocol = _protocol_shells(_SHELLS_6, fibonacci_sphere(30))
    names = list(ROI_PRESETS)
    truths = []
    for name in names:
        d_app, k_app = biexp_apparent(ROI_PRESETS[name])
        truths.append(GroundTruthVoxel(
            kind="isotropic", d_app=d_app, k_app=k_app, roi=name,
            s0=1.0, sigma=1.0 / snr, snr=snr,
        ))
    return protocol, truths


def _tensor_truths(protocol, snrs, seed, stream):
    """Random tensor truths at the given per-voxel SNRs, voxel i drawn from
    the stream (seed, i, stream)."""
    truths = []
    for i, snr in enumerate(snrs):
        gt = random_tensor_truth(np.random.default_rng([seed, i, stream]), protocol)
        gt.s0, gt.sigma, gt.snr = 1.0, 1.0 / snr, snr
        truths.append(gt)
    return truths


def _scenario_dataset2(snr, seed, n_voxels=18):
    protocol = _protocol_shells(_SHELLS_6, fibonacci_sphere(30))
    return protocol, _tensor_truths(protocol, [snr] * n_voxels, seed, 2)


def _scenario_dataset3(snr, seed, n_voxels=180):
    protocol = _protocol_shells(_SHELLS_3, builtin_gradients())
    # SNR ramps over [8, 40], one level per block of 20 voxels
    n_levels = max(1, int(np.ceil(n_voxels / 20)))
    levels = np.linspace(8.0, 40.0, n_levels)
    snrs = [float(levels[min(i // 20, n_levels - 1)]) for i in range(n_voxels)]
    return protocol, _tensor_truths(protocol, snrs, seed, 3)


SCENARIOS = {
    "dataset1": _scenario_dataset1,
    "dataset2": _scenario_dataset2,
    "dataset3": _scenario_dataset3,
}


def scenario(name: str, snr: float = 15.0, seed: int = DEFAULT_SEED, n_voxels: int = None):
    """Build a named scenario: (protocol, magnitudes, ground truths).

    ``dataset1``: six isotropic ROI voxels, six shells x 30 directions;
    any other ``n_voxels`` is a ValueError.
    ``dataset2``: full-tensor voxels (default 18), same protocol.
    ``dataset3``: full-tensor voxels (default 180), three shells x the
    builtin 18 directions, SNR ramping 8..40 every 20 voxels (the per-
    voxel ``snr`` overrides the ``snr`` argument).

    Magnitude rows are simulated with per-voxel RNG streams derived from
    (seed, voxel index) and are independent of iteration order.
    """
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}; pick one of {sorted(SCENARIOS)}")
    if not snr > 0:
        raise ValueError(f"SNR must be positive, got {snr}")
    if n_voxels is not None and n_voxels < 1:
        raise ValueError(f"the voxel count must be at least 1, got {n_voxels}")
    kwargs = {} if n_voxels is None else {"n_voxels": n_voxels}
    protocol, truths = SCENARIOS[name](snr, seed, **kwargs)
    rows = []
    for i, gt in enumerate(truths):
        rng = np.random.default_rng([seed, i])
        rows.append(simulate_voxel(gt, protocol, gt.s0, gt.sigma, rng).y)
    return protocol, np.asarray(rows), truths
