"""Diffusion kurtosis estimation under Rician noise.

A per-voxel toolkit: acquisition protocols and design matrices,
positivity-preserving tensor parametrizations, a stable Rician/Bessel
kernel, a barrier-method Fisher-scoring solver, WLS / constrained-WLS /
EM maximum-likelihood estimators, a synthetic data simulator, scalar
diffusion maps and an evaluation harness.
"""

from .barrier import (
    BarrierProblem,
    Infeasible,
    NonConvergence,
    fisher_step,
    regularize,
    solve,
)
from .estimators import (
    B_INTERNAL_SCALE,
    ConstraintFlags,
    DegenerateVoxel,
    FitOptions,
    FitResult,
    RankDeficient,
    VoxelData,
    WlsFit,
    cwls_fit,
    em_estep,
    em_mle_fit,
    em_mstep_s0,
    em_mstep_sigma2,
    fit_voxel,
    init_params,
    violation_flags,
    wls_fit,
)
from .metrics import EvalReport, ScalarMetrics, evaluate, scalar_metrics
from .protocol import (
    AcquisitionProtocol,
    DesignMatrices,
    build_design,
    dump_protocol,
    load_protocol,
)
from .rician import (
    AugmentedState,
    bessel_ratio,
    joint_loglik,
    rician_logpdf,
    sample_magnitude,
    vonmises_expected_cos,
)
from .simulate import (
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
from .sphere import fibonacci_sphere, gauss_legendre_sphere
from .tensors import (
    ModelParams,
    NotPositiveDefinite,
    apparent_coefficients,
    cholesky_of_d,
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

__version__ = "0.1.0"
