"""Per-voxel fitting: one driver and the steps of the WLS, CWLS and EM
maximum-likelihood (Rician noise) estimators.

:func:`fit_voxel` runs the log-linear weighted least squares fit
(:func:`wls_fit`), which is the WLS estimate; for the other two it maps
that fit to a strictly feasible start (:func:`init_params`) and calls
the estimator's step function.  :func:`cwls_fit` minimizes the weighted
log residuals under the positivity and monotone-decay constraints.
:func:`em_mle_fit` treats the latent signal phase as missing data: the
E-step computes the conditional expectation of cos(phase) through the
Bessel ratio, and closed-form M-steps update the amplitude and noise
level.  Both solve one constrained problem in the stacked tensors
(L; theta_Q) (:func:`tensor_problem` on the :class:`ExponentModel`) by
barrier Fisher scoring; only the loss differs.

The steps work in whatever b-units the design matrices were built with.
The driver rescales an s/mm^2 protocol to ms/um^2 (which keeps the
quartic design well conditioned), flags constraint violations and
converts the results back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import barrier
from .barrier import BarrierProblem
from .protocol import AcquisitionProtocol, DesignMatrices, build_design, quartic_rows
from .rician import AugmentedState, bessel_ratio, joint_loglik
from .sphere import fibonacci_sphere
from .tensors import (
    ExponentModel,
    ModelParams,
    _qform,
    cholesky_of_d,
    d_matrix,
    factor_kurtosis,
    gram_from_kurtosis,
    mean_diffusivity,
    q_from_gram,
)

__all__ = [
    "RankDeficient",
    "DegenerateVoxel",
    "VoxelData",
    "WlsFit",
    "FitOptions",
    "ConstraintFlags",
    "FitResult",
    "wls_fit",
    "init_params",
    "em_estep",
    "em_mstep_s0",
    "em_mstep_sigma2",
    "ExponentModel",
    "RicianSurrogate",
    "LogResidual",
    "tensor_problem",
    "em_mle_fit",
    "cwls_fit",
    "fit_voxel",
    "violation_flags",
    "B_INTERNAL_SCALE",
]

# protocols in s/mm^2 are rescaled by this before fitting, putting b in
# ms/um^2 and diffusivities in um^2/ms so every block is O(1)
B_INTERNAL_SCALE = 1e-3

_N_PARAMS = 22  # log S0 + 6 diffusion + 15 kurtosis

# the EM inner loop iterates the closed-form S0 and sigma^2 updates until
# both move by less than TOL_INNER (relative), at most MAX_INNER_EM times
TOL_INNER = 1e-6
MAX_INNER_EM = 100
# TOL_OUTER is relative on the EM surrogate; 1e-3 reproduces the
# few-sweep convergence regime the estimator is designed for, while
# 1e-6 roughly doubles the sweep count for little parameter movement
TOL_OUTER = 1e-3
# the kurtosis-sign check samples this many Fibonacci directions, and a
# violation must exceed FLAG_TOL to be flagged
N_CHECK_DIRS = 1000
FLAG_TOL = 1e-8
# init_params keeps every decay bound this relative margin from binding
INIT_MARGIN = 1e-3


class RankDeficient(ValueError):
    """The log-linear design cannot identify the 22 model parameters."""


class DegenerateVoxel(ValueError):
    """All model signals vanished; the amplitude update is undefined."""


@dataclass
class VoxelData:
    """Magnitude measurements of one voxel."""

    y: np.ndarray

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        if np.any(self.y < 0) or not np.all(np.isfinite(self.y)):
            raise ValueError("magnitudes must be finite and non-negative")

    @property
    def zero_mask(self) -> np.ndarray:
        """The samples discretized to exactly zero by the scanner; they are
        excluded from log regressions and scored with the degenerate
        Gaussian density in the likelihood."""
        return self.y == 0.0

    @property
    def m(self) -> int:
        return self.y.size


@dataclass
class WlsFit:
    """Raw output of the log-linear regression (unconstrained)."""

    log_s0: float
    theta_d: np.ndarray
    theta_w_scaled: np.ndarray  # MD^2-scaled kurtosis coefficients, as regressed
    sigma2: float
    underdetermined: bool = False

    @property
    def s0(self) -> float:
        return float(np.exp(self.log_s0))

    def theta_w(self) -> np.ndarray:
        """Dimensionless kurtosis elements, theta_w_scaled / MD^2."""
        md = mean_diffusivity(self.theta_d)
        if md <= 0:
            return np.zeros(15)
        return self.theta_w_scaled / (md * md)


@dataclass
class ConstraintFlags:
    d_not_pd: bool = False        # constraint 1: D positive definite
    kurtosis_negative: bool = False  # constraint 2: K_app >= 0
    decay_bound: bool = False     # constraint 3: K_app <= 3 / (b D_app)


@dataclass
class FitOptions:
    """The settings the driver passes to the step functions: the sweep
    budget of EM-MLE and the score tolerance of the CWLS and EM-MLE tensor
    solves (``dkimle fit --max-sweeps/--grad-tol``; CWLS always takes two)."""

    max_sweeps: int = 50
    grad_tol: float = barrier.GRAD_TOL


@dataclass
class FitResult:
    """Fitted parameters plus diagnostics for one voxel.

    ``converged``: the stopping rule fired, the tensor solve behind the
    returned parameters met its tolerance and the protocol is not b0-only.
    """

    estimator: str
    theta_d: np.ndarray
    theta_w: np.ndarray
    s0: float
    sigma2: float
    params: ModelParams = None
    loglik_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    em_iterations: int = 0
    converged: bool = True
    violations: ConstraintFlags = field(default_factory=ConstraintFlags)
    wall_time: float = 0.0

    @property
    def snr(self) -> float:
        return float(self.s0 / np.sqrt(self.sigma2))


# ---------------------------------------------------------------------------
# weighted least squares

def _weighted_solve(X, root_w, y) -> np.ndarray:
    """Coefficients of the log-linear regressions of y on X with weights
    root_w^2, for one voxel (rows,) or a stack of them (k, rows).

    R of the weighted [X | log y] holds R of the weighted X and Q^T of the
    weighted log y in its first 22 rows (R has only 22 rows when 22 rows
    are used); on a triangular matrix, solve's LU pivots nowhere and
    reduces to the back-substitution.  A stack runs LAPACK once per voxel,
    so each voxel's coefficients are those of its own solve, bit for bit.
    """
    a = np.concatenate([X * root_w[..., None], (np.log(y) * root_w)[..., None]], axis=-1)
    r = np.linalg.qr(a, mode="r")
    return np.linalg.solve(r[..., :_N_PARAMS, :_N_PARAMS], r[..., :_N_PARAMS, _N_PARAMS:])[..., 0]


def wls_fit(data: VoxelData, design: DesignMatrices, beta: np.ndarray = None) -> WlsFit:
    """Log-linear weighted least squares fit of the kurtosis model.

    Regresses log Y on [1 | Z_D | Z_W]; the kurtosis coefficients absorb
    the MD^2 scale.  The weights are w_j = Y_j^2.  The usual Y_j^2 / S0^2
    differs from them by a common factor, which cancels from the weighted
    solution, so no unweighted first pass is needed; they are taken as
    (Y_j / max Y)^2 to keep them in range.  The weighted problem is solved
    by one Householder QR and a back-substitution.  Rows of zero weight
    (zero magnitudes, and magnitudes whose weight underflows to zero) are
    excluded; the noise level is estimated from the signal-space
    residuals.  ``beta`` is the regression's solution when a block solve
    (:func:`fit_voxel`) has already computed it for a voxel whose every row
    is used.

    Raises
    ------
    RankDeficient
        If fewer than 22 usable rows remain or the design on them does not
        have full column rank (``np.linalg.matrix_rank``), except in the
        all-b=0 case which returns the flagged degenerate solution
        (log S0 = mean log Y, zero tensors).
    """
    if data.m != design.m:
        raise ValueError(f"data has {data.m} rows but design has {design.m}")
    y_max = data.y.max()
    if y_max == 0:
        raise RankDeficient("every magnitude is zero")
    root_w = data.y / y_max  # square roots of the weights
    use = root_w * root_w > 0
    y, root_w = data.y[use], root_w[use]

    if np.all(design.b[use] == 0):
        # only the amplitude is identifiable; flag and return it
        log_s0 = float(np.mean(np.log(y)))
        resid = y - np.exp(log_s0)
        sigma2 = float(np.sum(resid**2) / max(y.size - 1, 1))
        return WlsFit(log_s0, np.zeros(6), np.zeros(15), max(sigma2, 1e-30), True)

    if y.size < _N_PARAMS:
        raise RankDeficient(f"{y.size} usable rows < {_N_PARAMS} parameters")
    if use.all():
        X, rank = design.regression, design.regression_rank
    else:
        X = design.regression[use]
        rank = np.linalg.matrix_rank(X)
    if rank < _N_PARAMS:
        raise RankDeficient("design matrix does not have full column rank")
    if beta is None:
        beta = _weighted_solve(X, root_w, y)

    fitted = np.exp(X @ beta)
    dof = max(y.size - _N_PARAMS, 1)
    sigma2 = float(np.sum((y - fitted) ** 2) / dof)
    return WlsFit(float(beta[0]), beta[1:7], beta[7:], max(sigma2, 1e-30))


# ---------------------------------------------------------------------------
# the signal exponent and the tensor subproblem

class RicianSurrogate:
    """The EM objective times sigma^2 as a function of the exponent,
    sum_j 1/2 S0^2 e^{2 eta_j} - tau_j S0 e^{eta_j}, tau_j = Y_j <cos phi_j>
    (sigma^2 is fixed during a tensor update; the factor keeps the score
    tolerance meaningful at any noise level).  Its curvature has no
    theta_D(L) second-derivative term: expected information in L.
    """

    curvature_in_l = False

    def __init__(self, s0, tau):
        self.s0 = s0
        self.tau = np.asarray(tau, dtype=float)
        # the constant factors, as the formulas group them left to right
        self.half_s0_sq, self.s0_sq, self.two_s0_sq = 0.5 * s0**2, s0**2, 2.0 * s0**2
        self.tau_s0 = self.tau * s0

    def value(self, eta_d, eta_q):
        e = np.exp(eta_d + eta_q)
        return float((self.half_s0_sq * (e * e) - self.tau_s0 * e).sum())

    def derivatives(self, eta_d, eta_q):
        """First and second derivatives of each row's term in eta_j."""
        e = np.exp(eta_d + eta_q)
        e2, tau_s0_e = e * e, self.tau_s0 * e
        return self.s0_sq * e2 - tau_s0_e, self.two_s0_sq * e2 - tau_s0_e


class LogResidual:
    """Weighted log residuals 1/2 sum_j w_j r_j^2, r_j = log Y_j - log S0 - eta_j,
    on the given rows (the others get zero weight), with exact curvature."""

    curvature_in_l = True

    def __init__(self, log_s0, w, log_y, rows, m):
        self.log_s0 = log_s0
        self.w = np.zeros(m)
        self.w[rows] = w
        self.log_y = np.zeros(m)
        self.log_y[rows] = log_y
        self.unused = ~(self.w > 0)

    def residual(self, eta_d, eta_q):
        r = self.log_y - self.log_s0
        r -= eta_d
        r -= eta_q
        r[self.unused] = 0.0
        return r

    def value(self, eta_d, eta_q):
        r = self.residual(eta_d, eta_q)
        wr = self.w * r
        wr *= r
        return float(0.5 * wr.sum())

    def derivatives(self, eta_d, eta_q):
        wr = self.w * self.residual(eta_d, eta_q)
        return np.negative(wr, out=wr), self.w


def tensor_problem(model: ExponentModel, loss) -> BarrierProblem:
    """The decay-constrained problem of a loss in theta = (L; theta_Q).

    With d1, d2 the loss's derivatives in eta, the information is
    sum_j d2_j grad eta_j grad eta_j^T + sum_j d1_j Hess eta_j (its L block
    only if the loss asks for it) + the constraint curvature.

    The exponent and constraints at the last theta asked for are kept, with
    the loss derivatives and both Jacobians once they are needed, so every
    callable at one point shares one evaluation (the solver takes the
    constraints and objective at a trial, and the constraint gradients,
    gradient and information at the trial it accepted).  The constraints'
    second-order coefficient along a step s is g(s), since g is a
    homogeneous quadratic in theta.
    """
    memo = {}  # bytes of the last theta -> [evaluation, derivatives, jacobians]

    def at(theta, derivatives=False):
        key = theta.tobytes()
        point = memo.get(key)
        if point is None:
            memo.clear()
            point = memo[key] = [model.evaluate(theta)]
        if derivatives and len(point) == 1:
            eta_d, eta_q, _, u = point[0]
            point += [loss.derivatives(eta_d, eta_q), model.jacobians(theta[:6], u)]
        return point

    def objective(theta):
        eta_d, eta_q, _, _ = at(theta)[0]
        return loss.value(eta_d, eta_q)

    def gradient(theta):
        _, (d1, _), (U, _) = at(theta, derivatives=True)
        return U.T @ d1

    def information(theta, lam):
        _, (d1, d2), (U, _) = at(theta, derivatives=True)
        H = (U.T * d2) @ U + model.curvature(d1, loss.curvature_in_l)
        if lam.size:
            H += model.constraint_curvature(lam)
        return H

    def constraints(theta):
        return at(theta)[0][2]

    def constraint_gradients(theta):
        return at(theta, derivatives=True)[2][1]

    return BarrierProblem(24, model.n_constraints, objective, gradient, information,
                          constraints, constraint_gradients, model.constraints)


def _solve(problem, theta0, grad_tol):
    """:func:`barrier.solve`, returning the best iterate of a collapsed solve."""
    try:
        return barrier.solve(problem, theta0, grad_tol)
    except barrier.NonConvergence as exc:
        return exc.theta, exc.diagnostics


# ---------------------------------------------------------------------------
# EM building blocks

def em_estep(params: ModelParams, y, att) -> AugmentedState:
    """Conditional expectations <cos phi_j> at the current parameters.

    Each entry is the Bessel ratio at Y_j S0 zeta_j psi_j / sigma^2, with
    the attenuation pair att = (zeta, psi) = (exp(eta_D), exp(eta_Q));
    zero magnitudes give exactly zero (the augmentation degenerates).
    """
    zeta, psi = att
    kappa = np.asarray(y, dtype=float) * params.s0 * zeta * psi / params.sigma2
    cos = bessel_ratio(kappa)
    # float rounding can reach 1.0 at extreme SNR; keep the open interval
    return AugmentedState(np.minimum(cos, np.nextafter(1.0, 0.0)))


def em_mstep_s0(state: AugmentedState, y, att) -> float:
    """Closed-form amplitude update S0 = sum tau zeta psi / sum zeta^2 psi^2,
    from the attenuation pair att = (zeta, psi)."""
    zeta, psi = att
    tau = np.asarray(y, dtype=float) * state.cos_phi
    denom = float(np.sum(zeta**2 * psi**2))
    if denom <= 0.0 or not np.isfinite(denom):
        raise DegenerateVoxel("sum of squared model attenuations vanished")
    return float(np.sum(tau * zeta * psi) / denom)


def em_mstep_sigma2(state: AugmentedState, params: ModelParams, y, att) -> float:
    """Noise update sigma^2 = sum {Y^2 + S0^2 z^2 p^2 - 2 S0 tau z p} / (2 (m-1)),
    from the attenuation pair att = (z, p).

    A non-positive result (possible at pathological phase expectations)
    is clamped to 1e-12.
    """
    y = np.asarray(y, dtype=float)
    zeta, psi = att
    tau = y * state.cos_phi
    zp = zeta * psi
    m = y.size
    total = float(np.sum(y * y + params.s0**2 * zp**2 - 2.0 * params.s0 * tau * zp))
    out = total / (2.0 * (m - 1))
    return out if out > 0 else 1e-12


def update_tensors(params: ModelParams, state: AugmentedState, y, model: ExponentModel,
                   grad_tol: float = barrier.GRAD_TOL):
    """Constrained Fisher-scoring update of (L, theta_Q) on the EM objective.

    Returns (L, theta_Q, converged): a solve that stops short of its score
    tolerance returns its best iterate and False.
    """
    tau = np.asarray(y, dtype=float) * state.cos_phi
    problem = tensor_problem(model, RicianSurrogate(params.s0, tau))
    theta, diag = _solve(problem, np.concatenate([params.L, params.theta_q]), grad_tol)
    return theta[:6], theta[6:], diag.converged


# ---------------------------------------------------------------------------
# initialization

def init_params(wls: WlsFit, model: ExponentModel) -> ModelParams:
    """Strictly feasible starting point from an unconstrained WLS fit.

    Eigenvalues of D below 1e-6 of the largest are raised to that floor,
    preserving the well-determined curvature directions.  The kurtosis
    coefficients are mapped to a Gram matrix (free entries zero), clamped
    to its best PSD rank-3 approximation and factored; if any decay bound
    is then violated the kurtosis block is shrunk by the largest factor
    restoring strict feasibility with the margin ``INIT_MARGIN``.
    """
    D = d_matrix(wls.theta_d)
    vals, vecs = np.linalg.eigh(D)
    scale = max(float(np.max(np.abs(vals))), 1e-12)
    floor = 1e-6 * scale
    vals = np.clip(vals, floor, None)
    D = (vecs * vals) @ vecs.T
    theta_d = np.array([D[0, 0], D[1, 1], D[2, 2], D[0, 1], D[0, 2], D[1, 2]])
    L = cholesky_of_d(theta_d)
    md = mean_diffusivity(theta_d)

    theta_w = wls.theta_w_scaled / (md * md)
    G = gram_from_kurtosis(theta_w)
    theta_q = q_from_gram(G, md)
    # the truncated eigenfactor can distort the quartic by O(10%); polish
    # it so representable kurtosis forms are reproduced exactly
    Q, _ = factor_kurtosis(theta_w, theta_q.reshape(3, 6).T / md)
    theta_q = md * Q.T.reshape(18)

    # the decay constraints g_j = q_j + (3/b_j^2) Z_Dj theta_D, b_j > 0
    q_part, _ = _qform(theta_q, model.v_c)
    g = q_part + model.three_over_b2 * (model.design.z_d[model.decay] @ theta_d)
    bound = q_part - g  # the positive 3 D_app / b term
    if np.any(q_part > (1.0 - INIT_MARGIN) * bound):
        with np.errstate(divide="ignore"):
            ratio = np.where(q_part > 0, (1.0 - INIT_MARGIN) * bound / q_part, np.inf)
        theta_q = theta_q * float(np.sqrt(np.clip(np.min(ratio), 0.0, 1.0)))

    return ModelParams(L, theta_q, max(wls.s0, 1e-30), max(wls.sigma2, 1e-30))


# ---------------------------------------------------------------------------
# violation flags

# Stacked products x @ table take CHUNK_ROWS rows at a time, and every
# chunk, of the maps and of the violation flags, is padded with copies of
# its last row to a multiple of ROW_ALIGN rows.  BLAS then runs gemm on it
# (a one-row product would go to gemv, which rounds differently), and a
# row's product does not depend on the chunk's size or on the row's place
# in it, with the SkylakeX kernels and with the Haswell kernels, whose gemm
# rounds the rows of a chunk of uneven size differently.
CHUNK_ROWS = 32
ROW_ALIGN = 8


def _row_product(x: np.ndarray, table: np.ndarray) -> np.ndarray:
    """x @ table for a chunk x of rows, by gemm on x padded to a multiple of
    ROW_ALIGN rows."""
    n = len(x)
    if n % ROW_ALIGN:
        x = x[np.minimum(np.arange(-(-n // ROW_ALIGN) * ROW_ALIGN), n - 1)]
    return (x @ table)[:n]


@lru_cache(maxsize=8)
def _flag_table(design: DesignMatrices) -> np.ndarray:
    """The C-contiguous, read-only (21, N_CHECK_DIRS + 2 m + 1) table of
    :func:`violation_flags`: [-check rows | 2/9 Z_W | 0 | 0]^T over the rows
    of theta_W, and [0 | 0 | Z_D | (1, 1, 1, 0, 0, 0)]^T over those of
    theta_D, whose last column gives tr(D); the check rows are the quartic
    rows of the kurtosis-sign check directions."""
    m = design.m
    table = np.zeros((21, N_CHECK_DIRS + 2 * m + 1))
    table[:15, :N_CHECK_DIRS] = -quartic_rows(fibonacci_sphere(N_CHECK_DIRS)).T
    table[:15, N_CHECK_DIRS:N_CHECK_DIRS + m] = (2.0 / 9.0) * design.z_w.T
    table[15:, N_CHECK_DIRS + m:-1] = design.z_d.T
    table[15:18, -1] = 1.0
    table.setflags(write=False)
    return table


_FLAG_SEGMENTS = np.array([0, N_CHECK_DIRS])  # the two column ranges of the flags


def violation_flags(theta_d, theta_w, design: DesignMatrices):
    """Constraint violation flags for raw (possibly unconstrained) tensors.

    Checked exactly as reported in evaluations: the minimum eigenvalue of
    D, the sign of the directional kurtosis form over a quasi-uniform
    direction set, and the monotone-decay bound as the sign of the log
    signal's b-slope at each acquisition (see :class:`ExponentModel`).

    One voxel's (6,) and (15,) tensors give its :class:`ConstraintFlags`; a
    block's (k, 6) and (k, 15) give a list of k, each the flags of its row
    checked alone.  One voxel is checked as a block of one: a stacked
    ``eigvalsh`` and chunked products with the check rows and the design.
    The flags of a tensor with a non-finite entry mean nothing.
    """
    theta_d = np.asarray(theta_d, dtype=float)
    theta_w = np.asarray(theta_w, dtype=float)
    single = theta_d.ndim == 1
    theta_d, theta_w = theta_d.reshape(-1, 6), theta_w.reshape(-1, 15)
    d_not_pd = np.linalg.eigvalsh(d_matrix(theta_d))[:, 0] <= 0.0
    x = np.concatenate([theta_w, theta_d], axis=1)
    table, end = _flag_table(design), N_CHECK_DIRS + design.m
    flags = []
    for start in range(0, len(x), CHUNK_ROWS):
        # [-W_app at the check directions | the b-slope of log S at each
        # acquisition, eta_D + 2 eta_W = tr(D)^2 2/9 Z_W theta_W + Z_D theta_D],
        # flagged where an entry exceeds FLAG_TOL (b = 0 rows give exactly 0)
        p = _row_product(x[start:start + CHUNK_ROWS], table)
        slope = p[:, N_CHECK_DIRS:end]
        slope *= np.square(p[:, -1:])
        slope += p[:, end:-1]
        flags += (np.maximum.reduceat(p[:, :end], _FLAG_SEGMENTS, axis=1) > FLAG_TOL).tolist()
    result = [ConstraintFlags(d, *rest) for d, rest in zip(d_not_pd.tolist(), flags)]
    return result[0] if single else result


# ---------------------------------------------------------------------------
# the estimators' own steps

def em_mle_fit(data: VoxelData, params: ModelParams, model: ExponentModel,
               options: FitOptions):
    """The EM-MLE steps of one voxel, from the start ``params``.

    An E-step; then sweeps of { closed-form amplitude/noise updates, each
    followed by an E-step, to their joint fixed point; the constrained
    update of (L, theta_Q) (:func:`update_tensors`); an E-step and the
    surrogate evaluation } until the surrogate change falls below
    tolerance.  The exponent, from ``model``, and its attenuation pair
    are computed once per tensor change and each E-step once per parameter
    change, so none is evaluated twice at the same parameters; the E-step
    and M-steps take the attenuations, the surrogate the exponent.  A
    sweep that would decrease the surrogate is undone and ends the fit, so
    the recorded trace is non-decreasing.

    Returns (params, reported sigma^2, surrogate trace, sweeps, converged).
    """
    y = data.y
    eta = model.exponent(params.L, params.theta_q)
    att = np.exp(eta[0]), np.exp(eta[1])

    trace = []
    stopped = solved = False
    sweeps = 0
    state = em_estep(params, y, att)
    for sweeps in range(1, options.max_sweeps + 1):
        checkpoint, checkpoint_solved = params.copy(), solved

        for _ in range(MAX_INNER_EM):
            s0_new = em_mstep_s0(state, y, att)
            rel_s0 = abs(s0_new - params.s0) / max(abs(params.s0), 1e-30)
            params.s0 = max(s0_new, 1e-30)
            sig_new = em_mstep_sigma2(state, params, y, att)
            rel_sig = abs(sig_new - params.sigma2) / max(params.sigma2, 1e-30)
            params.sigma2 = sig_new
            state = em_estep(params, y, att)
            if max(rel_s0, rel_sig) < TOL_INNER:
                break

        params.L, params.theta_q, solved = update_tensors(params, state, y, model,
                                                          options.grad_tol)
        eta = model.exponent(params.L, params.theta_q)
        att = np.exp(eta[0]), np.exp(eta[1])

        state = em_estep(params, y, att)
        ll = joint_loglik(y, params.s0 * np.exp(eta[0] + eta[1]), params.sigma2, state)

        if trace and ll < trace[-1] - 1e-9:
            # non-improving sweep: keep the previous iterate and stop
            params, solved, stopped = checkpoint, checkpoint_solved, True
            break
        trace.append(ll)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < TOL_OUTER * (1.0 + abs(trace[-1])):
            stopped = True
            break

    # the recursion divides by 2(m-1), which ignores the 22 fitted mean
    # parameters and inflates the apparent SNR at small m; report the WLS
    # degrees-of-freedom convention (params.sigma2 keeps the fixed point)
    sigma2_report = params.sigma2 * (data.m - 1) / max(data.m - _N_PARAMS, 1)
    return params, sigma2_report, trace, sweeps, stopped and solved


def cwls_fit(data: VoxelData, params: ModelParams, model: ExponentModel,
             options: FitOptions):
    """The CWLS steps of one voxel, from the start ``params``.

    Minimizes the weighted log residuals (:class:`LogResidual`,
    w_j = Y_j^2/S0^2, zero magnitudes excluded) over (L, theta_Q) under
    the decay constraints, with S0 and sigma^2 held at their start
    values.  The loss is fixed, so the fit is two constrained
    Fisher-scoring solves, the second started from the first's result
    with a fresh barrier parameter.  The second finishes first solves that
    end at their inner-iteration cap (on dataset3 seed 0 that is 1 voxel of
    180, whose f it lowers by 3e-4 relative); on the others it moves f by
    at most 6e-11 relative.  The solve with the lower f is returned, the
    second on a tie.

    Returns (params, sigma^2, [-f after each solve], 2, the returned
    solve's converged flag).
    """
    s0 = params.s0
    rows = (~data.zero_mask).nonzero()[0]
    loss = LogResidual(float(np.log(s0)), data.y[rows] ** 2 / (s0 * s0),
                       np.log(data.y[rows]), rows, data.m)
    problem = tensor_problem(model, loss)

    theta = np.concatenate([params.L, params.theta_q])
    trace, solves = [], []
    for _ in range(2):
        theta, diag = _solve(problem, theta, options.grad_tol)
        trace.append(-problem.objective(theta))
        solves.append((theta, diag.converged))
    theta, converged = solves[int(trace[1] >= trace[0])]
    params.L, params.theta_q = theta[:6], theta[6:]
    return params, params.sigma2, trace, 2, converged


# ---------------------------------------------------------------------------
# the driver

@lru_cache(maxsize=8)
def _internal_design(bvals: bytes, bvecs: bytes) -> DesignMatrices:
    """Read-only design of the protocol with these b-values and gradients,
    in internal b-units; keyed on values, since callers rebuild equal
    protocols for every voxel."""
    protocol = AcquisitionProtocol(np.frombuffer(bvals), np.frombuffer(bvecs).reshape(-1, 3))
    design = build_design(protocol.rescaled(B_INTERNAL_SCALE))
    for array in (design.z_d, design.z_w, design.v, design.b):
        array.setflags(write=False)
    return design


def _block_solve(block: np.ndarray, design: DesignMatrices) -> list:
    """The WLS coefficients of the rows of a block that use every
    acquisition, by one stacked :func:`_weighted_solve`.

    Returns one entry per row: its coefficients, or None.  Rows with a
    zero, subnormal or invalid magnitude, and every row of a design that
    :func:`wls_fit` treats apart (b0-only or rank-deficient), get None and
    are solved by the per-voxel fit.
    """
    betas = [None] * len(block)
    if block.shape[1] != design.m or design.regression_rank < _N_PARAMS or not design.b.any():
        return betas
    clean = np.flatnonzero(np.all(np.isfinite(block) & (block > 0), axis=1))
    y = block[clean]
    root_w = y / y.max(axis=1, keepdims=True)
    full = np.all(root_w * root_w > 0, axis=1)
    for i, beta in zip(clean[full], _weighted_solve(design.regression, root_w[full], y[full])):
        betas[i] = beta
    return betas


def _fit_row(y, design: DesignMatrices, estimator: str, options: FitOptions,
             beta: np.ndarray = None) -> FitResult:
    """The fit of one voxel by :func:`fit_voxel`, from its WLS solution
    ``beta`` when a block solve computed it.  Its ``theta_d`` is still in
    internal units and its violations are not yet checked."""
    start = time.perf_counter()
    data = y if isinstance(y, VoxelData) else VoxelData(np.asarray(y, dtype=float))
    wls = wls_fit(data, design, beta)
    if estimator == "wls" or wls.underdetermined:
        params, theta_d, theta_w, s0 = None, wls.theta_d, wls.theta_w(), wls.s0
        sigma2, trace, sweeps, converged = wls.sigma2, [], 0, not wls.underdetermined
    else:
        step = cwls_fit if estimator == "cwls" else em_mle_fit
        model = ExponentModel(design)
        params, sigma2, trace, sweeps, converged = step(
            data, init_params(wls, model), model, options or FitOptions())
        theta_d, theta_w, s0 = params.theta_d, params.theta_w, params.s0

    return FitResult(estimator, theta_d, theta_w, s0, sigma2, params=params,
                     loglik_trace=np.asarray(trace, dtype=float), em_iterations=sweeps,
                     converged=converged, wall_time=time.perf_counter() - start)


def _check_fits(fits: list, design: DesignMatrices) -> None:
    """Flag the violations of a block's fits in one :func:`violation_flags`
    pass, convert their diffusion blocks to mm^2/s and add an equal share
    of the pass to each wall time."""
    start = time.perf_counter()
    flags = violation_flags(np.array([r.theta_d for r in fits]),
                            np.array([r.theta_w for r in fits]), design)
    share = (time.perf_counter() - start) / len(fits)
    for result, checked in zip(fits, flags):
        result.violations = checked
        result.theta_d = result.theta_d * B_INTERNAL_SCALE
        result.wall_time += share


def fit_voxel(y, protocol: AcquisitionProtocol, estimator: str = "mle",
              options: FitOptions = None) -> FitResult | list:
    """Fit one voxel, or a block of voxels, from a protocol in s/mm^2
    units; the one driver of the ``wls``, ``cwls`` and ``mle`` estimators.

    Rescales b by 1e-3 internally (so the quartic design is O(1)) and runs
    :func:`wls_fit`.  That fit is the result for ``wls``, and for every
    estimator on a b0-only protocol, which identifies S0 alone (flagged
    not converged).  Otherwise one :class:`ExponentModel` of the design
    serves :func:`init_params`, which turns the fit into a feasible start,
    and the estimator's step function, :func:`cwls_fit` or :func:`em_mle_fit`.
    The violation flags are checked in the internal units, and the
    diffusion block is converted back to mm^2/s.

    A 1-D ``y`` (or a :class:`VoxelData`) returns its :class:`FitResult`,
    or raises.  A (k, m) block returns a list with one entry per row: its
    :class:`FitResult`, or the ``ValueError`` its fit raised.  The block's
    rows that use every acquisition are solved by one stacked WLS QR
    (:func:`_block_solve`), and the fitted rows are flagged by one
    :func:`violation_flags` pass.  A row's ``wall_time`` is its own steps
    plus an equal share of each stacked pass it took part in, so a block's
    wall times sum to its fitting time.  Every result equals that of the
    row fitted alone, bit for bit, apart from ``wall_time``.
    """
    if estimator not in ("wls", "cwls", "mle"):
        raise ValueError(f"unknown estimator {estimator!r}")
    design = _internal_design(protocol.bvals.tobytes(), protocol.bvecs.tobytes())
    if isinstance(y, VoxelData) or np.ndim(y) == 1:
        result = _fit_row(y, design, estimator, options)
        _check_fits([result], design)
        return result
    block = np.asarray(y, dtype=float)
    if block.ndim != 2:
        raise ValueError(f"expected one voxel (m,) or a block (k, m), got shape {block.shape}")

    start = time.perf_counter()
    betas = _block_solve(block, design)
    share = (time.perf_counter() - start) / max(sum(b is not None for b in betas), 1)
    results = []
    for row, beta in zip(block, betas):
        try:
            result = _fit_row(row, design, estimator, options, beta)
        except ValueError as exc:
            results.append(exc)
            continue
        if beta is not None:
            result.wall_time += share
        results.append(result)
    fits = [r for r in results if isinstance(r, FitResult)]
    if fits:
        _check_fits(fits, design)
    return results
