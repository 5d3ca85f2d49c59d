"""The three per-voxel fitting pipelines: WLS, CWLS, and EM maximum
likelihood under Rician noise.

WLS is a log-linear weighted least squares fit of the kurtosis signal
model and provides starting values for everything else.  CWLS minimizes
the same weighted log residuals under the positivity and monotone-decay
constraints.  The EM estimator treats the latent signal phase as missing
data: the E-step computes the conditional expectation of cos(phase)
through the Bessel ratio, closed-form M-steps update the amplitude and
noise level, and the tensor blocks are refreshed by constrained Fisher
scoring.  Both constrained pipelines update the stacked (L; theta_Q)
vector jointly, with the per-block solvers (:func:`update_L`,
:func:`update_thetaQ`) kept as the fallback; the separate blocks couple
so strongly on few-shell protocols that pure alternation crawls.

All routines are unit-agnostic: they work in whatever b-units the design
matrices were built with.  :func:`fit_voxel` is the convenience driver
that rescales an s/mm^2 protocol to ms/um^2 internally (which keeps the
quartic design well conditioned) and converts the results back.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import barrier
from .barrier import BarrierProblem, SolverOptions
from .protocol import AcquisitionProtocol, DesignMatrices, build_design, quartic_rows
from .rician import AugmentedState, bessel_ratio, joint_loglik
from .sphere import fibonacci_sphere
from .tensors import (
    ModelParams,
    cholesky_of_d,
    d_matrix,
    factor_kurtosis,
    gram_from_kurtosis,
    jacobian_l,
    mean_diffusivity,
    q_from_gram,
    second_derivative_contraction,
    theta_d_from_l,
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
    "update_L",
    "update_thetaQ",
    "em_mle_fit",
    "cwls_fit",
    "fit_voxel",
    "mle_objective_l",
    "mle_gradient_l",
    "mle_objective_q",
    "mle_gradient_q",
    "cwls_objective",
    "cwls_gradient_l",
    "cwls_hessian_l",
    "cwls_gradient_q",
    "cwls_hessian_q",
    "constraint_values",
    "violation_flags",
    "B_INTERNAL_SCALE",
]

# protocols in s/mm^2 are rescaled by this before fitting, putting b in
# ms/um^2 and diffusivities in um^2/ms so every block is O(1)
B_INTERNAL_SCALE = 1e-3

_N_PARAMS = 22  # log S0 + 6 diffusion + 15 kurtosis


class RankDeficient(ValueError):
    """The log-linear design cannot identify the 22 model parameters."""


class DegenerateVoxel(ValueError):
    """All model signals vanished; the amplitude update is undefined."""


@dataclass
class VoxelData:
    """Magnitude measurements of one voxel.

    ``zero_mask`` marks samples discretized to exactly zero by the
    scanner; they are excluded from log regressions and scored with the
    degenerate Gaussian density in the likelihood.
    """

    y: np.ndarray
    zero_mask: np.ndarray = None

    def __post_init__(self):
        self.y = np.asarray(self.y, dtype=float).reshape(-1)
        if np.any(self.y < 0) or not np.all(np.isfinite(self.y)):
            raise ValueError("magnitudes must be finite and non-negative")
        if self.zero_mask is None:
            self.zero_mask = self.y == 0.0
        else:
            self.zero_mask = np.asarray(self.zero_mask, dtype=bool).reshape(-1)
            if self.zero_mask.shape != self.y.shape:
                raise ValueError("zero_mask length must match y")

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

    def any(self) -> bool:
        return self.d_not_pd or self.kurtosis_negative or self.decay_bound


@dataclass
class FitOptions:
    # tol_outer is relative on the EM surrogate; 1e-3 reproduces the
    # few-sweep convergence regime the estimator is designed for, while
    # 1e-6 roughly doubles the sweep count for little parameter movement
    weight_mode: str = "y2_s0"
    tol_inner: float = 1e-6
    tol_outer: float = 1e-3
    max_sweeps: int = 50
    max_inner_em: int = 100
    solver: SolverOptions = field(default_factory=SolverOptions)
    n_check_dirs: int = 1000


@dataclass
class FitResult:
    """Converged parameters plus diagnostics for one voxel."""

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
    b_scale: float = 1.0

    @property
    def snr(self) -> float:
        return float(self.s0 / np.sqrt(self.sigma2))


# ---------------------------------------------------------------------------
# weighted least squares

def wls_fit(data: VoxelData, design: DesignMatrices, weight_mode: str = "y2_s0") -> WlsFit:
    """Log-linear (weighted) least squares fit of the kurtosis model.

    Regresses log Y on [1 | Z_D | Z_W]; the kurtosis coefficients absorb
    the MD^2 scale.  Weight modes: ``uniform`` (plain least squares),
    ``y2`` (w_j = Y_j^2) and ``y2_s0`` (w_j = Y_j^2 / S0^2 with S0 from a
    first uniform pass).  Zero magnitudes are excluded from the
    regression; the noise level is estimated from the signal-space
    residuals.

    Raises
    ------
    RankDeficient
        If fewer than 22 usable rows remain or the design does not have
        full column rank, except in the all-b=0 case which returns the
        flagged degenerate solution (log S0 = mean log Y, zero tensors).
    """
    if data.m != design.m:
        raise ValueError(f"data has {data.m} rows but design has {design.m}")
    use = ~data.zero_mask
    if not np.any(use):
        raise RankDeficient("every magnitude is zero")
    y = data.y[use]
    logy = np.log(y)

    if np.all(design.b[use] == 0):
        # only the amplitude is identifiable; flag and return it
        log_s0 = float(np.mean(logy))
        resid = y - np.exp(log_s0)
        sigma2 = float(np.sum(resid**2) / max(y.size - 1, 1))
        return WlsFit(log_s0, np.zeros(6), np.zeros(15), max(sigma2, 1e-30), True)

    X = np.column_stack([np.ones(int(np.sum(use))), design.z_d[use], design.z_w[use]])
    if y.size < _N_PARAMS:
        raise RankDeficient(f"{y.size} usable rows < {_N_PARAMS} parameters")
    if np.linalg.matrix_rank(X) < _N_PARAMS:
        raise RankDeficient("design matrix does not have full column rank")

    if weight_mode == "uniform":
        w = np.ones_like(y)
    elif weight_mode == "y2":
        w = y * y
    elif weight_mode == "y2_s0":
        beta0, *_ = np.linalg.lstsq(X, logy, rcond=None)
        s0_first = np.exp(beta0[0])
        w = y * y / (s0_first * s0_first)
    else:
        raise ValueError(f"unknown weight mode {weight_mode!r}")

    sw = np.sqrt(w)
    beta, *_ = np.linalg.lstsq(X * sw[:, None], logy * sw, rcond=None)

    fitted = np.exp(X @ beta)
    dof = max(y.size - _N_PARAMS, 1)
    sigma2 = float(np.sum((y - fitted) ** 2) / dof)
    return WlsFit(float(beta[0]), beta[1:7], beta[7:], max(sigma2, 1e-30))


# ---------------------------------------------------------------------------
# shared precomputations

def _qform(theta_q, v):
    """sum_i <v_j, q-block_i>^2 per row; equals (6/b^2) theta_Q^T P_j theta_Q."""
    u = v @ np.asarray(theta_q, dtype=float).reshape(3, 6).T  # (m, 3)
    return np.einsum("mi,mi->m", u, u), u


def constraint_values(theta_d, theta_q, design: DesignMatrices):
    """g_j = (6/b^2) theta_Q^T P_j theta_Q + (3/b^2) Z_Dj theta_D for b > 0 rows.

    Returns (g, mask) where mask selects the b > 0 acquisitions;
    g <= 0 is the directional monotone-decay constraint
    K_app <= 3 / (b D_app).
    """
    mask = design.b > 0
    q, _ = _qform(theta_q, design.v[mask])
    g = q + (3.0 / design.b[mask] ** 2) * (design.z_d[mask] @ np.asarray(theta_d))
    return g, mask


def _signal_factors(theta_d, theta_q, design):
    """zeta = exp(Z_D theta_D) and psi = exp(theta_Q^T P theta_Q) per row."""
    zeta = np.exp(design.z_d @ theta_d)
    q, u = _qform(theta_q, design.v)
    psi = np.exp(design.b**2 / 6.0 * q)
    return zeta, psi, u


# ---------------------------------------------------------------------------
# EM building blocks

def em_estep(params: ModelParams, y, design: DesignMatrices) -> AugmentedState:
    """Conditional expectations <cos phi_j> at the current parameters.

    Each entry is the Bessel ratio at Y_j S0 zeta_j psi_j / sigma^2;
    zero magnitudes give exactly zero (the augmentation degenerates).
    """
    zeta, psi, _ = _signal_factors(theta_d_from_l(params.L), params.theta_q, design)
    kappa = np.asarray(y, dtype=float) * params.s0 * zeta * psi / params.sigma2
    cos = bessel_ratio(kappa)
    # float rounding can reach 1.0 at extreme SNR; keep the open interval
    return AugmentedState(np.minimum(cos, np.nextafter(1.0, 0.0)))


def em_mstep_s0(state: AugmentedState, params: ModelParams, y, design) -> float:
    """Closed-form amplitude update S0 = sum tau zeta psi / sum zeta^2 psi^2."""
    zeta, psi, _ = _signal_factors(theta_d_from_l(params.L), params.theta_q, design)
    tau = np.asarray(y, dtype=float) * state.cos_phi
    denom = float(np.sum(zeta**2 * psi**2))
    if denom <= 0.0 or not np.isfinite(denom):
        raise DegenerateVoxel("sum of squared model attenuations vanished")
    return float(np.sum(tau * zeta * psi) / denom)


def em_mstep_sigma2(state: AugmentedState, params: ModelParams, y, design) -> float:
    """Noise update sigma^2 = sum {Y^2 + S0^2 z^2 p^2 - 2 S0 tau z p} / (2 (m-1)).

    A non-positive result (possible at pathological phase expectations)
    is clamped to 1e-12.
    """
    y = np.asarray(y, dtype=float)
    zeta, psi, _ = _signal_factors(theta_d_from_l(params.L), params.theta_q, design)
    tau = y * state.cos_phi
    zp = zeta * psi
    m = y.size
    total = float(np.sum(y * y + params.s0**2 * zp**2 - 2.0 * params.s0 * tau * zp))
    out = total / (2.0 * (m - 1))
    return out if out > 0 else 1e-12


# ---------------------------------------------------------------------------
# objective / gradient / curvature, "as printed" (with the 1/sigma^2 factor)

def mle_objective_l(L, theta_q, s0, sigma2, tau, design):
    """EM objective as a function of L (kurtosis block fixed)."""
    zeta, psi, _ = _signal_factors(theta_d_from_l(L), theta_q, design)
    return float(np.sum(s0**2 * zeta**2 * psi**2 - 2.0 * tau * s0 * zeta * psi) / (2.0 * sigma2))


def mle_gradient_l(L, theta_q, s0, sigma2, tau, design):
    """Gradient of :func:`mle_objective_l`: J_L^T Z_D^T weights / sigma^2."""
    zeta, psi, _ = _signal_factors(theta_d_from_l(L), theta_q, design)
    w = (s0**2 * zeta**2 * psi**2 - s0 * tau * zeta * psi) / sigma2
    return jacobian_l(L).T @ (design.z_d.T @ w)


def mle_objective_q(theta_q, L, s0, sigma2, tau, design):
    """EM objective as a function of theta_Q (diffusion block fixed)."""
    return mle_objective_l(L, theta_q, s0, sigma2, tau, design)


def mle_gradient_q(theta_q, L, s0, sigma2, tau, design):
    """Gradient of the EM objective in theta_Q: 2 sum weights P_j theta_Q / sigma^2."""
    zeta, psi, u = _signal_factors(theta_d_from_l(L), theta_q, design)
    w = 2.0 * (s0**2 * zeta**2 * psi**2 - s0 * tau * zeta * psi) / sigma2
    c = design.b**2 / 6.0
    a = (u[:, :, None] * design.v[:, None, :]).reshape(design.m, 18)  # kron(u_j, v_j)
    return a.T @ (w * c)


def cwls_objective(L, theta_q, log_s0, w, log_y, design, rows):
    """Constrained-WLS objective 1/2 sum w_j r_j^2 on the selected rows."""
    theta_d = theta_d_from_l(L)
    q, _ = _qform(theta_q, design.v[rows])
    r = log_y - log_s0 - design.z_d[rows] @ theta_d - design.b[rows] ** 2 / 6.0 * q
    return float(0.5 * np.sum(w * r * r))


def _cwls_residual(L, theta_q, log_s0, log_y, design, rows):
    theta_d = theta_d_from_l(L)
    q, u = _qform(theta_q, design.v[rows])
    r = log_y - log_s0 - design.z_d[rows] @ theta_d - design.b[rows] ** 2 / 6.0 * q
    return r, u


def cwls_gradient_l(L, theta_q, log_s0, w, log_y, design, rows):
    r, _ = _cwls_residual(L, theta_q, log_s0, log_y, design, rows)
    return -jacobian_l(L).T @ (design.z_d[rows].T @ (w * r))


def cwls_hessian_l(L, theta_q, log_s0, w, log_y, design, rows):
    """Exact Hessian of the CWLS objective in L (no constraint terms).

    Gauss-Newton part plus the residual-weighted second derivative of
    theta_D(L); the latter is linear in its design row, so the sum
    collapses into one pattern evaluation.
    """
    r, _ = _cwls_residual(L, theta_q, log_s0, log_y, design, rows)
    J = jacobian_l(L)
    zd = design.z_d[rows]
    gn = J.T @ (zd.T * w) @ zd @ J
    return gn + second_derivative_contraction(-(w * r) @ zd)


def cwls_gradient_q(L, theta_q, log_s0, w, log_y, design, rows):
    r, u = _cwls_residual(L, theta_q, log_s0, log_y, design, rows)
    c = design.b[rows] ** 2 / 6.0
    a = (u[:, :, None] * design.v[rows][:, None, :]).reshape(len(r), 18)
    return -2.0 * a.T @ (w * r * c)


def cwls_hessian_q(L, theta_q, log_s0, w, log_y, design, rows):
    """Exact Hessian of the CWLS objective in theta_Q (no constraint terms)."""
    r, u = _cwls_residual(L, theta_q, log_s0, log_y, design, rows)
    v = design.v[rows]
    c = design.b[rows] ** 2 / 6.0
    a = c[:, None] * (u[:, :, None] * v[:, None, :]).reshape(len(r), 18)
    gn = 4.0 * (a.T * w) @ a
    inner = (v.T * (-2.0 * w * r * c)) @ v
    return gn + np.kron(np.eye(3), inner)


# ---------------------------------------------------------------------------
# constrained subproblem construction
#
# Internally the subproblems minimize sigma^2 * f, which has the same
# minimizer (sigma^2 is fixed during a tensor update) but keeps the score
# tolerance meaningful at any noise level.

def _l_problem(theta_q, s0, tau, design) -> BarrierProblem:
    v = design.v
    zd = design.z_d
    b2 = design.b**2
    mask = design.b > 0
    q_all, _ = _qform(theta_q, v)
    psi = np.exp(b2 / 6.0 * q_all)
    zc = (3.0 / b2[mask, None]) * zd[mask]  # constraint rows: g = q + zc theta_D
    q_c = q_all[mask]

    def objective(L):
        zeta = np.exp(zd @ theta_d_from_l(L))
        return float(np.sum(0.5 * s0**2 * zeta**2 * psi**2 - tau * s0 * zeta * psi))

    def gradient(L):
        zeta = np.exp(zd @ theta_d_from_l(L))
        w = s0**2 * zeta**2 * psi**2 - s0 * tau * zeta * psi
        return jacobian_l(L).T @ (zd.T @ w)

    def information(L, lam):
        zeta = np.exp(zd @ theta_d_from_l(L))
        phi = 2.0 * s0**2 * zeta**2 * psi**2 - s0 * tau * zeta * psi
        J = jacobian_l(L)
        fisher = J.T @ (zd.T * phi) @ zd @ J
        if lam.size:
            fisher = fisher + second_derivative_contraction(lam @ zc)
        return fisher

    def constraints(L):
        return q_c + zc @ theta_d_from_l(L)

    def constraint_gradients(L):
        return zc @ jacobian_l(L)

    return BarrierProblem(
        dim=6,
        n_constraints=int(np.sum(mask)),
        objective=objective,
        gradient=gradient,
        information=information,
        constraints=constraints,
        constraint_gradients=constraint_gradients,
    )


def _q_problem(L, s0, tau, design) -> BarrierProblem:
    v = design.v
    b2 = design.b**2
    c = b2 / 6.0
    mask = design.b > 0
    theta_d = theta_d_from_l(L)
    zeta = np.exp(design.z_d @ theta_d)
    v_c = v[mask]
    # positive decay bounds 3 D_app / b per constrained acquisition
    bound = -(3.0 / b2[mask]) * (design.z_d[mask] @ theta_d)
    eye3 = np.eye(3)

    def _parts(theta_q):
        q, u = _qform(theta_q, v)
        psi = np.exp(c * q)
        return q, u, psi

    def objective(theta_q):
        _, _, psi = _parts(theta_q)
        return float(np.sum(0.5 * s0**2 * zeta**2 * psi**2 - tau * s0 * zeta * psi))

    def gradient(theta_q):
        _, u, psi = _parts(theta_q)
        w = 2.0 * (s0**2 * zeta**2 * psi**2 - s0 * tau * zeta * psi) * c
        a = (u[:, :, None] * v[:, None, :]).reshape(design.m, 18)
        return a.T @ w

    def information(theta_q, lam):
        _, u, psi = _parts(theta_q)
        zp = zeta * psi
        w_outer = (8.0 * s0**2 * zp**2 - 4.0 * s0 * tau * zp) * c * c
        w_p = (2.0 * s0**2 * zp**2 - 2.0 * s0 * tau * zp) * c
        a = (u[:, :, None] * v[:, None, :]).reshape(design.m, 18)
        H = (a.T * w_outer) @ a + np.kron(eye3, (v.T * w_p) @ v)
        if lam.size:
            H = H + 2.0 * np.kron(eye3, (v_c.T * lam) @ v_c)
        return H

    def constraints(theta_q):
        q, _ = _qform(theta_q, v_c)
        return q - bound

    def constraint_gradients(theta_q):
        u = v_c @ np.asarray(theta_q).reshape(3, 6).T
        return 2.0 * (u[:, :, None] * v_c[:, None, :]).reshape(v_c.shape[0], 18)

    return BarrierProblem(
        dim=18,
        n_constraints=int(np.sum(mask)),
        objective=objective,
        gradient=gradient,
        information=information,
        constraints=constraints,
        constraint_gradients=constraint_gradients,
    )


def update_L(params: ModelParams, state: AugmentedState, y, design, options: SolverOptions = None):
    """Constrained Fisher-scoring update of the Cholesky block.

    Minimizes the EM objective over L with the decay-bound constraints,
    using the expected-information form (the Gauss-Newton sandwich plus
    the multiplier-weighted constraint curvatures).  Returns the new L
    and the solver diagnostics; on step collapse the best iterate found
    is returned with ``converged = False``.
    """
    tau = np.asarray(y, dtype=float) * state.cos_phi
    problem = _l_problem(params.theta_q, params.s0, tau, design)
    try:
        L_new, diag = barrier.solve(problem, params.L, options)
    except barrier.NonConvergence as exc:
        L_new, diag = exc.theta, exc.diagnostics
    return L_new, diag


def update_thetaQ(params: ModelParams, state: AugmentedState, y, design, options: SolverOptions = None):
    """Constrained Fisher-scoring update of the kurtosis block.

    Same scheme as :func:`update_L` but with the empirical (observed)
    information of the quartic block.
    """
    tau = np.asarray(y, dtype=float) * state.cos_phi
    problem = _q_problem(params.L, params.s0, tau, design)
    try:
        q_new, diag = barrier.solve(problem, params.theta_q, options)
    except barrier.NonConvergence as exc:
        q_new, diag = exc.theta, exc.diagnostics
    return q_new, diag


def _joint_mle_problem(s0, tau, design) -> BarrierProblem:
    """Constrained update of the stacked tensor vector (L; theta_Q).

    The signal exponent eta_j = Z_Dj theta_D(L) + theta_Q^T P_j theta_Q
    gives the objective sum_j 1/2 S0^2 e^{2 eta} - tau S0 e^{eta}, whose
    information combines the per-block forms (the expected form for L,
    the observed form for theta_Q) with their Gauss-Newton cross
    coupling; separate block updates converge an order of magnitude
    slower because the b and b^2 regressors are nearly collinear on
    few-shell protocols.
    """
    v = design.v
    zd = design.z_d
    b2 = design.b**2
    c = b2 / 6.0
    m = design.m
    mask = design.b > 0
    v_c = v[mask]
    zc = (3.0 / b2[mask, None]) * zd[mask]
    eye3 = np.eye(3)

    def _parts(theta):
        L, q = theta[:6], theta[6:]
        qf, u = _qform(q, v)
        eta = zd @ theta_d_from_l(L) + c * qf
        return L, q, u, np.exp(eta)

    def objective(theta):
        _, _, _, e = _parts(theta)
        return float(np.sum(0.5 * s0**2 * e**2 - tau * s0 * e))

    def _sens(L, u):
        # per-row sensitivities d eta / d (L; q), an (m, 24) matrix
        out = np.empty((m, 24))
        out[:, :6] = zd @ jacobian_l(L)
        out[:, 6:] = 2.0 * c[:, None] * (u[:, :, None] * v[:, None, :]).reshape(m, 18)
        return out

    def gradient(theta):
        L, _, u, e = _parts(theta)
        h1 = s0**2 * e**2 - tau * s0 * e
        return _sens(L, u).T @ h1

    def information(theta, lam):
        L, _, u, e = _parts(theta)
        h1 = s0**2 * e**2 - tau * s0 * e
        h2 = 2.0 * s0**2 * e**2 - tau * s0 * e
        U = _sens(L, u)
        H = (U.T * h2) @ U
        # the quartic block keeps its observed-information curvature term
        H[6:, 6:] += np.kron(eye3, (v.T * (2.0 * h1 * c)) @ v)
        if lam.size:
            H[:6, :6] += second_derivative_contraction(lam @ zc)
            H[6:, 6:] += 2.0 * np.kron(eye3, (v_c.T * lam) @ v_c)
        return H

    def constraints(theta):
        qf, _ = _qform(theta[6:], v_c)
        return qf + zc @ theta_d_from_l(theta[:6])

    def constraint_gradients(theta):
        A = np.empty((v_c.shape[0], 24))
        A[:, :6] = zc @ jacobian_l(theta[:6])
        u = v_c @ theta[6:].reshape(3, 6).T
        A[:, 6:] = 2.0 * (u[:, :, None] * v_c[:, None, :]).reshape(v_c.shape[0], 18)
        return A

    return BarrierProblem(
        dim=24,
        n_constraints=int(np.sum(mask)),
        objective=objective,
        gradient=gradient,
        information=information,
        constraints=constraints,
        constraint_gradients=constraint_gradients,
    )


def update_tensors(params: ModelParams, state: AugmentedState, y, design,
                   options: SolverOptions = None):
    """Joint constrained Fisher-scoring update of (L, theta_Q).

    Falls back to the sequential block updates if the joint solve
    collapses.  Returns (L, theta_Q, converged flag).
    """
    tau = np.asarray(y, dtype=float) * state.cos_phi
    theta_q = params.theta_q
    # rounding can leave an iterate marginally outside the cone; the
    # kurtosis block scales it back in (zero is always interior for PD D)
    for _ in range(60):
        g, _ = constraint_values(theta_d_from_l(params.L), theta_q, design)
        if g.size == 0 or np.all(g < 0):
            break
        theta_q = 0.9 * theta_q
    theta0 = np.concatenate([params.L, theta_q])
    problem = _joint_mle_problem(params.s0, tau, design)
    try:
        theta, diag = barrier.solve(problem, theta0, options)
        return theta[:6], theta[6:], diag.converged
    except barrier.NonConvergence:
        L_new, _ = update_L(params, state, y, design, options)
        trial = params.copy()
        trial.L = L_new
        trial.theta_q = theta_q
        q_new, _ = update_thetaQ(trial, state, y, design, options)
        return L_new, q_new, False


# ---------------------------------------------------------------------------
# initialization

def init_params(wls: WlsFit, design: DesignMatrices, margin: float = 1e-3) -> ModelParams:
    """Strictly feasible starting point from an unconstrained WLS fit.

    Eigenvalues of D below 1e-6 of the largest are raised to that floor,
    preserving the well-determined curvature directions.  The kurtosis
    coefficients are mapped to a Gram matrix (free entries zero), clamped
    to its best PSD rank-3 approximation and factored; if any decay bound
    is then violated the kurtosis block is shrunk by the largest factor
    restoring strict feasibility with the given margin.
    """
    D = d_matrix(wls.theta_d)
    vals, vecs = np.linalg.eigh(D)
    scale = max(float(vals[-1]), float(np.max(np.abs(vals))), 1e-12)
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

    g, mask = constraint_values(theta_d, theta_q, design)
    if g.size:
        q_part, _ = _qform(theta_q, design.v[mask])
        bound = q_part - g  # the positive 3 D_app / b term
        tight = q_part > (1.0 - margin) * bound
        if np.any(tight):
            with np.errstate(divide="ignore"):
                ratio = np.where(q_part > 0, (1.0 - margin) * bound / q_part, np.inf)
            shrink = float(np.sqrt(np.clip(np.min(ratio), 0.0, 1.0)))
            theta_q = theta_q * shrink

    return ModelParams(L, theta_q, max(wls.s0, 1e-30), max(wls.sigma2, 1e-30))


# ---------------------------------------------------------------------------
# violation flags

@lru_cache(maxsize=8)
def _check_rows(n_dirs: int) -> np.ndarray:
    """Quartic rows of the kurtosis-sign check directions (read-only)."""
    rows = quartic_rows(fibonacci_sphere(n_dirs))
    rows.setflags(write=False)
    return rows


def violation_flags(theta_d, theta_w, design: DesignMatrices, n_dirs: int = 1000, tol: float = 1e-8) -> ConstraintFlags:
    """Constraint violation flags for raw (possibly unconstrained) tensors.

    Checked exactly as reported in evaluations: the minimum eigenvalue of
    D, the sign of the directional kurtosis form over a quasi-uniform
    direction set, and the per-acquisition monotone-decay bound.
    """
    theta_d = np.asarray(theta_d, dtype=float)
    theta_w = np.asarray(theta_w, dtype=float)
    flags = ConstraintFlags()
    flags.d_not_pd = bool(np.linalg.eigvalsh(d_matrix(theta_d))[0] <= 0.0)
    w_app = _check_rows(int(n_dirs)) @ theta_w
    flags.kurtosis_negative = bool(np.min(w_app) < -tol)
    mask = design.b > 0
    if np.any(mask):
        md = mean_diffusivity(theta_d)
        # MD^2 W_app(g_j) <= 3 D_app / b_j  per weighted acquisition
        w_rows = design.z_w[mask] / (design.b[mask, None] ** 2 / 6.0)
        lhs = md * md * (w_rows @ theta_w)
        rhs = -(3.0 / design.b[mask] ** 2) * (design.z_d[mask] @ theta_d)
        flags.decay_bound = bool(np.any(lhs - rhs > tol))
    return flags


# ---------------------------------------------------------------------------
# full pipelines

def em_mle_fit(data: VoxelData, design: DesignMatrices, options: FitOptions = None) -> FitResult:
    """EM maximum-likelihood fit of one voxel.

    Pipeline: WLS initialization; then sweeps of { E-step and closed-form
    amplitude/noise updates to their joint fixed point; constrained
    update of L; constrained update of theta_Q; surrogate evaluation }
    until the surrogate change falls below tolerance.  Sweeps that would
    decrease the surrogate are rejected and the previous iterate kept, so
    the recorded trace is non-decreasing.
    """
    opts = options or FitOptions()
    start = time.perf_counter()
    y = data.y

    wls = wls_fit(data, design, opts.weight_mode)
    params = init_params(wls, design)

    trace = []
    converged = False
    sweeps = 0
    for sweep in range(1, opts.max_sweeps + 1):
        sweeps = sweep
        checkpoint = params.copy()

        for _ in range(opts.max_inner_em):
            state = em_estep(params, y, design)
            s0_new = em_mstep_s0(state, params, y, design)
            rel_s0 = abs(s0_new - params.s0) / max(abs(params.s0), 1e-30)
            params.s0 = max(s0_new, 1e-30)
            sig_new = em_mstep_sigma2(state, params, y, design)
            rel_sig = abs(sig_new - params.sigma2) / max(params.sigma2, 1e-30)
            params.sigma2 = sig_new
            if max(rel_s0, rel_sig) < opts.tol_inner:
                break

        state = em_estep(params, y, design)
        params.L, params.theta_q, _ = update_tensors(params, state, y, design, opts.solver)

        state = em_estep(params, y, design)
        ll = joint_loglik(params, y, design, state)

        if trace and ll < trace[-1] - 1e-9:
            # non-improving sweep: keep the previous iterate and stop
            params = checkpoint
            converged = True
            break
        trace.append(ll)
        if len(trace) >= 2 and abs(trace[-1] - trace[-2]) < opts.tol_outer * (1.0 + abs(trace[-1])):
            converged = True
            break

    theta_d = params.theta_d
    theta_w = params.theta_w
    # reported noise level: the recursion divides the residual form by
    # 2(m-1), which ignores the 22 fitted mean parameters and inflates
    # the apparent SNR at small m; rescale to the same degrees-of-freedom
    # convention the WLS estimate uses (params.sigma2 keeps the raw
    # fixed point)
    m = data.m
    sigma2_report = params.sigma2 * (m - 1) / max(m - _N_PARAMS, 1)
    return FitResult(
        estimator="mle",
        theta_d=theta_d,
        theta_w=theta_w,
        s0=params.s0,
        sigma2=sigma2_report,
        params=params,
        loglik_trace=np.asarray(trace),
        em_iterations=sweeps,
        converged=converged,
        violations=violation_flags(theta_d, theta_w, design, opts.n_check_dirs),
        wall_time=time.perf_counter() - start,
    )


def cwls_fit(data: VoxelData, design: DesignMatrices, options: FitOptions = None) -> FitResult:
    """Constrained weighted least squares fit of one voxel.

    Minimizes the weighted log-residual objective with w_j = Y_j^2/S0^2
    and S0, sigma^2 held at their WLS values, alternating the same two
    constrained Fisher-scoring subproblems with the exact objective
    Hessians.  Zero magnitudes are excluded; the decay constraints apply
    to every weighted acquisition.
    """
    opts = options or FitOptions()
    start = time.perf_counter()

    wls = wls_fit(data, design, opts.weight_mode)
    params = init_params(wls, design)
    s0 = params.s0
    log_s0 = float(np.log(s0))

    rows = (~data.zero_mask).nonzero()[0]
    log_y = np.log(data.y[rows])
    w = data.y[rows] ** 2 / (s0 * s0)

    mask = design.b > 0
    v = design.v
    v_c = v[mask]
    c = design.b**2 / 6.0
    zc = (3.0 / design.b[mask, None] ** 2) * design.z_d[mask]
    eye3 = np.eye(3)
    m = design.m
    w_full = np.zeros(m)
    w_full[rows] = w
    log_y_full = np.zeros(m)
    log_y_full[rows] = log_y

    def _sens(L, u):
        out = np.empty((m, 24))
        out[:, :6] = design.z_d @ jacobian_l(L)
        out[:, 6:] = 2.0 * c[:, None] * (u[:, :, None] * v[:, None, :]).reshape(m, 18)
        return out

    def _resid(theta):
        L, q = theta[:6], theta[6:]
        qf, u = _qform(q, v)
        r = log_y_full - log_s0 - design.z_d @ theta_d_from_l(L) - c * qf
        return L, u, np.where(w_full > 0, r, 0.0)

    def objective(theta):
        _, _, r = _resid(theta)
        return float(0.5 * np.sum(w_full * r * r))

    def gradient(theta):
        L, u, r = _resid(theta)
        return -_sens(L, u).T @ (w_full * r)

    def information(theta, lam):
        L, u, r = _resid(theta)
        U = _sens(L, u)
        H = (U.T * w_full) @ U
        wr = w_full * r
        H[:6, :6] += second_derivative_contraction(-wr @ design.z_d)
        H[6:, 6:] += np.kron(eye3, (v.T * (-2.0 * wr * c)) @ v)
        if lam.size:
            H[:6, :6] += second_derivative_contraction(lam @ zc)
            H[6:, 6:] += 2.0 * np.kron(eye3, (v_c.T * lam) @ v_c)
        return H

    def constraints(theta):
        qf, _ = _qform(theta[6:], v_c)
        return qf + zc @ theta_d_from_l(theta[:6])

    def constraint_gradients(theta):
        A = np.empty((v_c.shape[0], 24))
        A[:, :6] = zc @ jacobian_l(theta[:6])
        u = v_c @ theta[6:].reshape(3, 6).T
        A[:, 6:] = 2.0 * (u[:, :, None] * v_c[:, None, :]).reshape(v_c.shape[0], 18)
        return A

    problem = BarrierProblem(
        dim=24,
        n_constraints=int(np.sum(mask)),
        objective=objective,
        gradient=gradient,
        information=information,
        constraints=constraints,
        constraint_gradients=constraint_gradients,
    )

    trace = []
    converged = False
    sweeps = 0
    for sweep in range(1, opts.max_sweeps + 1):
        sweeps = sweep
        checkpoint = params.copy()
        theta0 = np.concatenate([params.L, params.theta_q])
        try:
            theta, diag = barrier.solve(problem, theta0, opts.solver)
            solved = diag.converged
        except barrier.NonConvergence as exc:
            theta, solved = exc.theta, False
        params.L, params.theta_q = theta[:6], theta[6:]

        obj = objective(theta)
        if trace and -obj < trace[-1] - 1e-12:
            params = checkpoint
            converged = True
            break
        trace.append(-obj)
        delta = float(np.max(np.abs(theta - np.concatenate([checkpoint.L, checkpoint.theta_q]))))
        if solved and delta < 1e-8 * (1.0 + float(np.max(np.abs(theta)))):
            converged = True
            break
        if sweep >= 2 and delta < 1e-8 * (1.0 + float(np.max(np.abs(theta)))):
            converged = True
            break

    theta_d = params.theta_d
    theta_w = params.theta_w
    return FitResult(
        estimator="cwls",
        theta_d=theta_d,
        theta_w=theta_w,
        s0=s0,
        sigma2=params.sigma2,
        params=params,
        loglik_trace=np.asarray(trace),
        em_iterations=sweeps,
        converged=converged,
        violations=violation_flags(theta_d, theta_w, design, opts.n_check_dirs),
        wall_time=time.perf_counter() - start,
    )


def _wls_as_result(data, design, opts, start) -> FitResult:
    wls = wls_fit(data, design, opts.weight_mode)
    theta_w = wls.theta_w()
    return FitResult(
        estimator="wls",
        theta_d=wls.theta_d,
        theta_w=theta_w,
        s0=wls.s0,
        sigma2=wls.sigma2,
        params=None,
        loglik_trace=np.zeros(0),
        em_iterations=0,
        converged=not wls.underdetermined,
        violations=violation_flags(wls.theta_d, theta_w, design, opts.n_check_dirs),
        wall_time=time.perf_counter() - start,
    )


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


def fit_voxel(y, protocol: AcquisitionProtocol, estimator: str = "mle",
              options: FitOptions = None) -> FitResult:
    """Fit one voxel from a protocol in s/mm^2 units.

    Rescales b by 1e-3 internally (so the quartic design is O(1)),
    dispatches to the requested estimator and converts the diffusion
    block back to mm^2/s.  ``estimator`` is one of ``wls``, ``cwls``,
    ``mle``.
    """
    opts = options or FitOptions()
    start = time.perf_counter()
    data = y if isinstance(y, VoxelData) else VoxelData(np.asarray(y, dtype=float))
    design = _internal_design(protocol.bvals.tobytes(), protocol.bvecs.tobytes())

    if estimator == "wls":
        result = _wls_as_result(data, design, opts, start)
    elif estimator == "cwls":
        result = cwls_fit(data, design, opts)
    elif estimator == "mle":
        result = em_mle_fit(data, design, opts)
    else:
        raise ValueError(f"unknown estimator {estimator!r}")

    result.theta_d = result.theta_d * B_INTERNAL_SCALE
    result.b_scale = B_INTERNAL_SCALE
    result.wall_time = time.perf_counter() - start
    return result
