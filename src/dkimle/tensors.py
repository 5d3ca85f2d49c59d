"""Tensor parametrizations, their Jacobians, and the forward signal model.

The diffusion tensor D is parametrized through the entries of its lower
triangular factor U (D = U U^T), which keeps D positive semidefinite by
construction.  The kurtosis tensor is parametrized through a sum of three
squared quadratic forms: W_app(g) = v^T G v with G = Q Q^T positive
semidefinite, which keeps the directional kurtosis non-negative.  Both
parametrizations, their derivative structures, and the mappings between
the Gram matrix and the 15 distinct kurtosis tensor elements live here.

Orderings are fixed once and shared with the design matrices:

* theta_D = (D11, D22, D33, D12, D13, D23)
* theta_W = (W1111, W2222, W3333, W1122, W1133, W2233,
             W1123, W1223, W1233, W1112, W1113, W1222,
             W2223, W1333, W2333)
* theta_Q = MD * (q1; q2; q3), three stacked 6-vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .protocol import DesignMatrices, quartic_rows

__all__ = [
    "NotPositiveDefinite",
    "ModelParams",
    "theta_d_from_l",
    "d_matrix",
    "jacobian_l",
    "cholesky_of_d",
    "second_derivative_contraction",
    "gram_from_q",
    "q_from_gram",
    "kurtosis_from_gram",
    "gram_from_kurtosis",
    "factor_kurtosis",
    "ExponentModel",
    "predict_signal",
    "apparent_coefficients",
    "mean_diffusivity",
    "EXP_CAP",
]

# exp() arguments above this are clamped in predict_signal; anything that
# large is already deep in constraint-violating territory
EXP_CAP = 50.0
# iteration budget of factor_kurtosis
FACTOR_ITERATIONS = 60


class NotPositiveDefinite(ValueError):
    """Raised when a tensor expected to be positive definite is not.

    Carries the offending minimum eigenvalue in ``min_eigenvalue``.
    """

    def __init__(self, message, min_eigenvalue):
        super().__init__(message)
        self.min_eigenvalue = float(min_eigenvalue)


def theta_d_from_l(L):
    """Map Cholesky parameters L to theta_D = (D11, D22, D33, D12, D13, D23).

    D = U U^T with U lower triangular holding (L1, L4, L2, L5, L6, L3)
    columnwise, hence

        theta_D = (L1^2, L2^2 + L4^2, L3^2 + L5^2 + L6^2,
                   L1 L4, L1 L5, L4 L5 + L2 L6).
    """
    L1, L2, L3, L4, L5, L6 = np.asarray(L, dtype=float).tolist()
    return np.array([
        L1 * L1,
        L2 * L2 + L4 * L4,
        L3 * L3 + L5 * L5 + L6 * L6,
        L1 * L4,
        L1 * L5,
        L4 * L5 + L2 * L6,
    ])


_D_ENTRIES = np.array([0, 3, 4, 3, 1, 5, 4, 5, 2])  # theta_D index of each entry of D


def d_matrix(theta_d):
    """Assemble the symmetric 3 x 3 diffusion tensor from theta_D, or a
    stack (k, 3, 3) of them from a (k, 6) stack."""
    d = np.asarray(theta_d, dtype=float)
    return d.take(_D_ENTRIES, axis=-1).reshape(d.shape[:-1] + (3, 3))


def mean_diffusivity(theta_d) -> float:
    """MD = tr(D) / 3."""
    d = np.asarray(theta_d, dtype=float)
    return float((d[0] + d[1] + d[2]) / 3.0)


def jacobian_l(L):
    """Jacobian d theta_D / d L, a sparse 6 x 6 matrix.

    Row i holds the partials of theta_D[i]; matches central finite
    differences of :func:`theta_d_from_l` everywhere.
    """
    L1, L2, L3, L4, L5, L6 = np.asarray(L, dtype=float).tolist()
    J = np.zeros((6, 6))
    J[0, 0] = 2 * L1
    J[1, 1] = 2 * L2
    J[1, 3] = 2 * L4
    J[2, 2] = 2 * L3
    J[2, 4] = 2 * L5
    J[2, 5] = 2 * L6
    J[3, 0] = L4
    J[3, 3] = L1
    J[4, 0] = L5
    J[4, 4] = L1
    J[5, 1] = L6
    J[5, 3] = L5
    J[5, 4] = L4
    J[5, 5] = L2
    return J


def cholesky_of_d(theta_d):
    """Cholesky parameters L reproducing a positive definite theta_D.

    Raises
    ------
    NotPositiveDefinite
        If the assembled D is not positive definite; the exception carries
        the minimum eigenvalue so callers may clamp and retry.
    """
    D = d_matrix(theta_d)
    try:
        U = np.linalg.cholesky(D)
    except np.linalg.LinAlgError:
        min_eig = float(np.linalg.eigvalsh(D)[0])
        raise NotPositiveDefinite(
            f"D is not positive definite (min eigenvalue {min_eig:.6g})", min_eig
        ) from None
    return np.array([U[0, 0], U[1, 1], U[2, 2], U[1, 0], U[2, 0], U[2, 1]])


# the nonzero entries of second_derivative_contraction: flat (row-major)
# index, the entry of z_row and its factor
_SDC_FLAT = np.array([0, 7, 14, 21, 28, 35, 3, 18, 4, 24, 11, 31, 22, 27])
_SDC_SOURCE = np.array([0, 1, 2, 1, 2, 2, 3, 3, 4, 4, 5, 5, 5, 5])
_SDC_SCALE = np.array([2.0] * 6 + [1.0] * 8)


def second_derivative_contraction(z_row):
    """Hessian of <z_row, theta_D(L)> with respect to L.

    The result is the symmetric 6 x 6 matrix with diagonal
    (2 z1, 2 z2, 2 z3, 2 z2, 2 z3, 2 z3) and off-diagonal entries
    (1,4) = z4, (1,5) = z5, (2,6) = z6 and (4,5) = z6 (1-based), verified
    against the finite-difference Hessian.  Constant prefactors such as
    the 3/b^2 of the upper-bound constraint are applied by the caller.
    Linear in z_row.
    """
    out = np.zeros(36)
    out[_SDC_FLAT] = np.asarray(z_row, dtype=float)[_SDC_SOURCE] * _SDC_SCALE
    return out.reshape(6, 6)


def gram_from_q(theta_q, md):
    """Gram matrix G = Q Q^T / MD^2 from the stacked kurtosis parameters.

    Q is the 6 x 3 matrix whose columns are the three consecutive
    6-blocks of theta_Q.  G is symmetric positive semidefinite of rank
    at most 3 and dimensionless.
    """
    if md <= 0:
        raise ValueError(f"mean diffusivity must be positive, got {md}")
    Q = np.asarray(theta_q, dtype=float).reshape(3, 6).T
    return (Q @ Q.T) / (md * md)


def q_from_gram(G, md):
    """Factor a PSD Gram matrix into theta_Q = MD * vec(Q), G ~= Q Q^T.

    Negative eigenvalues are clipped to zero and only the three largest
    eigenpairs are kept, so the result is exact whenever G is PSD with
    rank <= 3 and a best rank-3 approximation otherwise.
    """
    if md <= 0:
        raise ValueError(f"mean diffusivity must be positive, got {md}")
    G = np.asarray(G, dtype=float)
    vals, vecs = np.linalg.eigh(0.5 * (G + G.T))
    vals = np.clip(vals[::-1], 0.0, None)[:3]
    vecs = vecs[:, ::-1][:, :3]
    Q = vecs * np.sqrt(vals)
    return md * Q.T.reshape(18)


def kurtosis_from_gram(G):
    """The 15 distinct kurtosis tensor elements reproducing v^T G v.

    The mapping is obtained by matching quartic monomial coefficients of
    v^T G v against the multiplicity-weighted contraction; it satisfies

        quartic_rows(g) @ theta_W == v(g)^T G v(g)   for every unit g.
    """
    G = np.asarray(G, dtype=float)
    w = np.empty(15)
    w[0] = G[0, 0]
    w[1] = G[1, 1]
    w[2] = G[2, 2]
    w[3] = (G[3, 3] + 2 * G[0, 1]) / 6.0
    w[4] = (G[4, 4] + 2 * G[0, 2]) / 6.0
    w[5] = (G[5, 5] + 2 * G[1, 2]) / 6.0
    w[6] = (G[0, 5] + G[3, 4]) / 6.0
    w[7] = (G[1, 4] + G[3, 5]) / 6.0
    w[8] = (G[2, 3] + G[4, 5]) / 6.0
    w[9] = G[0, 3] / 2.0
    w[10] = G[0, 4] / 2.0
    w[11] = G[1, 3] / 2.0
    w[12] = G[1, 5] / 2.0
    w[13] = G[2, 4] / 2.0
    w[14] = G[2, 5] / 2.0
    return w


# the entries (i, j) of gram_from_kurtosis's upper triangle that are not
# zero, with the theta_W index and the factor that give them
_GRAM_I, _GRAM_J, _GRAM_W, _GRAM_FACTOR = np.array([
    (0, 0, 0, 1), (1, 1, 1, 1), (2, 2, 2, 1),
    (0, 1, 3, 2), (3, 3, 3, 2), (0, 2, 4, 2), (4, 4, 4, 2), (1, 2, 5, 2), (5, 5, 5, 2),
    (3, 4, 6, 6), (3, 5, 7, 6), (4, 5, 8, 6),
    (0, 3, 9, 2), (0, 4, 10, 2), (1, 3, 11, 2), (1, 5, 12, 2), (2, 4, 13, 2), (2, 5, 14, 2),
]).T


def gram_from_kurtosis(theta_w):
    """A symmetric Gram matrix whose quartic form matches theta_W, or a
    stack (k, 6, 6) of them from a (k, 15) stack.

    The quartic identity leaves six degrees of freedom.  The three free
    off-block entries (G16, G25, G34) are set to zero and each
    pair-square coefficient is split evenly between its two carriers
    (G12 = G44 = 2 W1122 and cyclic).  The result is not necessarily
    PSD; initialization clamps it afterwards.
    """
    w = np.asarray(theta_w, dtype=float)
    G = np.zeros(w.shape[:-1] + (6, 6))
    G[..., _GRAM_I, _GRAM_J] = G[..., _GRAM_J, _GRAM_I] = _GRAM_FACTOR * w[..., _GRAM_W]
    return G


def _gram_to_kurtosis_map():
    A = np.zeros((15, 36))
    E = np.zeros((6, 6))
    for i in range(6):
        for j in range(6):
            E[:] = 0.0
            E[i, j] = 1.0
            A[:, i * 6 + j] = kurtosis_from_gram(E)
    return A


_GRAM_MAP = _gram_to_kurtosis_map()
_GRAM_MAP3 = _GRAM_MAP.reshape(15, 6, 6)


def factor_kurtosis(theta_w, q0):
    """Rank-3 factor Q minimizing the quartic mismatch to theta_W.

    Levenberg-Marquardt on the residual quartic(Q Q^T) - theta_W from the
    starting factor ``q0`` (6 x 3), for at most ``FACTOR_ITERATIONS``
    iterations.  When theta_W admits a PSD rank-3 representation this
    converges to it (zero residual); otherwise it lands at a locally
    closest representable quartic.  Returns (Q, cost).
    """
    w = np.asarray(theta_w, dtype=float)
    Q = np.asarray(q0, dtype=float).reshape(6, 3).copy()
    lam = 1e-6
    r = _GRAM_MAP @ (Q @ Q.T).reshape(36) - w
    cost = float(r @ r)
    for _ in range(FACTOR_ITERATIONS):
        if cost < 1e-28:
            break
        m1 = np.einsum("waj,jb->wab", _GRAM_MAP3, Q)
        m2 = np.einsum("wia,ib->wab", _GRAM_MAP3, Q)
        J = (m1 + m2).reshape(15, 18)
        H = J.T @ J + lam * np.eye(18)
        try:
            step = np.linalg.solve(H, J.T @ r)
        except np.linalg.LinAlgError:
            lam *= 10.0
            continue
        Q_new = Q - step.reshape(6, 3)
        r_new = _GRAM_MAP @ (Q_new @ Q_new.T).reshape(36) - w
        cost_new = float(r_new @ r_new)
        if cost_new < cost:
            Q, r, cost = Q_new, r_new, cost_new
            lam = max(lam * 0.3, 1e-12)
        else:
            lam *= 10.0
    return Q, cost


@dataclass
class ModelParams:
    """Full voxel parameter set (L, theta_Q, S0, sigma^2).

    L and theta_Q live in whatever b-units the accompanying design was
    built with; S0 and sigma^2 are in signal units.
    """

    L: np.ndarray
    theta_q: np.ndarray
    s0: float
    sigma2: float

    def __post_init__(self):
        self.L = np.asarray(self.L, dtype=float).reshape(6)
        self.theta_q = np.asarray(self.theta_q, dtype=float).reshape(18)
        if not self.s0 > 0:
            raise ValueError(f"S0 must be positive, got {self.s0}")
        if not self.sigma2 > 0:
            raise ValueError(f"sigma^2 must be positive, got {self.sigma2}")

    @property
    def theta_d(self):
        return theta_d_from_l(self.L)

    @property
    def md(self) -> float:
        return mean_diffusivity(self.theta_d)

    def gram(self):
        return gram_from_q(self.theta_q, self.md)

    @property
    def theta_w(self):
        return kurtosis_from_gram(self.gram())

    def copy(self) -> "ModelParams":
        return ModelParams(self.L.copy(), self.theta_q.copy(), self.s0, self.sigma2)


def _qform(theta_q, v):
    """sum_i <v_j, q-block_i>^2 per row; equals (6/b^2) theta_Q^T P_j theta_Q."""
    u = v @ np.asarray(theta_q, dtype=float).reshape(3, 6).T  # (m, 3)
    return np.einsum("mi,mi->m", u, u), u


class ExponentModel:
    """The signal exponent of one design, its decay constraints, and their
    derivatives.

    Every estimator models log S_j = log S0 + eta_j with eta_j =
    Z_Dj theta_D(L) + theta_Q^T P_j theta_Q, a function of the stacked
    theta = (L; theta_Q) of length 24; its two terms are returned apart so
    that each caller keeps its order of floating-point operations.  The
    decay constraints g_j = (6/b^2) theta_Q^T P_j theta_Q + (3/b^2) Z_Dj
    theta_D <= 0 (b_j > 0) are a homogeneous quadratic in theta.  One quadratic
    form and one theta_D(L) per point serve both the exponent and the
    constraints, and one d theta_D / d L and one u (x) v product serve
    both Jacobians.

    eta_D is linear and eta_Q quadratic in b, so eta_D + 2 eta_Q is the
    b-slope of the log signal, b d log S / d b, and g_j is that slope times
    3/b_j^2: g_j <= 0 is K_app <= 3 / (b_j D_app).  The violation flags and
    the simulator test the same slope with eta_W = Z_W (MD^2 theta_W).
    """

    def __init__(self, design: DesignMatrices):
        self.design = design
        self.c = design.b**2 / 6.0
        # 2 c and v repeated to the (m, 18) shape of the theta_Q Jacobian
        self.two_c = np.repeat(2.0 * self.c[:, None], 18, axis=1)
        self.v3 = np.tile(design.v, 3)
        mask = design.b > 0
        # the b > 0 rows, which carry the constraints, as a selector of a
        # full-design array (a view when they are all rows); their v, 3/b^2
        # and (3/b^2) Z_D
        self.decay = slice(None) if mask.all() else mask
        self.three_over_b2 = 3.0 / design.b[mask] ** 2
        self.v_c, self.zc = design.v[mask], self.three_over_b2[:, None] * design.z_d[mask]

    @property
    def n_constraints(self) -> int:
        return self.v_c.shape[0]

    def evaluate(self, theta):
        """(eta_D, eta_Q, g, u) at theta: the exponent's two terms, the decay
        constraints and u_j = (<v_j, q-block_i>)_i of shape (m, 3)."""
        theta_d = theta_d_from_l(theta[:6])
        qf, u = _qform(theta[6:], self.design.v)
        return self.design.z_d @ theta_d, self.c * qf, qf[self.decay] + self.zc @ theta_d, u

    def exponent(self, L, theta_q):
        """(eta_D, eta_Q) per row."""
        eta_d, eta_q, _, _ = self.evaluate(np.concatenate([L, theta_q]))
        return eta_d, eta_q

    def constraints(self, theta):
        """The decay constraints g(theta); g(s) is also the second-order
        coefficient of g(theta - alpha s) in alpha."""
        return self.evaluate(theta)[2]

    def jacobians(self, L, u):
        """(d eta / d theta, shape (m, 24); d g / d theta, shape
        (n_constraints, 24)) from the u of :meth:`evaluate`."""
        J = jacobian_l(L)
        uv = np.repeat(u, 6, axis=1) * self.v3  # u_ji v_jk, block i of theta_Q
        U = np.empty((self.design.m, 24))
        np.matmul(self.design.z_d, J, out=U[:, :6])
        np.multiply(self.two_c, uv, out=U[:, 6:])
        A = np.empty((self.n_constraints, 24))
        np.matmul(self.zc, J, out=A[:, :6])
        np.multiply(2.0, uv[self.decay], out=A[:, 6:])
        return U, A

    def curvature(self, w, with_l):
        """sum_j w_j d^2 eta_j / d theta^2, the L block only if with_l; eta is
        a sum of an L and a theta_Q term, so the cross block is zero."""
        H = np.zeros((24, 24))
        if with_l:
            H[:6, :6] = second_derivative_contraction(w @ self.design.z_d)
        v = self.design.v
        # the same 6 x 6 block for each of the three theta_Q blocks
        H[6:12, 6:12] = H[12:18, 12:18] = H[18:24, 18:24] = (v.T * (2.0 * w * self.c)) @ v
        return H

    def constraint_curvature(self, lam):
        """sum_j lam_j d^2 g_j / d theta^2 (block diagonal)."""
        v_c, zc = self.v_c, self.zc
        H = np.zeros((24, 24))
        H[:6, :6] = second_derivative_contraction(lam @ zc)
        H[6:12, 6:12] = H[12:18, 12:18] = H[18:24, 18:24] = 2.0 * ((v_c.T * lam) @ v_c)
        return H


def predict_signal(params: ModelParams, design: DesignMatrices):
    """Noise-free signal S_j = S0 exp(Z_Dj theta_D + theta_Q^T P_j theta_Q).

    Exponent arguments above ``EXP_CAP`` are clamped and a RuntimeWarning is
    emitted; this only happens for parameters violating the
    monotone-decay constraint, where the model itself is unphysical.
    """
    eta_d, eta_q = ExponentModel(design).exponent(params.L, params.theta_q)
    expo = eta_d + eta_q
    n_clamped = int(np.sum(expo > EXP_CAP))
    if n_clamped:
        import warnings

        warnings.warn(
            f"{n_clamped} signal exponent(s) exceeded the cap {EXP_CAP:g}; clamped",
            RuntimeWarning,
            stacklevel=2,
        )
        expo = np.minimum(expo, EXP_CAP)
    return params.s0 * np.exp(expo)


def apparent_coefficients(theta_d, theta_w, g):
    """Directional apparent diffusivity and kurtosis (D_app, K_app).

    D_app = g^T D g and K_app = (MD / D_app)^2 * W_app(g) with
    MD = tr(D)/3 and W_app the full rank-4 contraction along g.

    Raises
    ------
    ValueError
        If D_app <= 0 (K_app is undefined there).
    """
    g = np.asarray(g, dtype=float)
    D = d_matrix(theta_d)
    d_app = float(g @ D @ g)
    if d_app <= 0:
        raise ValueError(f"D_app must be positive for K_app, got {d_app}")
    md = mean_diffusivity(theta_d)
    w_app = float(quartic_rows(g[None, :])[0] @ np.asarray(theta_w, dtype=float))
    return d_app, (md / d_app) ** 2 * w_app
