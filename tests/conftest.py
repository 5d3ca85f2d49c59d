"""Shared test fixtures and independent oracle helpers.

The oracles here deliberately recompute quantities by brute force
(explicit tensor expansions, dense matrices, finite differences) so they
stay independent of the library code paths they check.  The reference
forms of the tensor problem, its curvature, its losses and the Cholesky
solve are the plain versions the library's faster code must match bit
for bit.
"""

from itertools import permutations

import numpy as np
import pytest
import scipy.linalg
from scipy.special import i0e

from dkimle.barrier import BarrierProblem
from dkimle.tensors import jacobian_l, second_derivative_contraction, theta_d_from_l


W_INDEX = [
    (0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2),
    (0, 0, 1, 1), (0, 0, 2, 2), (1, 1, 2, 2),
    (0, 0, 1, 2), (0, 1, 1, 2), (0, 1, 2, 2),
    (0, 0, 0, 1), (0, 0, 0, 2), (0, 1, 1, 1),
    (1, 1, 1, 2), (0, 2, 2, 2), (1, 2, 2, 2),
]


def w15_to_full(w15):
    """Expand 15 distinct elements into the dense symmetric rank-4 tensor."""
    W = np.zeros((3, 3, 3, 3))
    for val, idx in zip(w15, W_INDEX):
        for p in set(permutations(idx)):
            W[p] = val
    return W


def tensor4_to_kurtosis(W):
    """Collect the 15 distinct elements of a symmetric rank-4 tensor."""
    W = np.asarray(W, dtype=float)
    return np.array([W[idx] for idx in W_INDEX])


def contraction_oracle(g, w15):
    """Brute-force sum over all 81 index quadruples of g g g g W."""
    W = w15_to_full(w15)
    return float(np.einsum("i,j,k,l,ijkl->", g, g, g, g, W))


def vvec(g):
    return np.array([
        g[0] ** 2, g[1] ** 2, g[2] ** 2,
        g[0] * g[1], g[0] * g[2], g[1] * g[2],
    ])


def dense_p_matrix(v, b):
    """The 18 x 18 block-diagonal quadratic form matrix, materialized."""
    vv = np.outer(v, v)
    P = np.zeros((18, 18))
    for i in range(3):
        P[6 * i:6 * i + 6, 6 * i:6 * i + 6] = vv
    return b * b / 6.0 * P


def apply_p(theta_q, v, b):
    """Quadratic form theta_Q^T P theta_Q for one acquisition, without the
    18 x 18 matrix: (b^2 / 6) * sum_i <v, theta_Q[6i:6i+6]>^2 (never negative)."""
    theta_q = np.asarray(theta_q, dtype=float)
    if theta_q.shape != (18,):
        raise ValueError(f"theta_q must have shape (18,), got {theta_q.shape}")
    u = theta_q.reshape(3, 6) @ np.asarray(v, dtype=float)
    return float(b * b / 6.0 * np.dot(u, u))


def apply_p_batch(theta_q, v, b):
    """:func:`apply_p` over all m acquisitions; returns shape (m,)."""
    u = np.atleast_2d(v) @ np.asarray(theta_q, dtype=float).reshape(3, 6).T  # (m, 3)
    return np.asarray(b, dtype=float) ** 2 / 6.0 * np.einsum("mi,mi->m", u, u)


def ring_directions(axis, n):
    """n unit vectors equally spaced on the great circle orthogonal to ``axis``."""
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    # any vector not parallel to axis seeds the orthonormal pair
    seed = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e2 = np.cross(axis, seed)
    e2 /= np.linalg.norm(e2)
    e3 = np.cross(axis, e2)
    t = 2.0 * np.pi * np.arange(n) / n
    return np.outer(np.cos(t), e2) + np.outer(np.sin(t), e3)


def vonmises_logpdf(phi, kappa):
    """Log density of the zero-mean Von Mises law on [0, 2 pi)."""
    if np.any(np.asarray(kappa) < 0):
        raise ValueError("concentration must be non-negative")
    phi = np.asarray(phi, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    return kappa * np.cos(phi) - np.log(2.0 * np.pi) - np.log(i0e(kappa)) - kappa


def kron_curvature(model, w, with_l):
    """:meth:`ExponentModel.curvature` with the theta_Q blocks from np.kron."""
    H = np.zeros((24, 24))
    if with_l:
        H[:6, :6] = second_derivative_contraction(w @ model.design.z_d)
    v = model.design.v
    H[6:, 6:] = np.kron(np.eye(3), (v.T * (2.0 * w * model.c)) @ v)
    return H


def kron_constraint_curvature(model, lam):
    """:meth:`ExponentModel.constraint_curvature` with np.kron."""
    H = np.zeros((24, 24))
    H[:6, :6] = second_derivative_contraction(lam @ model.zc)
    H[6:, 6:] = 2.0 * np.kron(np.eye(3), (model.v_c.T * lam) @ model.v_c)
    return H


class ReferenceRicianSurrogate:
    """:class:`dkimle.estimators.RicianSurrogate` as written: every factor
    recomputed on every call."""

    curvature_in_l = False

    def __init__(self, s0, tau):
        self.s0 = s0
        self.tau = np.asarray(tau, dtype=float)

    def value(self, eta_d, eta_q):
        e = np.exp(eta_d + eta_q)
        return float(np.sum(0.5 * self.s0**2 * e**2 - self.tau * self.s0 * e))

    def derivatives(self, eta_d, eta_q):
        e = np.exp(eta_d + eta_q)
        s0, tau = self.s0, self.tau
        return s0**2 * e**2 - tau * s0 * e, 2.0 * s0**2 * e**2 - tau * s0 * e


class ReferenceLogResidual:
    """:class:`dkimle.estimators.LogResidual` as written, with a fresh
    array for each operation."""

    curvature_in_l = True

    def __init__(self, log_s0, w, log_y, rows, m):
        self.log_s0 = log_s0
        self.w = np.zeros(m)
        self.w[rows] = w
        self.log_y = np.zeros(m)
        self.log_y[rows] = log_y

    def residual(self, eta_d, eta_q):
        r = self.log_y - self.log_s0 - eta_d - eta_q
        return np.where(self.w > 0, r, 0.0)

    def value(self, eta_d, eta_q):
        r = self.residual(eta_d, eta_q)
        return float(0.5 * np.sum(self.w * r * r))

    def derivatives(self, eta_d, eta_q):
        return -(self.w * self.residual(eta_d, eta_q)), self.w


def reference_tensor_problem(model, loss):
    """:func:`dkimle.estimators.tensor_problem` without its memo: every
    callable evaluates afresh what it needs, in the separate forms of one
    pass per quantity (the exponent over all rows; the constraints and
    their gradients from a quadratic form of their own over the b > 0
    rows), and the curvature comes from the np.kron oracles."""
    design, v_c, zc = model.design, model.v_c, model.zc

    def exponent(theta):
        u = design.v @ theta[6:].reshape(3, 6).T
        return design.z_d @ theta_d_from_l(theta[:6]), model.c * np.einsum("mi,mi->m", u, u), u

    def sensitivities(theta, u):
        m = design.m
        out = np.empty((m, 24))
        out[:, :6] = design.z_d @ jacobian_l(theta[:6])
        out[:, 6:] = 2.0 * model.c[:, None] * (u[:, :, None] * design.v[:, None, :]).reshape(m, 18)
        return out

    def objective(theta):
        eta_d, eta_q, _ = exponent(theta)
        return loss.value(eta_d, eta_q)

    def gradient(theta):
        eta_d, eta_q, u = exponent(theta)
        d1, _ = loss.derivatives(eta_d, eta_q)
        return sensitivities(theta, u).T @ d1

    def information(theta, lam):
        eta_d, eta_q, u = exponent(theta)
        d1, d2 = loss.derivatives(eta_d, eta_q)
        U = sensitivities(theta, u)
        H = (U.T * d2) @ U + kron_curvature(model, d1, loss.curvature_in_l)
        if lam.size:
            H += kron_constraint_curvature(model, lam)
        return H

    def constraints(theta):
        u = v_c @ theta[6:].reshape(3, 6).T
        return np.einsum("mi,mi->m", u, u) + zc @ theta_d_from_l(theta[:6])

    def constraint_gradients(theta):
        A = np.empty((v_c.shape[0], 24))
        A[:, :6] = zc @ jacobian_l(theta[:6])
        u = v_c @ theta[6:].reshape(3, 6).T
        A[:, 6:] = 2.0 * (u[:, :, None] * v_c[:, None, :]).reshape(v_c.shape[0], 18)
        return A

    return BarrierProblem(24, model.n_constraints, objective, gradient, information,
                          constraints, constraint_gradients, constraints)


def sym_basis(n):
    """Basis of the symmetric n x n matrices: the diagonal units, then
    E_ij + E_ji for i < j in row order (for n = 3 the theta_D order)."""
    pairs = [(i, i) for i in range(n)] + list(zip(*np.triu_indices(n, 1)))
    E = np.zeros((len(pairs), n, n))
    for k, (i, j) in enumerate(pairs):
        E[k, i, j] = E[k, j, i] = 1.0
    return E


class LiftedCwls:
    """CWLS as a convex problem in x = (theta_D, G~), G~ = sum_i q_i q_i^T of
    the theta_Q blocks q_i (6 + 21 variables; G~ in a rotation of the
    :func:`sym_basis` coordinates).  The exponent eta_j = Z_Dj theta_D + (b_j^2/6) v_j^T G~ v_j
    and the decay constraints g_j = v_j^T G~ v_j + (3/b_j^2) Z_Dj theta_D
    (b_j > 0) are linear in x, and D >= 0, G~ >= 0 are the closure of what
    the Cholesky and Gram factors reach (a non-negative ternary quartic is a
    sum of three squares, Hilbert 1888).  The loss 1/2 sum_j w_j (log y_j -
    log S0 - eta_j)^2 then has one minimizer, which :meth:`solve` finds with
    the barrier t f - log det D - log det G~ - sum_j log(-g_j) and damped
    Newton steps, to a duality gap of ``gap`` f."""

    def __init__(self, design, y, s0):
        rows = y > 0
        self.w, self.r0 = np.zeros(design.m), np.zeros(design.m)
        self.w[rows] = y[rows] ** 2 / (s0 * s0)
        self.r0[rows] = np.log(y[rows]) - float(np.log(s0))
        # G~ in an orthonormal basis whose last six directions leave every
        # v^T G~ v unchanged; only -log det G~ sees them
        vgv = np.einsum("mi,kij,mj->mk", design.v, sym_basis(6), design.v)
        self.rotation = np.linalg.svd(vgv)[2]
        vgv = vgv @ self.rotation.T
        vgv[:, 15:] = 0.0
        self.basis_d = sym_basis(3)
        self.basis_g = np.tensordot(self.rotation, sym_basis(6), 1)
        self.A = np.hstack([design.z_d, (design.b ** 2 / 6.0)[:, None] * vgv])
        pos = design.b > 0
        self.B = np.hstack([(3.0 / design.b[pos] ** 2)[:, None] * design.z_d[pos], vgv[pos]])
        self.hess_f = (self.A.T * self.w) @ self.A

    def point(self, theta_d, G):
        """x of theta_D and a symmetric 6 x 6 G~."""
        return np.concatenate([theta_d, self.rotation @ np.concatenate(
            [np.diag(G), G[np.triu_indices(6, 1)]])])

    def factored_point(self, theta_d, theta_q):
        """x of the factored parameters: G~ = Q Q^T, Q the 6 x 3 theta_Q blocks."""
        Q = np.asarray(theta_q, dtype=float).reshape(3, 6).T
        return self.point(theta_d, Q @ Q.T)

    def loss(self, x):
        r = self.r0 - self.A @ x
        return 0.5 * float(self.w @ (r * r))

    def barrier(self, x, derivatives=False):
        """The barrier's value, or None outside the domain; with its gradient
        and Hessian if ``derivatives``."""
        g = self.B @ x
        if not np.all(g < 0):
            return None
        blocks = [(slice(0, 6), self.basis_d), (slice(6, 27), self.basis_g)]
        value = -np.sum(np.log(-g))
        for block, basis in blocks:
            try:
                chol = np.linalg.cholesky(np.tensordot(x[block], basis, 1))
            except np.linalg.LinAlgError:
                return None
            value -= 2.0 * np.sum(np.log(np.diag(chol)))
        if not derivatives:
            return value
        grad, hess = self.B.T @ (-1.0 / g), (self.B.T / g**2) @ self.B
        for block, basis in blocks:
            ME = np.linalg.inv(np.tensordot(x[block], basis, 1)) @ basis  # (K, n, n)
            grad[block] -= np.trace(ME, axis1=1, axis2=2)
            hess[block, block] += np.einsum("kij,lji->kl", ME, ME)
        return value, grad, hess

    def solve(self, gap=1e-12):
        """The minimizer x and its loss, from D = I and G~ = eps I: then
        g_j = eps |v_j|^2 - 3 / b_j with |v_j| <= 1, so eps = 3 / (2 b_max)
        is strictly feasible."""
        theta_d = np.array([1.0, 1.0, 1.0, 0.0, 0.0, 0.0])
        x = self.point(theta_d, 0.5 * np.min(-self.B[:, :6] @ theta_d) * np.eye(6))
        nu, t = 9 + self.B.shape[0], 1.0
        while True:
            # centering by damped Newton; from t ~ 1e13 on, rounding in t f keeps
            # the decrement above its tolerance, so the steps are capped
            for _ in range(20):
                value, grad_b, hess_b = self.barrier(x, derivatives=True)
                grad_f = -self.A.T @ (self.w * (self.r0 - self.A @ x))
                grad = t * grad_f + grad_b
                H = t * self.hess_f + hess_b
                scale = 1.0 / np.sqrt(np.diag(H))  # Jacobi scaling: t spans 14 decades
                step = -scale * np.linalg.solve(H * np.outer(scale, scale), scale * grad)
                decrement = -float(grad @ step)
                if decrement <= 1e-8:
                    break
                # the change in t f along the step, exact for a quadratic
                slope, curvature = t * grad_f @ step, t * step @ self.hess_f @ step
                alpha = 1.0
                while alpha > 1e-10:
                    trial = self.barrier(x + alpha * step)
                    change = alpha * slope + 0.5 * alpha**2 * curvature
                    if trial is not None and change + trial - value <= -0.25 * alpha * decrement:
                        break
                    alpha *= 0.5
                else:
                    break
                x = x + alpha * step
            f = self.loss(x)
            if nu / t <= gap * f:
                return x, f
            t *= 10.0


def cho_regularize(H, shift):
    """:func:`dkimle.barrier.regularize` through scipy's ``cho_factor``."""
    out = np.asarray(H, dtype=float) + float(shift) * np.eye(H.shape[0])
    bump = 10.0 * max(float(shift), 1e-8)
    while True:
        try:
            return out, scipy.linalg.cho_factor(out, check_finite=False)
        except np.linalg.LinAlgError:
            out = out + bump * np.eye(H.shape[0])
            bump *= 10.0


def cho_fisher_step(info_reg, score, factor):
    """:func:`dkimle.barrier.fisher_step` through scipy's ``cho_solve``."""
    step = scipy.linalg.cho_solve(factor, score, check_finite=False)
    resid = score - info_reg @ step
    return step + scipy.linalg.cho_solve(factor, resid, check_finite=False)


def fd_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (f(xp) - f(xm)) / (2 * h)
    return out


def fd_hessian(f, x, h=1e-5):
    x = np.asarray(x, dtype=float)
    n = x.size
    H = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            xpp = x.copy(); xpp[i] += h; xpp[j] += h
            xpm = x.copy(); xpm[i] += h; xpm[j] -= h
            xmp = x.copy(); xmp[i] -= h; xmp[j] += h
            xmm = x.copy(); xmm[i] -= h; xmm[j] -= h
            H[i, j] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4 * h * h)
    return H


def two_pass_wls(data, design):
    """The log-linear WLS fit by two SVD least-squares solves: an unweighted
    pass for S0, then the fit with weights Y^2 / S0^2.  Returns
    (log S0, theta_D, MD^2-scaled theta_W, sigma^2) of a full-rank
    design; zero magnitudes are excluded, and sigma^2 has at least one
    degree of freedom, as in wls_fit."""
    use = ~data.zero_mask
    y = data.y[use]
    logy = np.log(y)
    X = np.column_stack([np.ones(y.size), design.z_d[use], design.z_w[use]])
    beta0 = np.linalg.lstsq(X, logy, rcond=None)[0]
    s0 = np.exp(beta0[0])
    sw = np.sqrt(y * y / (s0 * s0))
    beta = np.linalg.lstsq(X * sw[:, None], logy * sw, rcond=None)[0]
    sigma2 = np.sum((y - np.exp(X @ beta)) ** 2) / max(y.size - 22, 1)
    return beta[0], beta[1:7], beta[7:], sigma2


def random_unit(rng):
    g = rng.normal(size=3)
    return g / np.linalg.norm(g)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
