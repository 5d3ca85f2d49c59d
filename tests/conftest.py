"""Shared test fixtures and independent oracle helpers.

The oracles here deliberately recompute quantities by brute force
(explicit tensor expansions, dense matrices, finite differences) so they
stay independent of the library code paths they check.  The reference
forms of the tensor problem, its curvature and the Cholesky solve are
the plain versions the library's faster code must match bit for bit.
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


def random_unit(rng):
    g = rng.normal(size=3)
    return g / np.linalg.norm(g)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
