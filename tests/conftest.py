"""Shared test fixtures and independent oracle helpers.

The oracles here deliberately recompute quantities by brute force
(explicit tensor expansions, dense matrices, finite differences) so they
stay independent of the library code paths they check.
"""

from itertools import permutations

import numpy as np
import pytest


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
