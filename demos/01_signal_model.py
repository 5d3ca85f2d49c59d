"""
Tensor parametrizations and the forward signal model
====================================================

Walks through the building blocks: a protocol and its design matrices,
the Cholesky form of the diffusion tensor, the Gram form of the kurtosis
tensor, and the equality of the two ways to evaluate the signal exponent.
"""

import numpy as np

import dkimle as dk

# --- a three-shell protocol on the builtin optimized directions ---------
dirs = dk.builtin_gradients()
shells = [500.0, 1000.0, 1500.0]
protocol = dk.AcquisitionProtocol(
    np.repeat(shells, len(dirs)), np.tile(dirs, (len(shells), 1))
)
design = dk.build_design(protocol.rescaled(1e-3))  # b in ms/um^2
print(f"protocol: m = {protocol.m} acquisitions, shells {shells} s/mm^2")
print(f"design shapes: Z_D {design.z_d.shape}, Z_W {design.z_w.shape}")

# --- the diffusion tensor through its Cholesky factor -------------------
# Any L gives a positive semidefinite D = U U^T; a positive diagonal
# makes it strictly positive definite.
L = np.array([1.2, 1.0, 0.9, 0.15, -0.10, 0.05])
theta_d = dk.theta_d_from_l(L)
print("\ntheta_D(L) =", np.round(theta_d, 4), " (um^2/ms)")
print("eigenvalues:", np.round(np.linalg.eigvalsh(
    np.array([[theta_d[0], theta_d[3], theta_d[4]],
              [theta_d[3], theta_d[1], theta_d[5]],
              [theta_d[4], theta_d[5], theta_d[2]]])), 4))
print("round trip L ->", np.round(dk.cholesky_of_d(theta_d), 4))

# --- the kurtosis tensor through its Gram factor -------------------------
# A PSD rank-3 Gram matrix G guarantees the directional kurtosis form
# v^T G v is non-negative along every direction.
rng = np.random.default_rng(0)
Q = rng.normal(size=(6, 3)) * 0.4
G = Q @ Q.T
theta_w = dk.kurtosis_from_gram(G)
print("\n15 kurtosis elements from G:", np.round(theta_w, 3))

md = dk.mean_diffusivity(theta_d)
theta_q = dk.q_from_gram(G, md)
print("stacked factor theta_Q has", theta_q.size, "entries")

# --- two equivalent signal forms -----------------------------------------
# linear form:    Z_D theta_D + Z_W (MD^2 theta_W)
# factored form:  Z_D theta_D(L) + theta_Q^T P_j theta_Q, the exponent
#                 model every estimator fits (ExponentModel)
lin = design.z_d @ theta_d + design.z_w @ (md * md * theta_w)
eta_d, eta_q = dk.tensors.ExponentModel(design).exponent(L, theta_q)
fac = eta_d + eta_q
print("\nmax |linear - factored| exponent gap:", float(np.max(np.abs(lin - fac))))

params = dk.ModelParams(L, theta_q, s0=1.0, sigma2=1.0)
signal = dk.predict_signal(params, design)
print("signal range over the protocol: [%.4f, %.4f]" % (signal.min(), signal.max()))

# --- directional coefficients -------------------------------------------
g = np.array([1.0, 0.0, 0.0])
d_app, k_app = dk.apparent_coefficients(theta_d, theta_w, g)
print(f"\nalong x: D_app = {d_app:.4f} um^2/ms, K_app = {k_app:.4f}")
