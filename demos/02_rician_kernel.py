"""
The Rician magnitude law and its circular augmentation
======================================================

The magnitude of a complex Gaussian-corrupted signal is Rician; given
the magnitude, the latent phase is Von Mises and the conditional mean of
cos(phase) is the Bessel ratio I1/I0. This is the entire transcendental
content of the EM estimator, shown here numerically.
"""

import numpy as np

import dkimle as dk

# --- the Bessel ratio over twelve decades --------------------------------
x = np.logspace(-6, 6, 13)
print("x        A(x) = I1/I0")
for xi, ai in zip(x, dk.bessel_ratio(x)):
    print(f"{xi:10.1e}  {ai:.12f}")
print("A = i1e/i0e, scipy's exponentially scaled Bessel functions, whose e^-x cancels\n")

# --- density sanity -------------------------------------------------------
from scipy.integrate import quad

for s, sigma in [(0.0, 0.5), (1.0, 0.3), (2.0, 0.1)]:
    total, _ = quad(lambda y: np.exp(dk.rician_logpdf(y, s, sigma**2)),
                    1e-12, s + 12 * sigma, limit=200)
    print(f"integral of the magnitude density (S={s}, sigma={sigma}): {total:.8f}")

# --- sampling matches the law --------------------------------------------
rng = np.random.default_rng(1)
s, sigma = 1.0, 1.0 / 15.0
y = dk.sample_magnitude(np.full(100_000, s), sigma, rng)
print(f"\n1e5 draws at SNR 15: mean {y.mean():.5f}"
      f" vs sqrt(S^2 + sigma^2) = {np.sqrt(s**2 + sigma**2):.5f}")

# Rician magnitudes are biased upward relative to the noise-free signal;
# the bias grows as SNR falls, which is exactly why log-linear fits of
# magnitudes degrade at low SNR.
for snr in (40, 15, 8, 4, 2):
    sig = s / snr
    y = dk.sample_magnitude(np.full(200_000, s), sig, rng)
    print(f"SNR {snr:4.0f}: E[Y]/S = {y.mean() / s:.4f}")

# --- the conditional phase expectation ------------------------------------
print("\nconditional E[cos(phase)] at concentration y*S/sigma^2:")
for snr in (2.0, 8.0, 15.0, 40.0):
    sig2 = (s / snr) ** 2
    print(f"  SNR {snr:4.0f}: {dk.vonmises_expected_cos(s, s, sig2):.6f}")
print("-> tends to 1 at high SNR (phase pinned), 0 at low SNR (phase uniform)")
