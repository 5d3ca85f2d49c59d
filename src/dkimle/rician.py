"""Rician magnitude model and its circular-phase augmentation.

The magnitude of a complex Gaussian-corrupted signal is Rician.  Writing
the latent phase explicitly, the joint density of (magnitude, phase)
factors into the Rician marginal and a Von Mises conditional; the
conditional mean of cos(phase) is the ratio I1/I0 of modified Bessel
functions, which is the only transcendental kernel the EM iteration
needs.  Everything here works in log space with exponentially scaled
Bessel functions so that nothing overflows at high SNR.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "bessel_ratio",
    "rician_logpdf",
    "vonmises_expected_cos",
    "sample_magnitude",
    "joint_loglik",
    "AugmentedState",
]


def bessel_ratio(x):
    """A(x) = I1(x)/I0(x), stable for any non-negative x.

    The ratio of the exponentially scaled Bessel functions i1e/i0e, in
    which the common factor e^-x cancels, so no argument overflows.
    Monotone increasing with A(0) = 0 and A(inf) = 1, where both scaled
    functions are 0; accepts scalars or arrays.  Negative and NaN
    arguments raise ValueError.
    """
    # imported on first use, so importing dkimle loads no scipy
    from scipy.special import i0e, i1e

    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=float)
    if not np.all(x >= 0):
        raise ValueError("bessel_ratio requires x >= 0 and not NaN")
    out = np.divide(i1e(x), i0e(x), out=np.ones_like(x), where=x < np.inf)
    return float(out) if scalar else out


def rician_logpdf(y, s, sigma2):
    """Log density of the Rician magnitude law.

    log p(y) = log y - log sigma^2 - (y^2 + S^2)/(2 sigma^2)
               + y S / sigma^2 + log( e^{-yS/sigma^2} I0(yS/sigma^2) )

    evaluated with the exponentially scaled Bessel function so large
    arguments never overflow.  Exact zeros of y are scored with the
    degenerate Gaussian density (1 / 2 pi sigma^2) exp(-S^2 / 2 sigma^2)
    that replaces the magnitude law when the scanner discretizes a
    sample to zero.
    """
    # imported on first use, so importing dkimle loads no scipy
    from scipy.special import i0e

    y = np.asarray(y, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(y < 0):
        raise ValueError("magnitudes must be non-negative")
    if not sigma2 > 0:
        raise ValueError(f"sigma^2 must be positive, got {sigma2}")
    kappa = y * s / sigma2
    with np.errstate(divide="ignore"):
        body = (
            np.log(y)
            - np.log(sigma2)
            - (y * y + s * s) / (2.0 * sigma2)
            + kappa
            + np.log(i0e(kappa))
        )
    zero = y == 0
    if np.any(zero):
        gauss = -np.log(2.0 * np.pi * sigma2) - (s * s) / (2.0 * sigma2)
        body = np.where(zero, gauss, body)
    return body if body.ndim else float(body)


def vonmises_expected_cos(y, s, sigma2):
    """Conditional expectation of cos(phase) given the magnitude.

    The phase given y is Von Mises with concentration y S / sigma^2, so
    the expectation is the Bessel ratio at that concentration.
    """
    if not sigma2 > 0:
        raise ValueError(f"sigma^2 must be positive, got {sigma2}")
    return bessel_ratio(np.asarray(y, dtype=float) * np.asarray(s, dtype=float) / sigma2)


def sample_magnitude(s, sigma, rng):
    """Draw Rician magnitudes y = sqrt((S + e_r)^2 + e_i^2).

    ``s`` may be a scalar or an array; one magnitude is returned per
    entry.  ``sigma`` is the common standard deviation of the real and
    imaginary Gaussian noise components.
    """
    if not sigma > 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    s = np.asarray(s, dtype=float)
    er = rng.normal(0.0, sigma, size=s.shape)
    ei = rng.normal(0.0, sigma, size=s.shape)
    return np.hypot(s + er, ei)


@dataclass
class AugmentedState:
    """Per-acquisition conditional expectations of cos(phase).

    Entries lie in [0, 1), so NaN and infinities are rejected; exact-zero
    magnitudes degenerate to 0.
    """

    cos_phi: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.cos_phi, dtype=float)
        if not np.all((c >= 0) & (c < 1)):
            raise ValueError("cos(phase) expectations must be finite and lie in [0, 1)")
        self.cos_phi = c


def joint_loglik(y, s, sigma2, state: AugmentedState):
    """Augmented joint log-likelihood with cos(phase) at its expectation.

    m log(1/sigma^2) - 1/(2 sigma^2) sum_j { Y_j^2 + S_j^2
                                             - 2 <cos phi_j> Y_j S_j }

    with S_j the noise-free model signal; additive constants are
    omitted.  This is the EM surrogate maximized by the M-steps.
    """
    if not sigma2 > 0:
        raise ValueError(f"sigma^2 must be positive, got {sigma2}")
    y, s = np.asarray(y, dtype=float), np.asarray(s, dtype=float)
    m = y.size
    quad = np.sum(y * y + s * s - 2.0 * state.cos_phi * y * s)
    return float(-m * np.log(sigma2) - quad / (2.0 * sigma2))
