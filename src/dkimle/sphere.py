"""Deterministic direction sets on the unit sphere."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

__all__ = ["fibonacci_sphere", "gauss_legendre_sphere"]

_GOLDEN = np.pi * (1.0 + np.sqrt(5.0))


@lru_cache(maxsize=8)
def _fib_cached(n):
    i = np.arange(n) + 0.5
    z = 1.0 - 2.0 * i / n
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = _GOLDEN * i
    out = np.column_stack([r * np.cos(phi), r * np.sin(phi), z])
    out.setflags(write=False)
    return out

def fibonacci_sphere(n: int) -> np.ndarray:
    """n quasi-uniform unit vectors on the Fibonacci spiral lattice."""
    return _fib_cached(int(n))


def gauss_legendre_sphere(n_polar: int, n_azimuth: int):
    """Weighted spherical quadrature nodes; weights sum to one."""
    # product rule: Gauss-Legendre in cos(polar) x uniform azimuth; exact
    # weights make sphere averages of smooth integrands spectrally accurate
    x, w = np.polynomial.legendre.leggauss(n_polar)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    ct = np.repeat(x, n_azimuth)
    wt = np.repeat(w, n_azimuth)
    st = np.sqrt(np.maximum(0.0, 1.0 - ct * ct))
    ph = np.tile(phi, n_polar)
    dirs = np.column_stack([st * np.cos(ph), st * np.sin(ph), ct])
    return dirs, wt / wt.sum()
