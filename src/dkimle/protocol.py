"""Acquisition schemes and the design matrices they induce.

An acquisition is a pair (b, g): a diffusion weighting amplitude b and a
unit gradient direction g.  A protocol is an ordered list of m such pairs,
possibly spanning several b-shells; b = 0 rows are allowed and contribute
zero rows to the tensor design matrices while still informing the signal
amplitude and noise level.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "AcquisitionProtocol",
    "DesignMatrices",
    "build_design",
    "quartic_rows",
    "monomial_vectors",
    "load_protocol",
    "dump_protocol",
]

# |norm(g) - 1| below this is silently accepted at construction time
_NORM_TOL_STRICT = 1e-9
# loaders renormalize gradients whose norm is off by at most this much
_NORM_TOL_LOAD = 1e-6
# monomial_vectors(g) @ (theta_D * PAIR_COUNTS) = g^T D g, off-diagonals counted twice
PAIR_COUNTS = np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])


@dataclass(frozen=True)
class AcquisitionProtocol:
    """An immutable list of (b, g) acquisitions.

    Parameters
    ----------
    bvals : numpy.ndarray
        Shape (m,), diffusion weightings, all >= 0.  Units are the
        caller's choice (s/mm^2 by file convention); the design matrices
        inherit them verbatim.
    bvecs : numpy.ndarray
        Shape (m, 3), unit gradient directions (norm within 1e-9 of 1).
    """

    bvals: np.ndarray
    bvecs: np.ndarray

    def __post_init__(self):
        b = np.atleast_1d(np.asarray(self.bvals, dtype=float))
        g = np.atleast_2d(np.asarray(self.bvecs, dtype=float))
        if b.ndim != 1 or g.shape != (b.size, 3):
            raise ValueError(
                f"need matching bvals (m,) and bvecs (m, 3); got {b.shape} and {g.shape}"
            )
        if b.size == 0:
            raise ValueError("protocol must contain at least one acquisition")
        if not np.all(np.isfinite(b)) or not np.all(np.isfinite(g)):
            raise ValueError("protocol contains non-finite values")
        neg = np.nonzero(b < 0)[0]
        if neg.size:
            raise ValueError(f"negative b value at acquisition {neg[0]}: {b[neg[0]]}")
        norms = np.linalg.norm(g, axis=1)
        bad = np.nonzero(np.abs(norms - 1.0) > _NORM_TOL_STRICT)[0]
        if bad.size:
            raise ValueError(
                f"gradient {bad[0]} has norm {norms[bad[0]]:.12g}, expected 1 "
                f"within {_NORM_TOL_STRICT:g}"
            )
        b.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "bvals", b)
        object.__setattr__(self, "bvecs", g)

    @property
    def m(self) -> int:
        return self.bvals.size

    def rescaled(self, factor: float) -> "AcquisitionProtocol":
        """Return a copy with all b values multiplied by ``factor``.

        Used for unit conversion, e.g. factor 1e-3 maps s/mm^2 to ms/um^2.
        """
        return AcquisitionProtocol(self.bvals * factor, self.bvecs.copy())


@dataclass(frozen=True, eq=False)
class DesignMatrices:
    """Design matrices derived from a protocol.

    ``z_d`` is the m x 6 diffusion design, row j equal to
    -b_j (g1^2, g2^2, g3^2, 2 g1 g2, 2 g1 g3, 2 g2 g3).

    ``z_w`` is the m x 15 kurtosis design whose row j carries the quartic
    monomials of g_j with their symmetry multiplicities, scaled by b_j^2/6.

    ``v`` holds the quadratic monomial vectors
    (g1^2, g2^2, g3^2, g1 g2, g1 g3, g2 g3) used by the sum-of-squares
    kurtosis parametrization.

    A design compares and hashes by identity, so it can key a cache of
    tables derived from it.
    """

    z_d: np.ndarray
    z_w: np.ndarray
    v: np.ndarray
    b: np.ndarray

    @property
    def m(self) -> int:
        return self.b.size

    @cached_property
    def regression(self) -> np.ndarray:
        """The log-linear regression matrix [1 | Z_D | Z_W], read-only."""
        X = np.column_stack([np.ones(self.m), self.z_d, self.z_w])
        X.setflags(write=False)
        return X

    @cached_property
    def regression_rank(self) -> int:
        """``np.linalg.matrix_rank`` of :attr:`regression`, computed once."""
        return int(np.linalg.matrix_rank(self.regression))


def monomial_vectors(g: np.ndarray) -> np.ndarray:
    """Quadratic monomial vectors v for unit directions ``g`` of shape (m, 3)."""
    g = np.atleast_2d(g)
    g1, g2, g3 = g[:, 0], g[:, 1], g[:, 2]
    return np.column_stack([g1 * g1, g2 * g2, g3 * g3, g1 * g2, g1 * g3, g2 * g3])


def quartic_rows(g: np.ndarray) -> np.ndarray:
    """Multiplicity-weighted quartic monomials of directions ``g``, shape (m, 15).

    Row dotted with the 15 distinct kurtosis tensor elements (in design
    order) gives the full rank-4 contraction sum over all index
    permutations, i.e. the directional kurtosis form W_app(g).
    """
    g = np.atleast_2d(g)
    g1, g2, g3 = g[:, 0], g[:, 1], g[:, 2]
    return np.column_stack([
        g1 ** 4, g2 ** 4, g3 ** 4,
        6 * g1 ** 2 * g2 ** 2, 6 * g1 ** 2 * g3 ** 2, 6 * g2 ** 2 * g3 ** 2,
        12 * g1 ** 2 * g2 * g3, 12 * g1 * g2 ** 2 * g3, 12 * g1 * g2 * g3 ** 2,
        4 * g1 ** 3 * g2, 4 * g1 ** 3 * g3, 4 * g2 ** 3 * g1,
        4 * g2 ** 3 * g3, 4 * g3 ** 3 * g1, 4 * g3 ** 3 * g2,
    ])


def build_design(protocol: AcquisitionProtocol) -> DesignMatrices:
    """Construct all design matrices for a protocol.

    Parameters
    ----------
    protocol : AcquisitionProtocol

    Returns
    -------
    DesignMatrices
        With ``z_d`` (m, 6), ``z_w`` (m, 15), ``v`` (m, 6) and ``b`` (m,).
        b = 0 acquisitions produce exactly zero rows in ``z_d`` and ``z_w``.
    """
    # the protocol's constructor already checked b >= 0 and unit gradients
    b = protocol.bvals
    g = protocol.bvecs
    v = monomial_vectors(g)
    z_d = -b[:, None] * (v * PAIR_COUNTS)
    z_w = (b[:, None] ** 2 / 6.0) * quartic_rows(g)
    return DesignMatrices(z_d=z_d, z_w=z_w, v=v, b=b.copy())


def _finite(value, shape) -> bool:
    """Whether parsed JSON is finite numbers in nested lists of these
    lengths (None: any length); NaN and the infinities fail the bound, and
    a boolean or a string is not a number."""
    if shape:
        return (type(value) is list and shape[0] in (None, len(value))
                and all(_finite(item, shape[1:]) for item in value))
    return type(value) in (int, float) and abs(value) <= sys.float_info.max


def json_field(record: dict, key: str, kind=(), default=None):
    """``record[key]``, or ``default`` when absent, checked as parsed JSON:
    ``kind`` ``int`` or ``bool`` takes only a JSON integer or boolean; the
    shape ``()`` a finite JSON number, returned as a float; a longer shape
    nested lists of finite numbers (:func:`_finite`), returned as an array.
    Raises ValueError naming ``key`` otherwise."""
    value = record.get(key, default)
    if kind in (int, bool):
        if type(value) is not kind:
            raise ValueError(f"{key} must be a JSON {'boolean' if kind is bool else 'integer'}")
        return value
    if not _finite(value, kind):
        lengths = " x ".join("m" if n is None else str(n) for n in kind)
        raise ValueError(f"{key} must be " + (f"{lengths} finite numbers" if kind
                                               else "a finite number"))
    return np.array(value, dtype=float) if kind else float(value)


def _parse_text_protocol(text: str):
    bvals, bvecs = [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ValueError(
                f"line {lineno}: expected 'b gx gy gz', got {len(parts)} fields"
            )
        try:
            vals = [float(p) for p in parts]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        bvals.append(vals[0])
        bvecs.append(vals[1:])
    return np.array(bvals, dtype=float), np.array(bvecs, dtype=float)


def load_protocol(text: str) -> AcquisitionProtocol:
    """Parse a protocol from its text or JSON representation.

    Two equivalent formats are accepted:

    * whitespace-separated rows ``b gx gy gz``, with ``#`` comments;
    * a JSON object ``{"bvals": [...], "bvecs": [[gx, gy, gz], ...]}``.

    Gradients whose norm is off unity by more than 1e-9 but at most 1e-6
    are renormalized, and anything farther off is rejected; the other
    rows are kept as written, so a protocol written by
    :func:`dump_protocol` loads back bit for bit.  A zero gradient is
    tolerated on b = 0 rows only (it is replaced by e_x, which no design
    row uses).
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON protocol: {exc}") from None
        b = json_field(obj, "bvals", (None,))
        g = json_field(obj, "bvecs", (b.size, 3))
    else:
        b, g = _parse_text_protocol(text)
    if b.size == 0:
        raise ValueError("protocol is empty")
    # AcquisitionProtocol rejects non-finite values and negative b
    norms = np.linalg.norm(g, axis=1)
    zero_g = norms == 0.0
    if np.any(zero_g & (b > 0)):
        idx = int(np.nonzero(zero_g & (b > 0))[0][0])
        raise ValueError(f"zero gradient on weighted acquisition {idx}")
    g = g.copy()
    g[zero_g] = (1.0, 0.0, 0.0)
    norms = np.linalg.norm(g, axis=1)
    off = np.abs(norms - 1.0)
    bad = np.nonzero(off > _NORM_TOL_LOAD)[0]
    if bad.size:
        raise ValueError(
            f"gradient {bad[0]} has norm {norms[bad[0]]:.8g}, more than "
            f"{_NORM_TOL_LOAD:g} away from 1"
        )
    fix = off > _NORM_TOL_STRICT
    g[fix] /= norms[fix, None]
    return AcquisitionProtocol(b, g)


def dump_protocol(protocol: AcquisitionProtocol) -> str:
    """Render a protocol in the text file format accepted by
    :func:`load_protocol`, with every value written to full precision."""
    lines = ["# b gx gy gz"]
    for b, g in zip(protocol.bvals, protocol.bvecs):
        lines.append(f"{b:.17g} {g[0]:.17g} {g[1]:.17g} {g[2]:.17g}")
    return "\n".join(lines) + "\n"
