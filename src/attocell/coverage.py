"""Analytic coverage probability over the attocell.

The SINR event gamma(z) > theta is equivalent to the weighted-interference
event C < eta with

    C   = sum_i alpha_i (D_i^2 + h^2)^(-beta)              (interference)
    eta = (z^2 + h^2)^(-beta) / theta - sigma^2 / (K^2 P_o^2 R_pd^2)

so the gain constant squares cancel.  The thinned interference C is a sum of
independent scaled Bernoulli terms with mean ``mu = p S_m`` and variance
``sigma1^2 = p (1-p) S_v``; approximating C as Gaussian gives the
conditional coverage

    P[C < eta | z] = [erf((eta - mu) / (sqrt(2) sigma1))
                      + erf(mu / (sqrt(2) sigma1))] / 2

clamped to [0, 1] (the Gaussian mass is taken over [0, eta] because C >= 0,
so eta <= 0 means no coverage).  At p in {0, 1} the interference is
deterministic and the probability degenerates to the indicator of
``mu < eta``.  The spatially averaged coverage is the mean of the
conditional coverage over the a x a attocell, computed with tensor-product
Gauss-Legendre quadrature, optionally folded onto one octant via the 8-fold
dihedral symmetry of the integrand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import specfun
from .lattice_sums import moment_sums
from .model import (
    DerivedConstants,
    NetworkGeometry,
    OpticalConfig,
    position_xy,
)

__all__ = [
    "CoverageCurve",
    "db_to_linear",
    "eta",
    "conditional_coverage",
    "coverage_spatial",
    "coverage_curve",
    "attocell_quadrature",
    "threshold_at_level",
]

_SQRT2 = math.sqrt(2.0)


def db_to_linear(theta_db):
    """Electrical SINR threshold: theta = 10^(dB/10)."""
    return 10.0 ** (np.asarray(theta_db, dtype=float) / 10.0)


def _eta_grid(
    optical: OpticalConfig,
    geometry: NetworkGeometry,
    zx,
    zy,
    theta_linear,
    consts: DerivedConstants | None = None,
) -> np.ndarray:
    """eta at every (threshold, node) pair, shape (len(theta_linear),
    len(zx)): the signal over theta, less the noise floor."""
    theta = np.atleast_1d(np.asarray(theta_linear, dtype=float))
    bad = theta[~(np.isfinite(theta) & (theta > 0.0))]
    if bad.size:
        raise ValueError(f"theta must be finite and > 0, got {float(bad[0])!r}")
    if consts is None:
        consts = DerivedConstants.from_configs(optical, geometry)
    zx = np.atleast_1d(np.asarray(zx, dtype=float))
    zy = np.atleast_1d(np.asarray(zy, dtype=float))
    signal = (zx * zx + zy * zy + geometry.height**2) ** (-consts.beta)
    noise = consts.noise_var / (
        consts.gain_const**2 * optical.power**2 * optical.responsivity**2
    )
    return signal[None, :] / theta[:, None] - noise


def eta(
    optical: OpticalConfig,
    geometry: NetworkGeometry,
    pos,
    theta_linear: float,
) -> float:
    """Interference threshold eta(z, theta); may be negative once noise
    alone pushes the SINR below theta."""
    zx, zy = position_xy(pos)
    return float(_eta_grid(optical, geometry, zx, zy, theta_linear)[0, 0])


def conditional_coverage(eta_value, mu, sigma1):
    """Gaussian mass of the interference on [0, eta], clamped to [0, 1].

    Accepts floats, which give a float, or arrays that broadcast together.
    A lane with sigma1 = 0 is the degenerate (deterministic interference)
    case and gives the indicator of mu < eta_value.
    """
    mu = np.asarray(mu, dtype=float)
    sigma1 = np.asarray(sigma1, dtype=float)
    if np.any(sigma1 < 0.0) or np.any(mu < 0.0):
        raise ValueError("mu and sigma1 must be >= 0")
    degenerate = sigma1 == 0.0
    # any positive scale keeps the erf arguments finite in degenerate lanes
    scale = _SQRT2 * np.where(degenerate, 1.0, sigma1)
    mass = np.clip(0.5 * (specfun.erf((eta_value - mu) / scale) + specfun.erf(mu / scale)), 0.0, 1.0)
    value = np.where(degenerate, mu < eta_value, mass)
    return float(value) if np.ndim(value) == 0 else value


def _check_p(p: float) -> float:
    p = float(p)
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"thinning probability must be in [0, 1], got {p!r}")
    return p


@lru_cache(maxsize=8)
def _legendre(order: int):
    """Gauss-Legendre nodes and weights of one order on [-1, 1], as
    read-only arrays: a constant table, built once per order."""
    x, w = np.polynomial.legendre.leggauss(order)
    for column in (x, w):
        column.setflags(write=False)
    return x, w


def attocell_quadrature(
    geometry: NetworkGeometry, order: int, use_symmetry: bool = True
):
    """Tensor Gauss-Legendre nodes over the attocell [-a/2, a/2]^2.

    Returns (zx, zy, weights) with weights summing to 1 (the 1/a^2 spatial
    averaging is folded in).  With ``use_symmetry`` the grid is folded onto
    one octant through the mirror and swap symmetries of the integrand,
    cutting the node count roughly 8x without changing the sum beyond
    roundoff.
    """
    order = int(order)
    if order < 1:
        raise ValueError(f"quadrature order must be >= 1, got {order!r}")
    x, w = _legendre(order)
    x = 0.5 * geometry.pitch * x
    w = 0.5 * w  # per-axis weights now sum to 1
    if not use_symmetry:
        zx, zy = np.meshgrid(x, x, indexing="ij")
        return zx.ravel(), zy.ravel(), np.outer(w, w).ravel()
    # fold +-x pairs (leggauss nodes are symmetric and ascending)
    mid = order // 2
    if order % 2 == 0:
        hx = x[mid:]
        hw = 2.0 * w[mid:]
    else:
        hx = x[mid:]
        hw = np.concatenate([[w[mid]], 2.0 * w[mid + 1 :]])
    # fold the swap symmetry onto the triangle i >= j, in row-major order
    i, j = np.tril_indices(hx.size)
    return hx[i], hx[j], np.where(i == j, 1.0, 2.0) * hw[i] * hw[j]


def _spatial_values(
    optical: OpticalConfig,
    geometry: NetworkGeometry,
    p: float,
    theta_linear,
    quad_order: int,
    sums: str,
    use_symmetry: bool,
) -> np.ndarray:
    """The one path behind ``coverage_spatial`` and ``coverage_curve``: per
    threshold, the Gaussian mass at every quadrature node, weighted and summed."""
    p = _check_p(p)
    consts = DerivedConstants.from_configs(optical, geometry)
    zx, zy, wq = attocell_quadrature(geometry, quad_order, use_symmetry)
    eta_grid = _eta_grid(optical, geometry, zx, zy, theta_linear, consts)
    s_m, s_v = moment_sums(geometry, (consts.beta, 2.0 * consts.beta), zx, zy, sums)
    mass = conditional_coverage(eta_grid, p * s_m[None, :], np.sqrt(p * (1.0 - p) * s_v)[None, :])
    return np.clip(mass @ wq, 0.0, 1.0)


def coverage_spatial(
    optical: OpticalConfig,
    geometry: NetworkGeometry,
    p: float,
    theta_linear: float,
    quad_order: int = 32,
    sums: str = "series",
    use_symmetry: bool = True,
) -> float:
    """Coverage probability averaged over the attocell at one threshold, with
    the moment sums from ``sums="series"`` (closed form over ``moment_sums``'
    default mode window) or ``"brute"`` (out to ``geometry.trunc`` rings)."""
    values = _spatial_values(
        optical, geometry, p, float(theta_linear), quad_order, sums, use_symmetry
    )
    return float(values[0])


@dataclass(frozen=True)
class CoverageCurve:
    """Coverage probability against a grid of SINR thresholds."""

    theta_db: np.ndarray
    theta_linear: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self):
        if not (self.theta_db.shape == self.theta_linear.shape == self.values.shape):
            raise ValueError("theta grids and values must have matching shapes")
        if np.any(self.values < 0.0) or np.any(self.values > 1.0):
            raise ValueError("coverage values must lie in [0, 1]")
        if self.stderr is not None and self.stderr.shape != self.values.shape:
            raise ValueError("stderr must match the grid shape")


def coverage_curve(
    optical: OpticalConfig,
    geometry: NetworkGeometry,
    p: float,
    theta_db,
    quad_order: int = 32,
    sums: str = "series",
    use_symmetry: bool = True,
) -> CoverageCurve:
    """Spatially averaged coverage over a threshold grid (dB).

    The moment sums are evaluated once per quadrature node and reused across
    the grid, so the cost is one lattice-sum pass plus one erf evaluation
    per (node, theta) pair.
    """
    theta_db = np.atleast_1d(np.asarray(theta_db, dtype=float))
    theta_lin = db_to_linear(theta_db)
    values = _spatial_values(
        optical, geometry, p, theta_lin, quad_order, sums, use_symmetry
    )
    return CoverageCurve(
        theta_db=theta_db,
        theta_linear=theta_lin,
        values=values,
    )


def threshold_at_level(curve: CoverageCurve, level: float) -> float | None:
    """Threshold (dB) at which a nonincreasing curve crosses ``level``,
    linearly interpolated on the grid; None if it never does."""
    v = curve.values
    below = np.flatnonzero(v < level)
    if below.size == 0:
        return None
    i = int(below[0])
    if i == 0:
        return float(curve.theta_db[0])
    x0, x1 = curve.theta_db[i - 1], curve.theta_db[i]
    y0, y1 = v[i - 1], v[i]
    if y0 == y1:
        return float(x1)
    return float(x0 + (y0 - level) * (x1 - x0) / (y0 - y1))
