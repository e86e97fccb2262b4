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
from .model import NetworkGeometry, OpticalConfig, _check_integer, _noise_floor, _or_inf, _tagged_term, position_xy

__all__ = [
    "CoverageCurve",
    "db_to_linear",
    "eta",
    "conditional_coverage",
    "coverage_spatial",
    "coverage_curve",
    "coverage_curves",
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
) -> np.ndarray:
    """eta at every (threshold, node) pair, shape (len(theta_linear),
    len(zx)): the signal ``model._tagged_term`` over theta, less the noise
    floor.  The floor comes first, so a height whose K^2 leaves the float
    range, or an optical power or responsivity that takes K^2 P_o^2 R_pd^2
    out of it, is refused, naming the field, before the signal is formed."""
    theta = np.atleast_1d(np.asarray(theta_linear, dtype=float))
    bad = theta[~(np.isfinite(theta) & (theta > 0.0))]
    if bad.size:
        raise ValueError(f"theta must be finite and > 0, got {float(bad[0])!r}")
    noise = _noise_floor(optical, geometry)
    zx = np.atleast_1d(np.asarray(zx, dtype=float))
    zy = np.atleast_1d(np.asarray(zy, dtype=float))
    signal = _tagged_term(geometry, optical.beta, zx, zy)
    return _or_inf(lambda: signal[None, :] / theta[:, None] - noise)


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
    case and gives the indicator of mu < eta_value.  A lane with
    eta_value <= 0 gives 0 without an erf call: its first erf argument is
    replaced by one that ``specfun.erf`` saturates to -1; capped at one that
    saturates to +1, it gives an overflowing or infinite eta_value the limit.
    """
    eta_value = np.asarray(eta_value, dtype=float)
    mu = np.asarray(mu, dtype=float)
    sigma1 = np.asarray(sigma1, dtype=float)
    if np.any(sigma1 < 0.0) or np.any(mu < 0.0):
        raise ValueError("mu and sigma1 must be >= 0")
    degenerate = sigma1 == 0.0
    # any positive scale keeps the erf arguments finite in degenerate lanes
    scale = _SQRT2 * np.where(degenerate, 1.0, sigma1)
    # -1 + erf(mu / scale) <= 0 clips to the 0 that the unskipped sum gives;
    # a NaN eta_value keeps its argument, which specfun.erf refuses
    cap = specfun._ERF_SATURATED
    upper = np.where(eta_value <= 0.0, -cap, np.minimum(_or_inf(lambda: (eta_value - mu) / scale), cap))
    mass = np.clip(0.5 * (specfun.erf(upper) + specfun.erf(mu / scale)), 0.0, 1.0)
    value = np.where(degenerate, mu < eta_value, mass) if degenerate.any() else mass
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
    order = _check_integer(order, "quadrature order", 1)
    x, w = _legendre(order)
    x = 0.5 * geometry.pitch * x
    w = 0.5 * w  # per-axis weights now sum to 1
    if not use_symmetry:
        zx, zy = np.meshgrid(x, x, indexing="ij")
        return zx.ravel(), zy.ravel(), np.outer(w, w).ravel()
    # fold +-x pairs (leggauss nodes are symmetric and ascending)
    mid = order // 2
    hx, hw = x[mid:], 2.0 * w[mid:]
    if order % 2:
        hw[0] = w[mid]  # the centre node has no mirror
    # fold the swap symmetry onto the triangle i >= j, in row-major order
    i, j = np.tril_indices(hx.size)
    return hx[i], hx[j], np.where(i == j, 1.0, 2.0) * hw[i] * hw[j]


def _node_sums(geometry: NetworkGeometry, beta: float, zx, zy, sums) -> np.ndarray:
    """S(beta) and S(2 beta) at every node, shape (2, len(zx)): from
    ``moment_sums`` by the named method, which refuses sums outside the float
    range and brute windows whose tail bound overflows, or ``sums`` itself
    when it is such an array of finite values > 0."""
    if isinstance(sums, str):
        return moment_sums(geometry, (beta, 2.0 * beta), zx, zy, sums)
    values = np.asarray(sums, dtype=float)
    if values.shape != (2, zx.size):
        raise ValueError(
            f"sums must be 'series', 'brute' or an array of shape (2, {zx.size}), "
            f"one row per exponent, got shape {values.shape}"
        )
    if not np.all(np.isfinite(values) & (values > 0.0)):
        raise ValueError(f"every entry of the (2, {zx.size}) sums array must be finite and > 0")
    return values


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
    zx, zy, wq = attocell_quadrature(geometry, quad_order, use_symmetry)
    eta_grid = _eta_grid(optical, geometry, zx, zy, theta_linear)
    s_m, s_v = _node_sums(geometry, optical.beta, zx, zy, sums)
    mass = conditional_coverage(eta_grid, p * s_m[None, :], np.sqrt(p * (1.0 - p) * s_v)[None, :])
    return np.clip(mass @ wq, 0.0, 1.0)


def coverage_spatial(
    optical: OpticalConfig,
    geometry: NetworkGeometry,
    p: float,
    theta_linear: float,
    quad_order: int = 32,
) -> float:
    """Coverage probability averaged over the attocell at one linear
    threshold, from the series moment sums on the octant-folded grid
    (``coverage_curve`` takes brute or given sums, and the full grid)."""
    values = _spatial_values(optical, geometry, p, float(theta_linear), quad_order, "series", True)
    return float(values[0])


@dataclass(frozen=True)
class CoverageCurve:
    """Coverage probability against a grid of SINR thresholds (dB); the
    linear thresholds are derived from the dB grid."""

    theta_db: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self):
        if self.theta_db.shape != self.values.shape:
            raise ValueError("theta_db and values must have matching shapes")
        if not np.all((self.values >= 0.0) & (self.values <= 1.0)):
            raise ValueError("coverage values must lie in [0, 1]")
        if self.stderr is not None and self.stderr.shape != self.values.shape:
            raise ValueError("stderr must match the grid shape")

    @property
    def theta_linear(self) -> np.ndarray:
        return db_to_linear(self.theta_db)


def coverage_curve(
    optical: OpticalConfig,
    geometry: NetworkGeometry,
    p: float,
    theta_db,
    quad_order: int = 32,
    sums: str | np.ndarray = "series",
    use_symmetry: bool = True,
) -> CoverageCurve:
    """Spatially averaged coverage over a threshold grid (dB).

    ``sums`` names how the moment sums are computed, "series" (closed form
    over ``moment_sums``' default mode window) or "brute" (out to
    ``geometry.trunc`` rings), or gives them: the (2, nodes) array that
    ``moment_sums(geometry, (beta, 2 beta), zx, zy, ...)`` returns at the
    nodes of ``attocell_quadrature(geometry, quad_order, use_symmetry)``.
    Either way each node's sums serve the whole threshold grid, so the cost
    is at most one lattice-sum pass plus one erf evaluation per
    (node, theta) pair.
    """
    theta_db = np.atleast_1d(np.asarray(theta_db, dtype=float))
    values = _spatial_values(
        optical, geometry, p, db_to_linear(theta_db), quad_order, sums, use_symmetry
    )
    return CoverageCurve(theta_db=theta_db, values=values)


def coverage_curves(
    optical: OpticalConfig,
    geometry: NetworkGeometry,
    p_list,
    theta_db,
    quad_order: int = 32,
    sums: str = "series",
) -> list[CoverageCurve]:
    """``coverage_curve`` for every p in ``p_list``, in order.  The moment
    sums, "series" or "brute", do not depend on p, so they are computed once
    and passed to every curve."""
    p_list = [_check_p(p) for p in p_list]
    zx, zy, _ = attocell_quadrature(geometry, quad_order)
    node_sums = _node_sums(geometry, optical.beta, zx, zy, sums)
    return [
        coverage_curve(optical, geometry, p, theta_db, quad_order, node_sums)
        for p in p_list
    ]


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
    y0, y1 = v[i - 1], v[i]  # y0 >= level > y1: never a flat step
    return float(x0 + (y0 - level) * (x1 - x0) / (y0 - y1))
