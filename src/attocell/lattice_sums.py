"""Interference moment sums over the square LED lattice.

Both moments of the thinned interference have the shape

    S(e) = sum_{(u,v) != (0,0)} ((u a + z_x)^2 + (v a + z_y)^2 + h^2)^(-e)

with e = beta for the mean sum S_m and e = 2 beta for the variance sum S_v.
Two evaluators are provided:

* ``sm_brute`` / ``sv_brute`` -- direct summation over a truncated window
  |u|, |v| <= trunc, accumulated in ascending |u|+|v| rings with compensated
  (Kahan) combination of the ring subtotals; the terms span ~13 decades
  between the nearest and farthest sites.  An analytic bound on the omitted
  mass is attached to the result.

* ``sm_series`` / ``sv_series`` -- the closed form obtained by Poisson
  summation over the dual lattice:

      S(e) ~= pi h^(2-2e) / (a^2 (e-1))  -  (z^2 + h^2)^(-e)
              + sum_{(w,f) in A} weight(w,f) * g(w,f)

  where A = ([0,j] x [0,l]) \\ (0,0) indexes the non-negative dual modes,

      g(w,f) = K_{e-1}(2 pi h rho / a) cos(2 pi w z_x / a)
               cos(2 pi f z_y / a) /
               [ (h / (2 pi rho))^(e-1) 2^(e-4) a^(e+1) Gamma(e) / pi ],

  rho = sqrt(w^2 + f^2), and K is the modified Bessel function of the
  second kind.  The constant in g makes g(w,f) equal to FOUR dual-lattice
  Fourier coefficients, which is the correct multiplicity only for interior
  modes (w >= 1 and f >= 1, images (+-w, +-f)); the axis modes (w, 0) and
  (0, f) have just two images and enter with weight 1/2.  Brute-force
  comparison confirms the halved axis weight to ~1e-10 relative, while a
  uniform weight of 1 misses by ~1e-5 (S_m) to ~6e-4 (S_v) at h/a = 3; see
  VALIDATION.md.  ``series_mode_terms`` reports each mode's uniform-weight
  value next to the weighted contribution, for diagnostics.

With the default truncation j = l = 1 the series uses exactly three modes,
(0,1), (1,0), (1,1), which already lands within ~1e-10 of the brute force
for h/a >= 3; the Bessel factors decay like exp(-2 pi h rho / a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .model import NetworkGeometry, lattice_sites, position_xy, tail_bound
from .specfun import bessel_k, gamma

__all__ = [
    "SumMethod",
    "SumResult",
    "sm_brute",
    "sv_brute",
    "sm_series",
    "sv_series",
    "series_mode_terms",
]


class SumMethod(Enum):
    BRUTE_FORCE = "brute"
    SERIES = "series"


@dataclass(frozen=True)
class SumResult:
    """Value of one moment sum plus how it was obtained.

    tail_bound is set for brute-force results (bound on the omitted mass
    outside the truncation window); terms_used is set for series results
    (number of dual modes evaluated).
    """

    value: float
    method: SumMethod
    tail_bound: float | None = None
    terms_used: int | None = None


@lru_cache(maxsize=8)
def _ring_order(trunc: int):
    """Site indices sorted by ascending ring |u|+|v| plus the boundaries of
    each ring group, for reduceat."""
    sites = lattice_sites(trunc)
    rings = np.abs(sites[:, 0]) + np.abs(sites[:, 1])
    order = np.argsort(rings, kind="stable")
    sorted_rings = rings[order]
    boundaries = np.flatnonzero(np.diff(sorted_rings)) + 1
    starts = np.concatenate([[0], boundaries])
    order.setflags(write=False)
    starts.setflags(write=False)
    return order, starts


def _brute_value(geometry: NetworkGeometry, exponent: float, zx: float, zy: float, trunc: int) -> float:
    sites = lattice_sites(trunc)
    order, starts = _ring_order(trunc)
    a = geometry.pitch
    h = geometry.height
    dx = sites[order, 0] * a + zx
    dy = sites[order, 1] * a + zy
    terms = (dx * dx + dy * dy + h * h) ** (-float(exponent))
    ring_sums = np.add.reduceat(terms, starts)
    # Kahan combination of the ring subtotals, nearest ring first
    total = 0.0
    comp = 0.0
    for s in ring_sums:
        y = float(s) - comp
        t = total + y
        comp = (t - total) - y
        total = t
    return total


def _check_exponent(exponent: float) -> float:
    e = float(exponent)
    if not (math.isfinite(e) and e > 1.0):
        raise ValueError(f"sum exponent must be finite and > 1, got {exponent!r}")
    return e


def sm_brute(geometry: NetworkGeometry, beta: float, pos, trunc: int | None = None) -> SumResult:
    """Mean sum S_m by direct summation over the truncated lattice."""
    e = _check_exponent(beta)
    zx, zy = position_xy(pos)
    t = geometry.trunc if trunc is None else int(trunc)
    return SumResult(
        value=_brute_value(geometry, e, zx, zy, t),
        method=SumMethod.BRUTE_FORCE,
        tail_bound=tail_bound(geometry, e, t),
    )


def sv_brute(geometry: NetworkGeometry, beta: float, pos, trunc: int | None = None) -> SumResult:
    """Variance sum S_v: identical to ``sm_brute`` with exponent 2 beta."""
    return sm_brute(geometry, 2.0 * _check_exponent(beta), pos, trunc)


def _integral_term(geometry: NetworkGeometry, e: float) -> float:
    a = geometry.pitch
    return math.pi * geometry.height ** (2.0 - 2.0 * e) / (a * a * (e - 1.0))


def _dual_modes(geometry: NetworkGeometry, e: float, zx, zy, jl: tuple[int, int]):
    """Yield (w, f, weight, g(w, f)) for every dual mode in the window, with
    g as in the module docstring (scalar or array, following zx and zy) and
    weight its image multiplicity relative to an interior mode."""
    a = geometry.pitch
    h = geometry.height
    gamma_e = gamma(e)
    for w in range(jl[0] + 1):
        for f in range(jl[1] + 1):
            if w == 0 and f == 0:
                continue
            rho = math.hypot(w, f)
            radial = bessel_k(e - 1.0, 2.0 * math.pi * h * rho / a) / (
                (h / (2.0 * math.pi * rho)) ** (e - 1.0)
                * 2.0 ** (e - 4.0)
                * a ** (e + 1.0)
                * gamma_e
                / math.pi
            )
            weight = 0.5 if (w == 0 or f == 0) else 1.0
            yield w, f, weight, radial * np.cos(2.0 * math.pi * w * zx / a) * np.cos(
                2.0 * math.pi * f * zy / a
            )


def _series_value(geometry: NetworkGeometry, exponent: float, zx, zy, jl: tuple[int, int]):
    """Closed-form series; zx, zy may be scalars or equal-shape arrays."""
    e = float(exponent)
    h = geometry.height
    z2 = zx * zx + zy * zy
    value = _integral_term(geometry, e) - (z2 + h * h) ** (-e)
    for _, _, weight, g in _dual_modes(geometry, e, zx, zy, jl):
        value = value + weight * g
    return value


def _check_jl(jl) -> tuple[int, int]:
    j, l = int(jl[0]), int(jl[1])
    if j < 0 or l < 0:
        raise ValueError(f"mode truncation must be >= (0, 0), got {jl!r}")
    return j, l


def sm_series(
    geometry: NetworkGeometry,
    beta: float,
    pos,
    jl: tuple[int, int] = (1, 1),
) -> SumResult:
    """Mean sum S_m by the dual-lattice closed form.

    jl = (j, l) truncates the dual modes to [0, j] x [0, l] minus the
    origin; (1, 1) is ample for h/a >= 3 and (0, 0) keeps only the integral
    and self terms (useful to expose the size of the Bessel corrections).
    """
    e = _check_exponent(beta)
    j, l = _check_jl(jl)
    zx, zy = position_xy(pos)
    return SumResult(
        value=float(_series_value(geometry, e, zx, zy, (j, l))),
        method=SumMethod.SERIES,
        terms_used=(j + 1) * (l + 1) - 1,
    )


def sv_series(
    geometry: NetworkGeometry,
    beta: float,
    pos,
    jl: tuple[int, int] = (1, 1),
) -> SumResult:
    """Variance sum S_v: the ``sm_series`` closed form at exponent 2 beta."""
    return sm_series(geometry, 2.0 * _check_exponent(beta), pos, jl)


def series_mode_terms(
    geometry: NetworkGeometry,
    exponent: float,
    pos,
    jl: tuple[int, int] = (1, 1),
) -> list[dict]:
    """Per-mode breakdown of the series for reporting.

    Returns one entry per term: the integral and self terms, then each dual
    mode with its multiplicity weight, the uniform-weight value it would
    have contributed, and the weighted contribution actually used.
    """
    e = _check_exponent(exponent)
    zx, zy = position_xy(pos)
    h = geometry.height
    rows = [
        {"term": "integral", "weight": 1.0, "contribution": _integral_term(geometry, e)},
        {"term": "self", "weight": 1.0, "contribution": -((zx * zx + zy * zy + h * h) ** (-e))},
    ]
    for w, f, weight, g in _dual_modes(geometry, e, zx, zy, _check_jl(jl)):
        rows.append(
            {
                "term": f"mode({w},{f})",
                "weight": weight,
                "uniform_value": float(g),
                "contribution": float(weight * g),
            }
        )
    return rows
