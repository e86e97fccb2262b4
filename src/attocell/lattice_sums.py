"""Interference moment sums over the square LED lattice.

Every moment of the thinned interference has the shape

    S(e) = sum_{(u,v) != (0,0)} ((u a + z_x)^2 + (v a + z_y)^2 + h^2)^(-e)

with e = beta for the mean sum S_m, e = 2 beta for the variance sum S_v
and, in general, e = k beta for the k-th cumulant.  ``moment_sums(geometry,
exponents, zx, zy, sums=..., jl=...)`` evaluates S at every
exponent and every node, as an array of shape (len(exponents), len(zx)).
It is the one place that picks the evaluator:

* ``sums="brute"`` -- direct summation over the truncated window
  |u|, |v| <= ``geometry.trunc``, accumulated in ascending |u|+|v| rings
  whose subtotals are combined by ``math.fsum`` (correctly rounded); the
  terms span ~13 decades between the nearest and farthest sites.  The site
  coordinates are cached per truncation as read-only float64 columns
  already sorted into ring order, so the terms come straight out in ring
  order and nothing is gathered.  A call makes one site pass per node for
  all its exponents in two site-length buffers: D^2 + h^2 is written once
  into the first, then each exponent's weights into the second.
  ``sm_brute`` also attaches an analytic bound on the omitted mass.

* ``sums="series"`` -- the closed form obtained by Poisson summation over
  the dual lattice, vectorized over the nodes:

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
  value next to the weighted contribution, for diagnostics.  A series
  value <= 0 or non-finite raises ``ValueError``: S(e) sums positive
  terms, so the mode window is far too small there (a narrow beam or a low
  mounting) and brute force is the remedy.

``sm_brute`` / ``sv_brute`` and ``sm_series`` / ``sv_series`` are the
per-position forms (exponent beta and 2 beta) returning a ``SumResult``.

With the default truncation j = l = 1 the series uses exactly three modes,
(0,1), (1,0), (1,1), which already lands within ~1e-10 of the brute force
for h/a >= 3; the Bessel factors decay like exp(-2 pi h rho / a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import NetworkGeometry, _site_bases, _site_columns, _site_weights, _with_trunc
from .model import position_xy, tail_bound
from .specfun import bessel_k, gamma

__all__ = [
    "SumResult",
    "moment_sums",
    "sm_brute",
    "sv_brute",
    "sm_series",
    "sv_series",
    "series_mode_terms",
]


@dataclass(frozen=True)
class SumResult:
    """Value of one moment sum; tail_bound bounds the mass omitted outside
    the truncation window of a brute-force sum (None for the series)."""

    value: float
    tail_bound: float | None = None


@lru_cache(maxsize=8)
def _ring_sites(trunc: int):
    """Site coordinates u, v as contiguous read-only float64 columns, sorted
    stably from ``lattice_sites`` order by ascending ring |u|+|v|, and the
    start of each ring for reduceat."""
    u, v = _site_columns(trunc)
    rings = np.abs(u) + np.abs(v)
    order = np.argsort(rings, kind="stable")
    starts = np.concatenate([[0], np.flatnonzero(np.diff(rings[order])) + 1])
    u = u[order]
    v = v[order]
    for column in (u, v, starts):
        column.setflags(write=False)
    return u, v, starts


def _brute_values(geometry: NetworkGeometry, exponents: list[float], zx, zy) -> np.ndarray:
    """The ``sums="brute"`` branch of ``moment_sums``: one site pass per node
    in two site-length buffers, as the module docstring describes."""
    u, v, starts = _ring_sites(geometry.trunc)
    base = np.empty_like(u)
    work = np.empty_like(u)
    values = np.empty((len(exponents), zx.size))
    for i, (x, y) in enumerate(zip(zx.tolist(), zy.tolist())):
        _site_bases(geometry, x, y, u, v, out=base, tmp=work)
        for k, e in enumerate(exponents):
            rings = np.add.reduceat(_site_weights(base, e, out=work), starts)
            values[k, i] = math.fsum(rings.tolist())
    return values


def _check_exponent(exponent: float) -> float:
    e = float(exponent)
    if not (math.isfinite(e) and e > 1.0):
        raise ValueError(f"sum exponent must be finite and > 1, got {exponent!r}")
    return e


def sm_brute(geometry: NetworkGeometry, beta: float, pos, trunc: int | None = None) -> SumResult:
    """Mean sum S_m by direct summation over the lattice truncated at
    ``geometry.trunc``, or at ``trunc`` rings when given (``moment_sums`` at
    one position), with the bound on the mass outside it."""
    e = _check_exponent(beta)
    zx, zy = position_xy(pos)
    geometry = _with_trunc(geometry, trunc)
    value = float(moment_sums(geometry, (e,), zx, zy, "brute")[0, 0])
    return SumResult(value, tail_bound(geometry, e))


def sv_brute(geometry: NetworkGeometry, beta: float, pos, trunc: int | None = None) -> SumResult:
    """Variance sum S_v: identical to ``sm_brute`` with exponent 2 beta."""
    return sm_brute(geometry, 2.0 * _check_exponent(beta), pos, trunc)


def _series_terms(geometry: NetworkGeometry, e: float, zx, zy, jl: tuple[int, int]):
    """Yield (term, weight, value) for every term of the series, in summation
    order: the integral term, the negated self term, then each dual mode in
    the window with its g(w, f) as in the module docstring and its image
    multiplicity relative to an interior mode as weight.  Values are scalars
    or arrays, following zx and zy."""
    a = geometry.pitch
    h = geometry.height
    yield "integral", 1.0, math.pi * h ** (2.0 - 2.0 * e) / (a * a * (e - 1.0))
    yield "self", 1.0, -((zx * zx + zy * zy + h * h) ** (-e))
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
            yield f"mode({w},{f})", weight, radial * np.cos(2.0 * math.pi * w * zx / a) * np.cos(
                2.0 * math.pi * f * zy / a
            )


def _series_value(geometry: NetworkGeometry, exponent: float, zx, zy, jl: tuple[int, int]):
    """Closed-form series; zx, zy may be scalars or equal-shape arrays.
    Adding the negated self term to the integral term gives the same bits as
    subtracting it."""
    value = 0.0
    for _, weight, g in _series_terms(geometry, float(exponent), zx, zy, jl):
        value = value + weight * g
    return value


def _check_jl(jl) -> tuple[int, int]:
    j, l = int(jl[0]), int(jl[1])
    if j < 0 or l < 0:
        raise ValueError(f"mode truncation must be >= (0, 0), got {jl!r}")
    return j, l


def _check_series(geometry: NetworkGeometry, exponents, zx, zy, jl, values) -> None:
    """S(e) sums positive terms, so a series value <= 0 or non-finite means
    the mode window jl is far too small there: raise rather than return it."""
    bad = ~(np.isfinite(values) & (values > 0.0))
    if bad.any():
        k, i = (int(n[0]) for n in np.nonzero(bad))
        raise ValueError(
            f"series sum S(e) at exponent e = {exponents[k]:.6g} is {values[k, i]:.3e} at node "
            f"({zx[i]:.6g}, {zy[i]:.6g}) with h/a = {geometry.height / geometry.pitch:.6g} and "
            f"mode window jl = ({jl[0]}, {jl[1]}); the series has not converged there, use "
            f'sums="brute" (--methods brute) instead'
        )


def moment_sums(
    geometry: NetworkGeometry,
    exponents,
    zx,
    zy,
    sums: str = "series",
    jl: tuple[int, int] = (1, 1),
) -> np.ndarray:
    """S(e) for every exponent at every node (zx[i], zy[i]), as an array of
    shape (len(exponents), len(zx)).

    ``sums="series"`` evaluates the dual-lattice closed form over the mode
    window jl = (j, l), i.e. [0, j] x [0, l] minus the origin; (1, 1) is
    ample for h/a >= 3 and (0, 0) keeps only the integral and self terms.
    ``sums="brute"`` sums the lattice directly out to ``geometry.trunc``
    rings: per node, D^2 + h^2 is computed once and raised to each exponent,
    with two site-length buffers live for the whole call.
    """
    exponents = [_check_exponent(e) for e in exponents]
    zx = np.atleast_1d(np.asarray(zx, dtype=float))
    zy = np.atleast_1d(np.asarray(zy, dtype=float))
    if zx.ndim != 1 or zx.shape != zy.shape:
        raise ValueError(
            f"node coordinates must be 1-D and of equal length, got {zx.shape} and {zy.shape}"
        )
    if sums == "series":
        jl = _check_jl(jl)
        values = np.array([_series_value(geometry, e, zx, zy, jl) for e in exponents])
        _check_series(geometry, exponents, zx, zy, jl, values)
        return values
    if sums == "brute":
        return _brute_values(geometry, exponents, zx, zy)
    raise ValueError(f"sums must be 'series' or 'brute', got {sums!r}")


def sm_series(
    geometry: NetworkGeometry,
    beta: float,
    pos,
    jl: tuple[int, int] = (1, 1),
) -> SumResult:
    """Mean sum S_m by the dual-lattice closed form (``moment_sums`` at one
    position; jl is its mode window)."""
    zx, zy = position_xy(pos)
    return SumResult(float(moment_sums(geometry, (beta,), zx, zy, "series", jl)[0, 0]))


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
    zx, zy = position_xy(pos)
    rows = []
    for term, weight, g in _series_terms(geometry, _check_exponent(exponent), zx, zy, _check_jl(jl)):
        row = {"term": term, "weight": weight, "contribution": float(weight * g)}
        if term.startswith("mode"):
            row["uniform_value"] = float(g)
        rows.append(row)
    return rows
