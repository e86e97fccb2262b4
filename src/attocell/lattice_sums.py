"""Interference moment sums over the square LED lattice.

Every moment of the thinned interference has the shape

    S(e) = sum_{(u,v) != (0,0)} ((u a + z_x)^2 + (v a + z_y)^2 + h^2)^(-e)

with e = beta for the mean sum S_m, e = 2 beta for the variance sum S_v
and, in general, e = k beta for the k-th cumulant.  ``moment_sums(geometry,
exponents, zx, zy, sums=..., jl=...)`` evaluates S at every
exponent and every node, as an array of shape (len(exponents), len(zx)).
It is the one place that picks the evaluator:

* ``sums="brute"`` -- direct summation over the truncated window
  |u|, |v| <= ``geometry.trunc``.  Per node, D^2 + h^2 is written once as a
  (2 trunc + 1)^2 grid, the outer sum of the two squared axes
  (``model._site_bases``; the tagged LED's entry is +inf, so its weight is
  0), then each exponent's weights into a second grid (from a reciprocal,
  squarings and divisions at an integer exponent).  An exponent twice the
  one just before it, when that one is an integer, squares the second grid
  in place instead: bin(2e) is bin(e) followed by a 0, so that is the
  weights of 2e bit for bit, for one pass in place of a reciprocal and
  e's squarings and divisions (``model._site_weights``).  Each grid row is
  added by numpy's pairwise sum and the row subtotals by ``math.fsum``
  (correctly rounded); the terms span ~13 decades between the nearest and
  farthest sites.  Before any sum, ``model.tail_bound`` at every exponent
  refuses a window whose bound on the omitted mass overflows, naming
  ``geometry.pitch``: the one truncation gate of every brute or sampled
  lattice.

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
  VALIDATION.md.  A negative series value raises a ``ValueError`` naming the
  mode window: S(e) sums positive terms, so the window is far too small
  there (a narrow beam or a low mounting) and brute force is the remedy.

``moment_sums`` refuses a sum of 0 or not finite by either evaluator (an
overflow is inf, ``model._or_inf``), as the series' self term
``model._tagged_term`` does, with a ``ValueError`` naming ``geometry.height``
(h far below or above the pitch).

``sm_brute`` / ``sv_brute`` and ``sm_series`` / ``sv_series`` are the
per-position forms (exponent beta and 2 beta) returning a ``SumResult``.

With the default truncation j = l = 1 the series uses exactly three modes,
(0,1), (1,0), (1,1), which already lands within ~1e-10 of the brute force
for h/a >= 3; the Bessel factors decay like exp(-2 pi h rho / a).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import NetworkGeometry, _check_exponent, _check_integer, _site_bases, _site_weights
from .model import _or_inf, _tagged_term, _with_trunc, position_xy, tail_bound
from .specfun import bessel_k, gamma

__all__ = [
    "SumResult",
    "moment_sums",
    "sm_brute",
    "sv_brute",
    "sm_series",
    "sv_series",
]


@dataclass(frozen=True)
class SumResult:
    """Value of one moment sum (``model.tail_bound`` bounds the mass a
    brute-force sum omits)."""

    value: float


def _brute_values(geometry: NetworkGeometry, exponents: list[float], zx, zy) -> np.ndarray:
    """The ``sums="brute"`` branch of ``moment_sums``: one site grid per node
    in two grid buffers, as the module docstring describes."""
    base = weights = None  # made by the first node, reused by the rest
    values = np.empty((len(exponents), zx.size))
    for i, (x, y) in enumerate(zip(zx.tolist(), zy.tolist())):
        base = _site_bases(geometry, x, y, out=base)
        previous = math.nan
        for k, e in enumerate(exponents):
            if previous.is_integer() and e == 2.0 * previous:
                np.multiply(weights, weights, out=weights)  # bin(2e) = bin(e) + "0"
            else:
                weights = _site_weights(base, e, out=weights)
            previous = e
            values[k, i] = math.fsum(weights.sum(axis=1).tolist())
    return values


def sm_brute(geometry: NetworkGeometry, beta: float, pos, trunc: int | None = None) -> SumResult:
    """Mean sum S_m by direct summation over the lattice truncated at
    ``geometry.trunc``, or at ``trunc`` rings when given (``moment_sums`` at
    one position)."""
    zx, zy = position_xy(pos)
    geometry = _with_trunc(geometry, trunc)
    return SumResult(float(moment_sums(geometry, (beta,), zx, zy, "brute")[0, 0]))


def sv_brute(geometry: NetworkGeometry, beta: float, pos, trunc: int | None = None) -> SumResult:
    """Variance sum S_v: identical to ``sm_brute`` with exponent 2 beta."""
    return sm_brute(geometry, 2.0 * _check_exponent(beta), pos, trunc)


def _series_value(geometry: NetworkGeometry, exponent: float, zx, zy, jl: tuple[int, int]):
    """Closed-form series; zx, zy may be scalars or equal-shape arrays.
    The integral term less the self term, then each dual mode in the window
    added in (w, f) row order: g(w, f) as in the module docstring times its
    image multiplicity relative to an interior mode."""
    e = float(exponent)
    a = geometry.pitch
    h = geometry.height
    value = math.pi * h ** (2.0 - 2.0 * e) / (a * a * (e - 1.0)) - _tagged_term(geometry, e, zx, zy)
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
            value = value + weight * (
                radial * np.cos(2.0 * math.pi * w * zx / a) * np.cos(2.0 * math.pi * f * zy / a)
            )
    return value


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
    rings: per node, the grid of D^2 + h^2 is computed once and raised to
    each exponent, with two grid buffers live for the whole call; the rows
    are summed by numpy and the row sums by ``math.fsum``.  An integer
    exponent is raised by a reciprocal, squarings and divisions, so its row
    is the same on every numpy SIMD target; any other exponent by
    ``np.power`` (``model._site_weights``).  Each row depends on its own
    exponent alone, not on which others are asked for or in what order.

    Before it sums, the brute branch refuses a window whose
    ``model.tail_bound`` overflows at any of the exponents, with a
    ``ValueError`` naming ``geometry.pitch``.  Either way, a value of 0 or
    not finite (or a series term that overflows or divides by an
    underflowed 0) raises a ``ValueError`` naming ``geometry.height``, and a
    negative series value one naming the mode window.
    """
    exponents = [_check_exponent(e) for e in exponents]
    zx = np.atleast_1d(np.asarray(zx, dtype=float))
    zy = np.atleast_1d(np.asarray(zy, dtype=float))
    if zx.ndim != 1 or zx.shape != zy.shape:
        raise ValueError(
            f"node coordinates must be 1-D and of equal length, got {zx.shape} and {zy.shape}"
        )
    for node in zip(zx.tolist(), zy.tolist()):
        position_xy(node)
    if sums == "series":
        jl = _check_integer(jl[0], "mode truncation j", 0), _check_integer(jl[1], "mode truncation l", 0)
        values = _or_inf(lambda: np.array([_series_value(geometry, e, zx, zy, jl) for e in exponents]))
    elif sums == "brute":
        for e in exponents:
            tail_bound(geometry, e)  # the truncation gate (see module docstring)
        values = _or_inf(lambda: _brute_values(geometry, exponents, zx, zy))
    else:
        raise ValueError(f"sums must be 'series' or 'brute', got {sums!r}")
    if not np.all(np.isfinite(values) & (values != 0.0)):
        raise ValueError(
            f"geometry.height = {geometry.height!r} puts the {sums} sums S(e) outside the float "
            f"range (h/a = {geometry.height / geometry.pitch:.6g})"
        )
    negative = np.argwhere(values < 0.0)
    if negative.size:
        k, i = negative[0]
        raise ValueError(
            f"series sum S(e) at exponent e = {exponents[k]:.6g} is {values[k, i]:.3e} at node "
            f"({zx[i]:.6g}, {zy[i]:.6g}) with h/a = {geometry.height / geometry.pitch:.6g} and "
            f"mode window jl = ({jl[0]}, {jl[1]}); the series has not converged there, use "
            f'sums="brute" (--methods brute) instead'
        )
    return values


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
