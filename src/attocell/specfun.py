"""Special functions used by the closed-form coverage pipeline.

Three real-argument kernels are provided:

* :func:`erf` -- Gaussian error function, for the conditional coverage
  probability and the normal CDF; ``math.erf`` element by element, with a
  float-or-array contract and a check for non-finite input.  Values with
  |x| >= 6 take ``math.erf``'s own value there, exactly +-1.0, without the
  call.
* :func:`gamma` -- Euler gamma for positive arguments, for the dual-lattice
  series prefactors; ``math.gamma`` behind a domain check.
* :func:`bessel_k` -- modified Bessel function of the second kind with real
  order ``nu >= 0``, for the exponentially decaying dual-lattice terms.  It
  has no standard-library equivalent and is implemented here.

All functions are pure and hold no state, so they are safe to call from any
number of threads.  Accuracy targets (checked against independent oracles in
the test suite): erf and gamma better than 1e-12 relative, ``bessel_k``
better than 1e-10 relative over ``x in [0.5, 200]``, ``nu in [0, 13]``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["erf", "gamma", "bessel_k"]

_EPS = float(np.finfo(float).eps)

# From here on math.erf returns exactly +-1.0: fdlibm and the libms derived
# from it (glibc, musl, the BSDs, macOS) compute one - tiny there, which
# rounds to one.
_ERF_SATURATED = 6.0


def erf(x):
    """Gaussian error function (2/sqrt(pi)) * integral_0^x exp(-t^2) dt.

    Accepts a float or an ndarray and returns the matching type (an array
    of the input's shape); every value is ``math.erf`` of the input, which
    for |x| >= 6 is taken as +-1.0 without the call.  Non-finite input
    raises ``ValueError``.
    """
    array = isinstance(x, np.ndarray)
    values = np.asarray(x if array else float(x), dtype=float)
    if not np.all(np.isfinite(values)):
        raise ValueError("erf: non-finite input")
    flat = values.ravel()  # 1-d even for a 0-d input, so it can be indexed
    out = np.copysign(1.0, flat)
    inner = np.abs(flat) < _ERF_SATURATED
    kept = flat[inner]
    out[inner] = np.fromiter(map(math.erf, kept), float, kept.size)
    return out.reshape(values.shape) if array else float(out[0])


def gamma(x: float) -> float:
    """Euler gamma function for x > 0 (``math.gamma``).

    Only positive arguments are supported (the series prefactors never need
    the poles); x <= 0, non-finite input or x past ~171.6, where the value
    overflows a double, raises ``ValueError``.
    """
    x = float(x)
    if not math.isfinite(x) or x <= 0.0:
        raise ValueError(f"gamma: argument must be finite and > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise ValueError(f"gamma: argument {x!r} overflows a double (limit ~171.6)") from None


# Maclaurin coefficients of 1/Gamma(1+x) (Abramowitz & Stegun 6.1.34); the
# 26 terms give full double precision for |x| <= 0.5.
_INV_GAMMA1P = (
    1.0000000000000000e0,
    5.7721566490153286e-1,
    -6.5587807152025388e-1,
    -4.2002635034095236e-2,
    1.6653861138229149e-1,
    -4.2197734555544337e-2,
    -9.6219715278769736e-3,
    7.2189432466630995e-3,
    -1.1651675918590651e-3,
    -2.1524167411495098e-4,
    1.2805028238811619e-4,
    -2.0134854780788239e-5,
    -1.2504934821426707e-6,
    1.1330272319816959e-6,
    -2.0563384169776071e-7,
    6.1160951044814158e-9,
    5.0020076444692229e-9,
    -1.1812745704870201e-9,
    1.0434267116911005e-10,
    7.7822634399050712e-12,
    -3.6968056186422057e-12,
    5.1003702874544760e-13,
    -2.0583260535665068e-14,
    -5.3481225394230180e-15,
    1.2267786282382608e-15,
    -1.1812593016974588e-16,
)


def _inv_gamma1p(x: float) -> float:
    # 1/Gamma(1+x) for |x| <= 0.5
    acc = 0.0
    for c in reversed(_INV_GAMMA1P):
        acc = acc * x + c
    return acc


def _temme_gammas(mu: float):
    """Temme's Gamma1, Gamma2 and 1/Gamma(1 +- mu) for |mu| <= 1/2.

    Gamma1 = [1/Gamma(1-mu) - 1/Gamma(1+mu)] / (2 mu) is evaluated from the
    odd part of the 1/Gamma(1+x) Maclaurin series, which stays well
    conditioned as mu -> 0 (the direct difference would cancel).
    """
    gampl = _inv_gamma1p(mu)
    gammi = _inv_gamma1p(-mu)
    mu2 = mu * mu
    odd = 0.0
    for c in reversed(_INV_GAMMA1P[1::2]):
        odd = odd * mu2 + c
    gam1 = -odd
    gam2 = 0.5 * (gammi + gampl)
    return gam1, gam2, gampl, gammi


_BESSEL_MAX_ITER = 1000
# exp(-x) underflows well before this; K_nu(x) is then 0 in double precision
_BESSEL_UNDERFLOW_X = 705.0


def bessel_k(nu: float, x: float) -> float:
    """Modified Bessel function of the second kind K_nu(x), real order.

    Parameters
    ----------
    nu : float
        Order, must be >= 0 (K is even in its order, so this loses nothing).
    x : float
        Argument, must be > 0.

    Returns
    -------
    float
        K_nu(x).  For arguments so large that exp(-x) underflows the result
        is 0.0, which is the correctly rounded value, not an error.

    Notes
    -----
    The order is split as ``nu = n + mu`` with ``|mu| <= 1/2``.  ``K_mu`` and
    ``K_{mu+1}`` come from Temme's series for x <= 2 (N. M. Temme,
    J. Comput. Phys. 19 (1975) 324) and from the Steed/Thompson-Barnett
    continued fraction for x > 2; upward recurrence in the order (stable for
    K) then reaches ``nu``.  Worst observed relative error against a
    quadrature oracle is a few 1e-15 over the tested domain.
    """
    nu = float(nu)
    x = float(x)
    if not (math.isfinite(nu) and math.isfinite(x)):
        raise ValueError("bessel_k: non-finite input")
    if x <= 0.0:
        raise ValueError(f"bessel_k: argument must be > 0, got {x!r}")
    if nu < 0.0:
        raise ValueError(f"bessel_k: order must be >= 0, got {nu!r}")
    if x > _BESSEL_UNDERFLOW_X:
        return 0.0

    n = int(nu + 0.5)
    mu = nu - n

    if x <= 2.0:
        # Temme's series for K_mu and K_{mu+1}
        x2 = 0.5 * x
        pimu = math.pi * mu
        fact = 1.0 if abs(pimu) < 1e-15 else pimu / math.sin(pimu)
        d = -math.log(x2)
        e = mu * d
        fact2 = 1.0 if abs(e) < 1e-15 else math.sinh(e) / e
        gam1, gam2, gampl, gammi = _temme_gammas(mu)
        ff = fact * (gam1 * math.cosh(e) + gam2 * fact2 * d)
        total = ff
        e = math.exp(e)
        p = 0.5 * e / gampl
        q = 0.5 / (e * gammi)
        c = 1.0
        d2 = x2 * x2
        total1 = p
        for i in range(1, _BESSEL_MAX_ITER):
            ff = (i * ff + p + q) / (i * i - mu * mu)
            c *= d2 / i
            p /= i - mu
            q /= i + mu
            delta = c * ff
            total += delta
            total1 += c * (p - i * ff)
            if abs(delta) < abs(total) * _EPS:
                break
        else:
            raise RuntimeError("bessel_k: series did not converge")
        k_mu = total
        k_mu1 = total1 * (2.0 / x)
    else:
        # Evaluate the continued fraction CF2 for K_mu/K_{mu+1}
        b = 2.0 * (1.0 + x)
        d = 1.0 / b
        h = delh = d
        q1, q2 = 0.0, 1.0
        a1 = 0.25 - mu * mu
        q = c = a1
        a = -a1
        s = 1.0 + q * delh
        for i in range(2, _BESSEL_MAX_ITER):
            a -= 2 * (i - 1)
            c = -a * c / i
            qnew = (q1 - b * q2) / a
            q1, q2 = q2, qnew
            q += c * qnew
            b += 2.0
            d = 1.0 / (b + a * d)
            delh = (b * d - 1.0) * delh
            h += delh
            dels = q * delh
            s += dels
            if abs(dels / s) < _EPS:
                break
        else:
            raise RuntimeError("bessel_k: continued fraction did not converge")
        h = a1 * h
        k_mu = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x) / s
        k_mu1 = k_mu * (mu + x + 0.5 - h) / x

    # upward recurrence K_{m+1} = (2m/x) K_m + K_{m-1} up to order nu
    for i in range(n):
        k_mu, k_mu1 = k_mu1, (mu + i + 1) * (2.0 / x) * k_mu1 + k_mu
    return k_mu
