"""Independent reference implementations used only by the tests.

Each oracle deliberately avoids the algorithm used by the library, and none
imports ``attocell``: erf is summed as the alternating Maclaurin series in
60-digit arithmetic, gamma comes from mpmath's arbitrary-precision
evaluation, and K_nu is computed by direct quadrature of its integral
representation

    K_nu(x) = integral_0^inf exp(-x cosh t) cosh(nu t) dt.

The electrical SINR is written out from the model's formula in its
undivided form, with no gain constant cancelled, over site indices of its
own; it checks that ``coverage.eta`` encodes the SINR's threshold event.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np


def erf_maclaurin(x: float, dps: int = 60) -> float:
    """erf by the Maclaurin series sum_k (-1)^k x^(2k+1) / (k! (2k+1)),
    summed in high precision until the terms fall below 10^-(dps-5)."""
    with mpmath.mp.workdps(dps):
        xm = mpmath.mpf(float(x))
        total = mpmath.mpf(0)
        tiny = mpmath.mpf(10) ** (-(dps - 5))
        k = 0
        while True:
            term = (-1) ** k * xm ** (2 * k + 1) / (mpmath.factorial(k) * (2 * k + 1))
            total += term
            if abs(term) < tiny * max(abs(total), mpmath.mpf(1)):
                break
            k += 1
        return float(2 / mpmath.sqrt(mpmath.pi) * total)


def gamma_reference(x: float) -> float:
    """High-precision gamma, independent of any Lanczos fit."""
    with mpmath.mp.workdps(40):
        return float(mpmath.gamma(mpmath.mpf(float(x))))


def bessel_k_integral(nu: float, x: float, step: float = 0.004) -> float:
    """K_nu(x) by trapezoidal quadrature of exp(-x cosh t) cosh(nu t).

    The integrand is even and analytic, so the trapezoid rule converges
    superalgebraically in the step; the upper limit is pushed until the
    integrand has decayed by ~320 decades relative to its peak.
    """
    nu = float(nu)
    x = float(x)
    t_max = 1.0
    while x * math.cosh(t_max) - nu * t_max < 745.0 + 60.0:
        t_max *= 1.25
    t = np.arange(0.0, t_max, step)
    nt = nu * t
    # log cosh(nu t), stable for large arguments
    log_cosh = np.where(
        nt > 30.0,
        nt - math.log(2.0),
        np.log(np.cosh(np.minimum(nt, 30.0))),
    )
    log_f = -x * np.cosh(t) + log_cosh
    f = np.where(log_f < -745.0, 0.0, np.exp(np.maximum(log_f, -745.0)))
    return float(np.trapezoid(f, dx=step))


def lattice_indices(trunc: int) -> np.ndarray:
    """Interferer indices (u, v), |u|, |v| <= trunc, origin left out, as a
    ((2 trunc + 1)^2 - 1, 2) integer array in row-major order (u slow, v
    fast): the site order of ``model.interference_weights``."""
    axis = np.arange(-trunc, trunc + 1)
    u, v = np.repeat(axis, axis.size), np.tile(axis, axis.size)
    keep = (u != 0) | (v != 0)
    return np.column_stack([u[keep], v[keep]])


def sinr_reference(optical, geometry, pos, alphas) -> float:
    """Electrical SINR at the PD ``pos`` when the interferer of site i of
    ``lattice_indices(geometry.trunc)`` transmits with weight alphas[i]:

        m = -ln 2 / ln cos(theta_h),  K = (m+1) A_pd h^(m+1) / (2 pi),
        G = K (D^2 + h^2)^(-(m+3)/2),
        SINR = P_o^2 G_0^2 R_pd^2 / (sum_i alpha_i P_o^2 G_i^2 R_pd^2 + N_o W),

    site (u, v) at horizontal offset D = (u a + z_x, v a + z_y) from the PD.
    ``optical`` and ``geometry`` are read by attribute only."""
    h = geometry.height
    m = -math.log(2.0) / math.log(math.cos(optical.half_angle))
    k = (m + 1.0) * optical.pd_area * h ** (m + 1.0) / (2.0 * math.pi)

    def received(dx, dy):  # P_o^2 G^2 R_pd^2 at horizontal offset (dx, dy)
        gain = k * (dx * dx + dy * dy + h * h) ** (-(m + 3.0) / 2.0)
        return (optical.power * gain * optical.responsivity) ** 2

    sites = lattice_indices(geometry.trunc) * geometry.pitch
    interference = np.dot(alphas, received(sites[:, 0] + pos[0], sites[:, 1] + pos[1]))
    return float(received(pos[0], pos[1]) / (interference + optical.noise_psd * optical.bandwidth))
