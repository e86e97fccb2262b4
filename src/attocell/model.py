"""Physical model of a square-grid LiFi attocell downlink.

Ceiling LEDs sit on an infinite square lattice with pitch ``a`` at height
``h`` above the receiver plane; the photodiode (PD) lies on the floor at
``(z_x, z_y)`` inside the attocell of the tagged LED at the origin.  Every
LED is intensity-modulated with the same average optical power and a
Lambertian emission pattern; each non-tagged LED carries data (and therefore
interferes) independently with probability ``p``.

Units are plain SI throughout: metres, watts, amperes.  All configuration
objects are immutable after construction and every function here is pure.

The line-of-sight electrical quantities implemented below:

* Lambertian order       ``m = -ln 2 / ln cos(theta_h)``
* squared-gain exponent  ``beta = m + 3``
* gain constant          ``K = (m+1) A_pd h^(m+1) / (2 pi)``
  (kept verbatim, including the odd h^(m+1) dimensions; K^2 cancels from
  every coverage expression)
* channel gain           ``G(d) = K (d^2 + h^2)^(-beta/2)``
* receiver noise         ``sigma^2 = N_o W``
* electrical SINR        ``P_o^2 G_0^2 R_pd^2 /
  (sum_i alpha_i P_o^2 G_i^2 R_pd^2 + sigma^2)``
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "OpticalConfig",
    "NetworkGeometry",
    "DerivedConstants",
    "TABLE_DEFAULT_OPTICS",
    "lambertian_order",
    "channel_gain",
    "sinr",
    "lattice_sites",
    "interference_weights",
    "tail_bound",
]


def lambertian_order(half_angle: float) -> float:
    """Lambertian emission order m = -ln 2 / ln cos(half_angle).

    ``half_angle`` is the half-power semi-angle in radians and must lie in
    the open interval (0, pi/2); m is then strictly positive.
    """
    half_angle = float(half_angle)
    if not (0.0 < half_angle < math.pi / 2):
        raise ValueError(
            f"half-power semi-angle must be in (0, pi/2) rad, got {half_angle!r}"
        )
    return -math.log(2.0) / math.log(math.cos(half_angle))


@dataclass(frozen=True)
class OpticalConfig:
    """LED and photodiode parameters.

    power:        average optical power per LED, W
    pd_area:      photodiode area, m^2
    responsivity: photodiode responsivity, A/W
    half_angle:   LED half-power semi-angle, rad, in (0, pi/2)
    noise_psd:    noise power spectral density at the PD, A^2/Hz
    bandwidth:    modulation bandwidth, Hz
    """

    power: float
    pd_area: float
    responsivity: float
    half_angle: float
    noise_psd: float
    bandwidth: float

    def __post_init__(self):
        for name in ("power", "pd_area", "responsivity", "noise_psd", "bandwidth"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"optical.{name} must be finite and > 0, got {v!r}")
        if not (0.0 < self.half_angle < math.pi / 2):
            raise ValueError(
                f"optical.half_angle must be in (0, pi/2) rad, got {self.half_angle!r}"
            )


@dataclass(frozen=True)
class NetworkGeometry:
    """Square-lattice layout: pitch a (m), mounting height h (m) and the
    truncation half-width of the interferer lattice, in rings of sites."""

    pitch: float
    height: float
    trunc: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.pitch) and self.pitch > 0):
            raise ValueError(f"geometry.pitch must be > 0, got {self.pitch!r}")
        if not (math.isfinite(self.height) and self.height > 0):
            raise ValueError(f"geometry.height must be > 0, got {self.height!r}")
        if int(self.trunc) != self.trunc or self.trunc < 1:
            raise ValueError(f"geometry.trunc must be an integer >= 1, got {self.trunc!r}")


def _with_trunc(geometry: NetworkGeometry, trunc: int | None) -> NetworkGeometry:
    """``geometry`` truncated at ``trunc`` rings (None keeps its own), checked
    as any geometry is: how a ``trunc=`` override takes effect."""
    return geometry if trunc is None else replace(geometry, trunc=trunc)


def position_xy(pos) -> tuple[float, float]:
    """The PD location on the floor plane, metres from the tagged LED's axis,
    from any (x, y) pair."""
    x, y = pos
    return float(x), float(y)


@dataclass(frozen=True)
class DerivedConstants:
    """Quantities derived from an (optics, geometry) pair.

    m:          Lambertian order
    beta:       m + 3, the exponent of the squared channel gain
    gain_const: K = (m+1) A_pd h^(m+1) / (2 pi)
    noise_var:  sigma^2 = N_o W, A^2
    """

    m: float
    beta: float
    gain_const: float
    noise_var: float

    @classmethod
    def from_configs(cls, optical: OpticalConfig, geometry: NetworkGeometry) -> "DerivedConstants":
        m = lambertian_order(optical.half_angle)
        k = (m + 1.0) * optical.pd_area * geometry.height ** (m + 1.0) / (2.0 * math.pi)
        return cls(m=m, beta=m + 3.0, gain_const=k, noise_var=optical.noise_psd * optical.bandwidth)


# Table of optics used by the shipped default configuration (see cli):
# 1 W LEDs, 1 cm^2 PD, 0.1 A/W, 60 degree half-angle (m = 1), thermal-noise
# PSD 4.14e-21 A^2/Hz over 40 MHz.
TABLE_DEFAULT_OPTICS = OpticalConfig(
    power=1.0,
    pd_area=1e-4,
    responsivity=0.1,
    half_angle=math.pi / 3,
    noise_psd=4.14e-21,
    bandwidth=40e6,
)


def channel_gain(consts: DerivedConstants, geometry: NetworkGeometry, d_horiz: float) -> float:
    """Line-of-sight channel gain K (d^2 + h^2)^(-beta/2) at horizontal
    distance ``d_horiz`` (m) from the LED axis; strictly decreasing in d."""
    d = float(d_horiz)
    if d < 0:
        raise ValueError(f"horizontal distance must be >= 0, got {d!r}")
    h = geometry.height
    return consts.gain_const * (d * d + h * h) ** (-0.5 * consts.beta)


@lru_cache(maxsize=8)
def _site_columns(trunc: int):
    """Site coordinates u and v in ``lattice_sites`` order, as contiguous
    read-only float64 columns: the form every weight computation reads."""
    if trunc < 1:
        raise ValueError(f"trunc must be >= 1, got {trunc!r}")
    rng = np.arange(-trunc, trunc + 1, dtype=np.float64)
    u, v = np.meshgrid(rng, rng, indexing="ij")
    keep = ~((u == 0) & (v == 0))
    u = u[keep]
    v = v[keep]
    u.setflags(write=False)
    v.setflags(write=False)
    return u, v


def lattice_sites(trunc: int) -> np.ndarray:
    """Interferer lattice indices (u, v), |u|,|v| <= trunc, origin excluded.

    Returns a read-only array of shape ((2 trunc + 1)^2 - 1, 2) in row-major
    order (u slow, v fast).  This ordering is the contract for every
    thinning realization: ``alphas[i]`` refers to ``lattice_sites(trunc)[i]``.
    """
    sites = np.column_stack(_site_columns(int(trunc))).astype(np.int64)
    sites.setflags(write=False)
    return sites


def _site_bases(
    geometry: NetworkGeometry, zx: float, zy: float, u: np.ndarray, v: np.ndarray, out=None, tmp=None
) -> np.ndarray:
    """D^2 + h^2 = (u a + z_x)^2 + (v a + z_y)^2 + h^2 per site of the
    coordinate columns u, v, in their order: the base of every weight,
    written into ``out`` with ``tmp`` as its one temporary (each fresh when
    None)."""
    base = np.multiply(u, geometry.pitch, out=out)
    base += zx
    base *= base
    dy = np.multiply(v, geometry.pitch, out=tmp)
    dy += zy
    dy *= dy
    base += dy
    base += geometry.height**2
    return base


def _site_weights(base: np.ndarray, exponent: float, out=None) -> np.ndarray:
    """(D^2 + h^2)^(-exponent) from the bases of ``_site_bases``, written into
    ``out`` (fresh when None; ``base`` itself is allowed).  With
    ``_site_bases``, the one home of the weight formula."""
    return np.power(base, -float(exponent), out=out)


def interference_weights(geometry: NetworkGeometry, exponent: float, pos) -> np.ndarray:
    """Per-site weights (D_i^2 + h^2)^(-exponent) over the lattice truncated
    at ``geometry.trunc``, in ``lattice_sites`` order; with exponent beta
    they are the interferers' squared gains over K^2."""
    zx, zy = position_xy(pos)
    base = _site_bases(geometry, zx, zy, *_site_columns(geometry.trunc))
    return _site_weights(base, exponent, out=base)


def sinr(
    optical: OpticalConfig,
    geometry: NetworkGeometry,
    pos,
    alphas: np.ndarray,
    consts: DerivedConstants | None = None,
) -> float:
    """Electrical SINR at the PD for one thinning realization.

    ``alphas`` assigns 0/1 to every site of ``lattice_sites(geometry.trunc)``
    in that exact order.  The tagged LED at the origin always transmits; the
    realization only controls the interferers.
    """
    if consts is None:
        consts = DerivedConstants.from_configs(optical, geometry)
    alphas = np.asarray(alphas)
    n_sites = (2 * geometry.trunc + 1) ** 2 - 1
    if alphas.shape != (n_sites,):
        raise ValueError(
            f"alphas must have shape ({n_sites},) matching lattice_sites({geometry.trunc})"
        )
    zx, zy = position_xy(pos)
    h = geometry.height
    beta = consts.beta
    pr2 = (optical.power * optical.responsivity) ** 2
    k2 = consts.gain_const**2
    signal = pr2 * k2 * (zx * zx + zy * zy + h * h) ** (-beta)
    weights = interference_weights(geometry, beta, (zx, zy))
    interference = pr2 * k2 * float(np.dot(alphas.astype(float), weights))
    return signal / (interference + consts.noise_var)


def tail_bound(geometry: NetworkGeometry, exponent: float) -> float:
    """Upper bound on the lattice-sum mass outside the window truncated at
    ``geometry.trunc``.

    Every omitted site lies at horizontal distance >= a (trunc - 1) from any
    receiver inside the attocell, so the omitted sum of (D^2 + h^2)^(-e) is
    bounded by the integral 2 pi r_max^(2-2e) / ((2e - 2) a^2) with
    r_max = a (trunc - 1) (one pitch of slack absorbs both the receiver
    offset and the cell-vs-site discretization).
    """
    e = float(exponent)
    if e <= 1.0:
        raise ValueError(f"tail bound requires exponent > 1, got {e!r}")
    a = geometry.pitch
    r_max = a * max(geometry.trunc - 1, 0.5)
    return 2.0 * math.pi * r_max ** (2.0 - 2.0 * e) / ((2.0 * e - 2.0) * a * a)
