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
* squared-gain exponent  ``beta = m + 3``, set by the beam alone
  (``OpticalConfig.beta``)
* gain constant          ``K = (m+1) A_pd h^(m+1) / (2 pi)``, which also
  depends on the mounting height (``gain_constant``; kept verbatim,
  including the odd h^(m+1) dimensions; K^2 enters coverage only through
  the noise term)
* channel gain           ``G(d) = K (d^2 + h^2)^(-beta/2)``
* receiver noise         ``sigma^2 = N_o W``
* electrical SINR        ``P_o^2 G_0^2 R_pd^2 /
  (sum_i alpha_i P_o^2 G_i^2 R_pd^2 + sigma^2)``

``coverage.eta`` encodes the SINR's threshold event gamma > theta divided
through by K^2 P_o^2 R_pd^2: the signal (z^2 + h^2)^(-beta), whose one home
is ``_tagged_term``, against the interference C plus the noise floor
sigma^2 / (K^2 P_o^2 R_pd^2) of ``_noise_floor``.  These steep powers can
leave the float range: ``_or_inf`` is the one home that reads an overflow
as inf, and each caller refuses it with a ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "OpticalConfig",
    "NetworkGeometry",
    "TABLE_DEFAULT_OPTICS",
    "lambertian_order",
    "gain_constant",
    "interference_weights",
    "tail_bound",
]


def lambertian_order(half_angle: float) -> float:
    """Lambertian emission order m = -ln 2 / ln cos(half_angle).

    ``half_angle`` is the half-power semi-angle in radians and must lie in
    the open interval (0, pi/2), with a cosine below 1.0 in a double (above
    about 1.05e-8 rad); m is then strictly positive and finite.
    """
    half_angle = float(half_angle)
    if not (0.0 < half_angle < math.pi / 2):
        raise ValueError(
            f"half-power semi-angle must be in (0, pi/2) rad, got {half_angle!r}"
        )
    if math.cos(half_angle) == 1.0:  # ln cos would be 0
        raise ValueError(
            f"half-power semi-angle {half_angle!r} rad has a cosine of 1.0 in a double, "
            f"so an infinite Lambertian order; it must exceed about 1.05e-8 rad"
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
        try:
            lambertian_order(self.half_angle)
        except ValueError as exc:
            raise ValueError(f"optical.half_angle: {exc}") from None

    @property
    def beta(self) -> float:
        """beta = m + 3, the exponent of the squared channel gain."""
        return lambertian_order(self.half_angle) + 3.0


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
        if not math.isfinite(self.height * self.height):
            raise ValueError(f"geometry.height = {self.height!r} has a square outside the float range")
        _check_integer(self.trunc, "geometry.trunc", 1)


def _check_integer(value, name: str, least: int) -> int:
    """``value`` as an int when it is an integer >= ``least``; anything else,
    a fraction, NaN or infinity included, is a ``ValueError`` naming ``name``."""
    try:
        ok = int(value) == value and value >= least
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _or_inf(compute):
    """``compute()``, with an overflow or a division by an underflowed 0 read
    as inf, never a numpy warning or an ``OverflowError``; callers refuse it."""
    try:
        with np.errstate(over="ignore", divide="ignore"):
            return compute()
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _with_trunc(geometry: NetworkGeometry, trunc: int | None) -> NetworkGeometry:
    """``geometry`` truncated at ``trunc`` rings (None keeps its own), checked
    as any geometry is: how a ``trunc=`` override takes effect."""
    return geometry if trunc is None else replace(geometry, trunc=trunc)


def position_xy(pos) -> tuple[float, float]:
    """The PD location on the floor plane, metres from the tagged LED's axis,
    from any (x, y) pair; a ``ValueError`` naming the position when a
    coordinate or its square is not finite."""
    x, y = pos
    x, y = float(x), float(y)
    if not (math.isfinite(x * x) and math.isfinite(y * y)):
        raise ValueError(f"position ({x!r}, {y!r}): each coordinate and its square must be finite")
    return x, y


def gain_constant(optical: OpticalConfig, geometry: NetworkGeometry) -> float:
    """Gain constant K = (m+1) A_pd h^(m+1) / (2 pi); a ``ValueError``
    naming ``geometry.height`` when K or K^2 is 0 or not finite."""
    m = lambertian_order(optical.half_angle)
    k = _or_inf(lambda: (m + 1.0) * optical.pd_area * geometry.height ** (m + 1.0) / (2.0 * math.pi))
    if not 0.0 < k * k < math.inf:
        raise ValueError(
            f"geometry.height = {geometry.height!r} puts the gain constant K or K^2 "
            f"outside the float range (K = {k!r} at Lambertian order m = {m:.6g})"
        )
    return k


def _noise_floor(optical: OpticalConfig, geometry: NetworkGeometry) -> float:
    """The noise floor sigma^2 / (K^2 P_o^2 R_pd^2) that eta subtracts, its
    divisor formed one factor at a time in that order; a ``ValueError``
    naming ``optical.power`` or ``optical.responsivity`` when its factor
    takes the divisor outside the float range (K^2 is ``gain_constant``'s
    to refuse)."""
    scale = gain_constant(optical, geometry) ** 2
    for name in ("power", "responsivity"):
        v = getattr(optical, name)
        scale = _or_inf(lambda: scale * v**2)
        if not 0.0 < scale < math.inf:
            raise ValueError(
                f"optical.{name} = {v!r} puts the noise floor's divisor K^2 P_o^2 R_pd^2 outside "
                f"the float range at geometry.height = {geometry.height!r}"
            )
    return optical.noise_psd * optical.bandwidth / scale


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


def _site_bases(geometry: NetworkGeometry, zx: float, zy: float, out=None) -> np.ndarray:
    """D^2 + h^2 = (u a + z_x)^2 + (v a + z_y)^2 + h^2, the base of every
    weight, over |u|, |v| <= trunc as a (2 trunc + 1)^2 grid with u down and
    v across, written into ``out`` (fresh when None).  Each axis is squared
    once and the grid is their outer sum plus h^2.  The tagged LED's centre
    entry is +inf, so its weight is 0; raveled without the centre, the grid
    is in the site order of ``interference_weights`` (u slow, v fast)."""
    t = int(geometry.trunc)
    axis = np.arange(-t, t + 1, dtype=np.float64) * geometry.pitch
    dx = axis + zx
    dx *= dx
    dy = axis + zy
    dy *= dy
    base = np.empty((axis.size, axis.size)) if out is None else out
    np.copyto(base, dy)
    base += dx[:, None]
    base += geometry.height**2
    base[t, t] = np.inf
    return base


def _site_weights(base: np.ndarray, exponent: float, out=None) -> np.ndarray:
    """(D^2 + h^2)^(-exponent) from the bases of ``_site_bases``, written into
    ``out`` (fresh when None), which must not share memory with ``base``.
    With ``_site_bases``, the one home of the weight formula.

    An integer exponent e >= 1 is computed from IEEE basic operations only,
    so its weights are the same bits on every numpy SIMD target: w = 1/base,
    then for each binary digit of e after the leading one, w = w^2, and
    w = w / base where the digit is 1.  Each step is correctly rounded, and
    the rounding errors add up to less than 3 e * 2^-53 relative wherever
    the result is a normal float.  The weights of one exponent depend on
    (base, e) alone.  Since bin(2e) is bin(e) followed by a 0, squaring the
    weights of an integer e gives the weights of 2e bit for bit: the same
    operations on the same operands.  That needs e itself to be an integer:
    the square of ``np.power``'s weights at e = 4.5 is not this recipe's
    weights at 9.  Any other exponent goes through ``np.power``, whose
    last bits depend on the SIMD target.
    """
    e = float(exponent)
    if not (e.is_integer() and e >= 1.0):
        return np.power(base, -e, out=out)
    digits = bin(int(e))[3:]
    w = np.reciprocal(base, out=out)
    for digit in digits:
        np.multiply(w, w, out=w)
        if digit == "1":
            np.divide(w, base, out=w)
    return w


def _check_exponent(exponent: float) -> float:
    """The exponent e of a lattice sum as a float; the sum converges only
    for a finite e > 1."""
    e = float(exponent)
    if not (math.isfinite(e) and e > 1.0):
        raise ValueError(f"sum exponent must be finite and > 1, got {exponent!r}")
    return e


def interference_weights(geometry: NetworkGeometry, exponent: float, pos) -> np.ndarray:
    """Per-site weights (D_i^2 + h^2)^(-exponent) over the lattice truncated
    at ``geometry.trunc``, row-major over |u|, |v| <= trunc (u slow, v fast)
    with the origin left out; with exponent beta they are the interferers'
    squared gains over K^2."""
    e = _check_exponent(exponent)
    zx, zy = position_xy(pos)
    base = _site_bases(geometry, zx, zy).ravel()
    return np.delete(_site_weights(base, e), base.size // 2)


def _tagged_term(geometry: NetworkGeometry, e: float, zx, zy):
    """The tagged LED's term (z^2 + h^2)^(-e) of eta and the series at
    (zx, zy), floats or arrays; a ``ValueError`` naming the height if not finite."""
    term = _or_inf(lambda: (zx * zx + zy * zy + geometry.height**2) ** (-e))
    if not np.all(np.isfinite(term)):
        raise ValueError(
            f"geometry.height = {geometry.height!r} puts the tagged LED's (z^2 + h^2)^(-e) "
            f"outside the float range (e = {e:.6g})"
        )
    return term


def tail_bound(geometry: NetworkGeometry, exponent: float) -> float:
    """Upper bound on the lattice-sum mass outside the window truncated at
    ``geometry.trunc``.

    Every omitted site lies at horizontal distance >= a (trunc - 1) from any
    receiver inside the attocell, so the omitted sum of (D^2 + h^2)^(-e) is
    bounded by the integral 2 pi r_max^(2-2e) / ((2e - 2) a^2) with
    r_max = a (trunc - 1) (one pitch of slack absorbs both the receiver
    offset and the cell-vs-site discretization).  A bound that overflows
    (a pitch far below 1 m) is a ``ValueError`` naming ``geometry.pitch``;
    the brute branch of ``lattice_sums.moment_sums`` calls this at every
    exponent before it sums, which gates every brute or sampled window.
    """
    e = _check_exponent(exponent)
    a = geometry.pitch
    r_max = a * max(geometry.trunc - 1, 0.5)
    bound = _or_inf(lambda: 2.0 * math.pi * r_max ** (2.0 - 2.0 * e) / ((2.0 * e - 2.0) * a * a))
    if bound == math.inf:
        raise ValueError(
            f"geometry.pitch = {a!r} puts the tail bound outside the float range at "
            f"geometry.trunc = {geometry.trunc} (exponent e = {e:.6g})"
        )
    return bound
