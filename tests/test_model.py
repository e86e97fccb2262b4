"""Geometry, configuration and pointwise channel/SINR quantities."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attocell import (
    DerivedConstants,
    NetworkGeometry,
    OpticalConfig,
    ReceiverPosition,
    TABLE_DEFAULT_OPTICS,
    channel_gain,
    eta,
    lambertian_order,
    lattice_sites,
    sinr,
    sm_brute,
)
from attocell.model import interferer_distance_sq, tail_bound

# K h^-beta for the reference optics at h = 1.5 (hand evaluation:
# K = 2e-4 * 2.25 / (2 pi), h^-4 = 1/5.0625)
GAIN_AT_NADIR = 1.414710605261292e-05


class TestLambertianOrder:
    def test_sixty_degrees_gives_one(self):
        assert lambertian_order(math.pi / 3) == pytest.approx(1.0, rel=1e-12)

    def test_forty_five_degrees_gives_two(self):
        assert lambertian_order(math.pi / 4) == pytest.approx(2.0, rel=1e-12)

    def test_wide_angle_limit(self):
        # m -> 0+ as the half angle approaches pi/2 (m(1.57) ~ 0.0971)
        assert lambertian_order(1.57) < 0.1
        assert lambertian_order(1.5707) < lambertian_order(1.57) < lambertian_order(1.5)

    @pytest.mark.parametrize("bad", [0.0, -0.1, math.pi / 2, 3.0])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            lambertian_order(bad)


class TestConfigs:
    def test_optical_rejects_nonpositive(self):
        good = dict(power=1.0, pd_area=1e-4, responsivity=0.1,
                    half_angle=math.pi / 3, noise_psd=4.14e-21, bandwidth=40e6)
        for key in ("power", "pd_area", "responsivity", "noise_psd", "bandwidth"):
            with pytest.raises(ValueError):
                OpticalConfig(**{**good, key: 0.0})
        with pytest.raises(ValueError):
            OpticalConfig(**{**good, "half_angle": math.pi / 2})

    def test_geometry_invariants(self):
        with pytest.raises(ValueError):
            NetworkGeometry(pitch=0.0, height=1.5)
        with pytest.raises(ValueError):
            NetworkGeometry(pitch=0.5, height=-1.0)
        with pytest.raises(ValueError):
            NetworkGeometry(pitch=0.5, height=1.5, trunc=0)

    def test_derived_constants_reference_values(self, optics, geometry):
        c = DerivedConstants.from_configs(optics, geometry)
        assert c.m == pytest.approx(1.0, rel=1e-12)
        assert c.beta == pytest.approx(4.0, rel=1e-12)
        # sigma^2 = N_o W: product of the configured PSD and bandwidth
        assert c.noise_var == pytest.approx(4.14e-21 * 40e6, rel=1e-15)
        k_hand = 2.0 * 1e-4 * 1.5**2 / (2.0 * math.pi)
        assert c.gain_const == pytest.approx(k_hand, rel=1e-12)


class TestChannelGain:
    def test_nadir_value(self, optics, geometry):
        c = DerivedConstants.from_configs(optics, geometry)
        assert channel_gain(c, geometry, 0.0) == pytest.approx(GAIN_AT_NADIR, rel=1e-12)

    def test_nadir_identity(self, optics, geometry):
        c = DerivedConstants.from_configs(optics, geometry)
        assert channel_gain(c, geometry, 0.0) == pytest.approx(
            c.gain_const * geometry.height ** (-c.beta), rel=1e-12
        )

    @given(st.floats(min_value=0.0, max_value=50.0), st.floats(min_value=1e-3, max_value=50.0))
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing(self, d, delta):
        geometry = NetworkGeometry(pitch=0.5, height=1.5, trunc=10)
        c = DerivedConstants.from_configs(TABLE_DEFAULT_OPTICS, geometry)
        assert channel_gain(c, geometry, d + delta) < channel_gain(c, geometry, d)

    def test_far_field_decay(self, optics, geometry):
        c = DerivedConstants.from_configs(optics, geometry)
        assert channel_gain(c, geometry, 1e6) < 1e-20
        assert channel_gain(c, geometry, geometry.pitch) < channel_gain(c, geometry, 0.0)

    def test_negative_distance_raises(self, optics, geometry):
        c = DerivedConstants.from_configs(optics, geometry)
        with pytest.raises(ValueError):
            channel_gain(c, geometry, -0.1)


class TestLatticeSites:
    def test_shape_and_origin_exclusion(self):
        sites = lattice_sites(3)
        assert sites.shape == ((2 * 3 + 1) ** 2 - 1, 2)
        assert not np.any((sites[:, 0] == 0) & (sites[:, 1] == 0))
        assert np.max(np.abs(sites)) == 3

    def test_row_major_order(self):
        sites = lattice_sites(1)
        expected = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
        assert [tuple(s) for s in sites] == expected

    def test_read_only(self):
        with pytest.raises(ValueError):
            lattice_sites(2)[0, 0] = 5


def _noise_limited_snr(optics, geometry, pos):
    c = DerivedConstants.from_configs(optics, geometry)
    zx, zy = pos
    g0_sq = c.gain_const**2 * (zx * zx + zy * zy + geometry.height**2) ** (-c.beta)
    return optics.power**2 * g0_sq * optics.responsivity**2 / c.noise_var


class TestSinr:
    def setup_method(self):
        self.geometry = NetworkGeometry(pitch=0.5, height=1.5, trunc=6)
        self.n_sites = (2 * 6 + 1) ** 2 - 1

    def test_no_interferers_is_noise_limited(self, optics):
        alphas = np.zeros(self.n_sites)
        got = sinr(optics, self.geometry, (0.1, -0.05), alphas)
        assert got == pytest.approx(_noise_limited_snr(optics, self.geometry, (0.1, -0.05)), rel=1e-12)

    def test_full_interference_lowers_sinr(self, optics):
        ones = np.ones(self.n_sites)
        zeros = np.zeros(self.n_sites)
        assert sinr(optics, self.geometry, (0.0, 0.0), ones) < sinr(
            optics, self.geometry, (0.0, 0.0), zeros
        )

    def test_full_interference_is_lower_bound(self, optics, rng):
        ones = np.ones(self.n_sites)
        floor = sinr(optics, self.geometry, (0.13, 0.21), ones)
        for _ in range(25):
            alphas = (rng.random(self.n_sites) < 0.5).astype(float)
            assert sinr(optics, self.geometry, (0.13, 0.21), alphas) >= floor

    def test_dihedral_symmetry(self, optics, rng):
        sites = lattice_sites(self.geometry.trunc)
        index = {tuple(s): i for i, s in enumerate(sites)}
        alphas = (rng.random(self.n_sites) < 0.4).astype(float)
        pos = (0.17, 0.06)
        base = sinr(optics, self.geometry, pos, alphas)
        transforms = [
            (lambda u, v: (-u, v), lambda x, y: (-x, y)),
            (lambda u, v: (u, -v), lambda x, y: (x, -y)),
            (lambda u, v: (v, u), lambda x, y: (y, x)),
            (lambda u, v: (-v, -u), lambda x, y: (-y, -x)),
        ]
        for site_map, pos_map in transforms:
            permuted = np.empty_like(alphas)
            for i, (u, v) in enumerate(sites):
                permuted[index[site_map(u, v)]] = alphas[i]
            assert sinr(optics, self.geometry, pos_map(*pos), permuted) == pytest.approx(
                base, rel=1e-12
            )

    def test_threshold_event_matches_eta(self, optics, rng):
        # gamma(z) > theta if and only if C < eta(z, theta)
        c = DerivedConstants.from_configs(optics, self.geometry)
        pos = (0.12, -0.2)
        d2 = interferer_distance_sq(self.geometry, pos)
        weights = (d2 + self.geometry.height**2) ** (-c.beta)
        for theta in (0.05, 0.2213, 1.0, 5.0):
            e = eta(optics, self.geometry, pos, theta)
            for _ in range(40):
                alphas = (rng.random(self.n_sites) < 0.5).astype(float)
                interference = float(alphas @ weights)
                gamma = sinr(optics, self.geometry, pos, alphas)
                assert (gamma > theta) == (interference < e)

    def test_wrong_shape_raises(self, optics):
        with pytest.raises(ValueError):
            sinr(optics, self.geometry, (0.0, 0.0), np.zeros(5))

    def test_accepts_receiver_position(self, optics):
        alphas = np.zeros(self.n_sites)
        a = sinr(optics, self.geometry, ReceiverPosition(0.1, 0.2), alphas)
        b = sinr(optics, self.geometry, (0.1, 0.2), alphas)
        assert a == b


class TestTailBound:
    def test_bounds_truncation_gap(self, geometry):
        c = DerivedConstants.from_configs(TABLE_DEFAULT_OPTICS, geometry)
        near = sm_brute(geometry, c.beta, (0.2, 0.1), trunc=60)
        far = sm_brute(geometry, c.beta, (0.2, 0.1), trunc=200)
        assert far.value - near.value <= near.tail_bound
        assert near.tail_bound < 1e-6 * near.value

    def test_decreasing_in_trunc(self, geometry):
        bounds = [tail_bound(replace(geometry, trunc=t), 4.0) for t in (50, 100, 200)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_requires_summable_exponent(self, geometry):
        with pytest.raises(ValueError):
            tail_bound(geometry, 1.0)

    @pytest.mark.parametrize("trunc", [0, -5, 2.7])
    def test_brute_truncation_checked_as_geometry(self, geometry, trunc):
        # a truncation override is the geometry's own field, with its check
        with pytest.raises(ValueError, match=r"geometry\.trunc"):
            sm_brute(geometry, 4.0, (0.1, 0.05), trunc=trunc)
