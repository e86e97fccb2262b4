"""Geometry, configuration, site weights and the SINR event that eta encodes."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import attocell
from attocell import (
    NetworkGeometry,
    OpticalConfig,
    TABLE_DEFAULT_OPTICS,
    eta,
    gain_constant,
    lambertian_order,
    sm_brute,
)
from attocell.model import _site_bases, _site_weights, interference_weights, tail_bound
from oracles import lattice_indices, sinr_reference

try:
    from numpy._core._multiarray_umath import __cpu_features__ as NUMPY_CPU_FEATURES
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_features__ as NUMPY_CPU_FEATURES

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

    @pytest.mark.parametrize("half_angle", [1e-9, 1.05e-8])
    def test_cosine_of_one_refused(self, half_angle):
        # cos rounds to 1.0 there, so ln cos is 0: this divided by zero
        assert math.cos(half_angle) == 1.0
        with pytest.raises(ValueError, match=r"has a cosine of 1\.0 in a double"):
            lambertian_order(half_angle)
        good = dataclasses.asdict(TABLE_DEFAULT_OPTICS)
        with pytest.raises(ValueError, match=rf"^optical\.half_angle: half-power semi-angle {half_angle!r} rad"):
            OpticalConfig(**{**good, "half_angle": half_angle})

    def test_narrowest_representable_beam_constructible(self):
        # at 1.1e-8 rad the cosine is one ulp below 1.0: m is finite
        optics = dataclasses.replace(TABLE_DEFAULT_OPTICS, half_angle=1.1e-8)
        assert math.isfinite(optics.beta) and optics.beta > 1e15


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
        # every route squares the height (the eta grid, the site bases):
        # 1.3e154 squares to 1.69e308, 1.4e154 past the float range
        assert NetworkGeometry(pitch=0.5, height=1.3e154).height == 1.3e154
        with pytest.raises(ValueError, match=r"^geometry\.height = 1\.4e\+154 has a square outside the float range$"):
            NetworkGeometry(pitch=0.5, height=1.4e154)

    @pytest.mark.parametrize("height", [1e-300, 1e150, 1e200])
    def test_gain_constant_out_of_range(self, optics, height):
        # K^2 underflows to 0 or overflows: no eta grid can be formed (at
        # 1e200 the constructor already refuses the height, whose square
        # overflows)
        with pytest.raises(ValueError, match=r"geometry\.height"):
            gain_constant(optics, NetworkGeometry(pitch=0.5, height=height))

    def test_gain_constant_power_of_height_overflows(self, optics):
        # a narrow beam, m = 3.6: h^(m+1) at 1e70 raises an OverflowError
        # while h^2 fits
        narrow = replace(optics, half_angle=0.6)
        assert lambertian_order(0.6) == pytest.approx(3.6, abs=0.05)
        with pytest.raises(OverflowError):
            1e70 ** (lambertian_order(0.6) + 1.0)
        with pytest.raises(ValueError, match=r"^geometry\.height = 1e\+70 puts the gain constant K or K\^2 "):
            gain_constant(narrow, NetworkGeometry(pitch=0.5, height=1e70))

    def test_derived_constants_reference_values(self, optics, geometry):
        m = lambertian_order(optics.half_angle)
        assert m == pytest.approx(1.0, rel=1e-12)
        assert optics.beta == m + 3.0
        assert optics.beta == pytest.approx(4.0, rel=1e-12)
        k = gain_constant(optics, geometry)
        k_hand = 2.0 * 1e-4 * 1.5**2 / (2.0 * math.pi)
        assert k == pytest.approx(k_hand, rel=1e-12)
        # the channel gain at nadir, K h^-beta
        assert k * geometry.height ** (-optics.beta) == pytest.approx(GAIN_AT_NADIR, rel=1e-12)


class TestLatticeSites:
    def test_shape_and_origin_exclusion(self, optics):
        # the tagged LED's site is left out: no weight is its (z^2 + h^2)^(-e)
        geometry = NetworkGeometry(0.5, 1.5, 3)
        weights = interference_weights(geometry, optics.beta, (0.0, 0.0))
        assert weights.shape == ((2 * 3 + 1) ** 2 - 1,)
        assert weights.max() < geometry.height ** (-2 * optics.beta)

    def test_row_major_order(self):
        # site (u, v) at offset (u a + z_x, v a + z_y), u slow, v fast
        geometry = NetworkGeometry(0.5, 1.5, 1)
        pos = (0.1, 0.03)
        sites = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
        want = [((u * 0.5 + pos[0]) ** 2 + (v * 0.5 + pos[1]) ** 2 + 1.5**2) ** -4.5 for u, v in sites]
        assert interference_weights(geometry, 4.5, pos) == pytest.approx(want, rel=1e-14)
        assert [tuple(s) for s in lattice_indices(1)] == sites

    @pytest.mark.parametrize("trunc", [0, -1, 2.5, math.nan, math.inf])
    def test_truncation_must_be_a_positive_integer(self, trunc):
        with pytest.raises(ValueError, match=rf"^geometry\.trunc must be an integer >= 1, got {trunc!r}$"):
            NetworkGeometry(0.5, 1.5, trunc)


class TestPosition:
    @pytest.mark.parametrize("pos", [(math.nan, 0.0), (0.0, math.inf), (1e200, 0.0), (0.0, -2e154)])
    def test_outside_float_range_names_the_position(self, optics, geometry, pos):
        message = r"^position \(.+\): each coordinate and its square must be finite$"
        with pytest.raises(ValueError, match=message):
            interference_weights(geometry, 4.0, pos)
        with pytest.raises(ValueError, match=message):
            eta(optics, geometry, pos, 1.0)


class TestSinr:
    """The SINR event gamma > theta, which ``eta`` encodes as C < eta,
    against the SINR written out in ``oracles.sinr_reference``."""

    def setup_method(self):
        self.geometry = NetworkGeometry(pitch=0.5, height=1.5, trunc=6)
        self.n_sites = (2 * 6 + 1) ** 2 - 1

    def test_no_interferers_is_noise_limited(self, optics):
        # without interferers the PD is covered while theta is below its SNR
        pos = (0.1, -0.05)
        snr = sinr_reference(optics, self.geometry, pos, np.zeros(self.n_sites))
        floor = -eta(optics, self.geometry, pos, 1e30)
        assert abs(eta(optics, self.geometry, pos, snr)) <= 1e-12 * floor
        below, above = (eta(optics, self.geometry, pos, snr * f) for f in (1 - 1e-9, 1 + 1e-9))
        assert below > 0.0 > above

    def test_threshold_event_matches_eta(self, optics):
        # gamma(z) > theta if and only if C < eta(z, theta); each realization
        # thins at a p of its own, so the SINR spans full interference to noise
        rng = np.random.default_rng(20250809)
        for pos in ((0.12, -0.2), (0.0, 0.0), (0.25, 0.25)):
            weights = interference_weights(self.geometry, optics.beta, pos)
            realizations = [(rng.random(self.n_sites) < p).astype(float) for p in rng.random(40)]
            for theta in (0.15, 0.2213, 0.5, 1.0):
                e = eta(optics, self.geometry, pos, theta)
                covered = [sinr_reference(optics, self.geometry, pos, alphas) > theta for alphas in realizations]
                assert covered == [float(alphas @ weights) < e for alphas in realizations]
                assert any(covered) and not all(covered)

    # (power * responsivity) ** 2 overflows at either value
    @pytest.mark.parametrize("field,value", [("power", 1e160), ("responsivity", 1e200)])
    def test_out_of_range_factor_names_the_field(self, optics, field, value):
        # with a 1e200 m^2 PD at h = 1e-40 the tagged term overflows too: the
        # noise floor is formed first, so its factor is the one named
        bad = replace(optics, pd_area=1e200, **{field: value})
        message = rf"^optical\.{field} = {re.escape(repr(value))} puts the noise floor's divisor K\^2 P_o\^2 R_pd\^2"
        with pytest.raises(ValueError, match=message):
            eta(bad, NetworkGeometry(0.5, 1e-40, 5), (0.0, 0.0), 1.0)
        with pytest.raises(ValueError, match=r"^geometry\.height = 1e-40 puts the tagged LED's"):
            eta(replace(optics, pd_area=1e200), NetworkGeometry(0.5, 1e-40, 5), (0.0, 0.0), 1.0)

    def test_in_range_values_unchanged_by_the_check(self, optics):
        # at theta = 1e30 eta is minus the noise floor sigma^2 / (K^2 P_o^2 R_pd^2),
        # its divisor formed one factor at a time in that order
        for power, responsivity in ((1.0, 0.1), (3.7, 0.61), (1e-3, 2.9)):
            scaled = replace(optics, power=power, responsivity=responsivity)
            divisor = gain_constant(scaled, self.geometry) ** 2 * power**2 * responsivity**2
            floor = optics.noise_psd * optics.bandwidth / divisor
            assert eta(scaled, self.geometry, (0.13, -0.07), 1e30) == -floor

    def test_square_of_power_times_responsivity_may_overflow(self, optics):
        # (P_o R_pd)^2 = 1e320, but with a 1e-12 m^2 PD K^2 P_o^2 R_pd^2 is in range
        big = replace(optics, power=1e80, responsivity=1e80, pd_area=1e-12)
        got = eta(big, NetworkGeometry(0.5, 1.5, 5), (0.0, 0.0), 1.0)
        assert got == pytest.approx(1.5 ** (-2 * optics.beta), rel=1e-12)

    def test_tagged_term_outside_float_range_names_the_height(self, optics):
        # a wide beam keeps K^2 in range at h = 1e-100, where (h^2)^(-beta) overflows
        wide = replace(optics, half_angle=1.3)
        with pytest.raises(ValueError, match=r"^geometry\.height = 1e-100 puts the tagged LED's"):
            eta(wide, NetworkGeometry(0.5, 1e-100, 5), (0, 0), 1.0)


class TestTailBound:
    def test_bounds_truncation_gap(self, geometry):
        beta = TABLE_DEFAULT_OPTICS.beta
        near = sm_brute(geometry, beta, (0.2, 0.1), trunc=60)
        far = sm_brute(geometry, beta, (0.2, 0.1), trunc=200)
        bound = tail_bound(replace(geometry, trunc=60), beta)
        assert far.value - near.value <= bound
        assert bound < 1e-6 * near.value

    def test_decreasing_in_trunc(self, geometry):
        bounds = [tail_bound(replace(geometry, trunc=t), 4.0) for t in (50, 100, 200)]
        assert bounds[0] > bounds[1] > bounds[2]

    def test_requires_summable_exponent(self, geometry):
        for exponent in (1.0, 0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="sum exponent must be finite and > 1"):
                tail_bound(geometry, exponent)

    @pytest.mark.parametrize("pitch", [1e-60, 1e-300])
    def test_bound_outside_float_range_names_the_pitch(self, pitch):
        # r_max^(2 - 2e) overflows; moment_sums' brute branch, and so sm_brute, refuses it
        geometry = NetworkGeometry(pitch, 1.5, 40)
        message = rf"^geometry\.pitch = {pitch!r} puts the tail bound outside the float range at geometry\.trunc = 40 "
        with pytest.raises(ValueError, match=message):
            tail_bound(geometry, 4.0)
        with pytest.raises(ValueError, match=message):
            sm_brute(geometry, 4.0, (0.0, 0.0))

    @pytest.mark.parametrize("trunc", [0, -5, 2.7])
    def test_brute_truncation_checked_as_geometry(self, geometry, trunc):
        # a truncation override is the geometry's own field, with its check
        with pytest.raises(ValueError, match=r"geometry\.trunc"):
            sm_brute(geometry, 4.0, (0.1, 0.05), trunc=trunc)


POSITIONS = ((0.0, 0.0), (0.13, -0.07), (0.25, 0.25))


def site_bases(geometry, pos):
    """D^2 + h^2 in site order: the grid raveled, centre dropped."""
    grid = _site_bases(geometry, *pos)
    assert grid.shape == (2 * geometry.trunc + 1,) * 2
    assert grid[geometry.trunc, geometry.trunc] == np.inf
    return np.delete(grid.ravel(), grid.size // 2)


def assert_near_power(weights, base, exponent):
    """Within exponent * 2^-51 relative of ``np.power`` wherever that gives
    a normal float."""
    with np.errstate(over="ignore"):
        power = np.power(base, -float(exponent))
    normal = np.isfinite(power) & (power >= np.finfo(float).tiny)
    assert normal.any()
    assert np.abs(weights[normal] / power[normal] - 1.0).max() <= exponent * 2.0**-51


class TestSiteWeights:
    # bases over 140 binary orders: at e = 16 both ends leave the normal range
    SPREAD = np.geomspace(2.0**-70, 2.0**70, 20001)

    @pytest.mark.parametrize("exponent", [4.0, 8.0, 12.0, 16.0])
    def test_integer_exponent_near_power(self, geometry, exponent):
        with np.errstate(over="ignore"):
            weights = _site_weights(self.SPREAD, exponent)
        assert_near_power(weights, self.SPREAD, exponent)
        for pos in POSITIONS:
            base = site_bases(geometry, pos)
            assert_near_power(interference_weights(geometry, exponent, pos), base, exponent)

    def test_non_integer_exponent_is_power(self, geometry):
        with np.errstate(over="ignore"):
            assert np.array_equal(_site_weights(self.SPREAD, 4.5), np.power(self.SPREAD, -4.5))
        for pos in POSITIONS:
            base = site_bases(geometry, pos)
            assert np.array_equal(interference_weights(geometry, 4.5, pos), np.power(base, -4.5))

    @pytest.mark.parametrize(
        "exponent",
        [12.0, 15.0, 3 * (lambertian_order(math.pi / 3) + 3), 3 * (lambertian_order(1.0) + 3)],
        ids=["12", "15", "3beta_60deg", "3beta_1rad"],
    )
    def test_matches_interference_weights(self, geometry, exponent):
        for pos in POSITIONS:
            base = site_bases(geometry, pos)
            fresh = _site_weights(base, exponent)
            assert_near_power(fresh, base, exponent)
            assert np.array_equal(interference_weights(geometry, exponent, pos), fresh)

    @pytest.mark.skipif(
        not NUMPY_CPU_FEATURES.get("AVX512_SKX"), reason="numpy reports no AVX512_SKX to disable"
    )
    def test_integer_exponent_same_on_every_simd_target(self):
        # numpy's AVX2 loops in place of its AVX-512 ones, in a child only:
        # the weights and the brute sums over the order-8 quadrature nodes
        code = (
            "import hashlib\n"
            "from attocell import NetworkGeometry, attocell_quadrature, moment_sums\n"
            "from attocell.model import interference_weights\n"
            "g = NetworkGeometry(pitch=0.5, height=1.5, trunc=200)\n"
            "digest = hashlib.sha256()\n"
            "for e in (4.0, 8.0, 12.0):\n"
            f"    for pos in {POSITIONS!r}:\n"
            "        digest.update(interference_weights(g, e, pos).tobytes())\n"
            "zx, zy, _ = attocell_quadrature(g, 8)\n"
            "digest.update(moment_sums(g, (4.0, 8.0, 12.0), zx, zy, 'brute').tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        src = Path(attocell.__file__).resolve().parents[1]
        path = os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])])

        def child_digest(**env):
            env = {**os.environ, "PYTHONPATH": path, **env}
            child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
            return child.stdout

        default = child_digest()
        assert default == child_digest(NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL")
        assert len(default.strip()) == 64
