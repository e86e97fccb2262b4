"""Threshold transform, conditional coverage and spatial averaging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attocell import (
    CoverageCurve,
    DerivedConstants,
    NetworkGeometry,
    TABLE_DEFAULT_OPTICS,
    attocell_quadrature,
    conditional_coverage,
    coverage_curve,
    coverage_spatial,
    db_to_linear,
    eta,
    sm_series,
    sv_series,
    threshold_at_level,
)
from attocell.specfun import erf

# eta at the attocell centre for the reference optics, h = 1.5, theta = 1:
# 1.5^-8 - sigma^2 / (K P_o R_pd)^2, both terms evaluated by hand
ETA_CENTRE_THETA_ONE = 1.5**-8 - 1.656e-13 / ((2e-4 * 1.5**2 / (2 * math.pi)) * 1.0 * 0.1) ** 2


class TestThresholds:
    def test_db_round_trip(self):
        grid = np.array([-20.0, -6.55, 0.0, 10.0])
        assert np.allclose(10.0 * np.log10(db_to_linear(grid)), grid, rtol=1e-14)
        assert float(db_to_linear(0.0)) == 1.0


class TestEta:
    def test_centre_hand_value(self, optics, geometry):
        got = eta(optics, geometry, (0.0, 0.0), 1.0)
        assert got == pytest.approx(ETA_CENTRE_THETA_ONE, rel=1e-12)
        assert got == pytest.approx(0.035790, abs=5e-7)

    @given(
        st.floats(min_value=0.01, max_value=50.0),
        st.floats(min_value=1.01, max_value=3.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_strictly_decreasing_in_theta(self, theta, factor):
        optics = TABLE_DEFAULT_OPTICS
        geometry = NetworkGeometry(0.5, 1.5, 10)
        assert eta(optics, geometry, (0.1, 0.1), theta * factor) < eta(
            optics, geometry, (0.1, 0.1), theta
        )

    def test_decreasing_in_radius(self, optics, geometry):
        values = [eta(optics, geometry, (r, 0.0), 0.5) for r in (0.0, 0.1, 0.2, 0.25)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_large_theta_is_noise_negative(self, optics, geometry):
        assert eta(optics, geometry, (0.0, 0.0), 1e9) < 0.0

    def test_invalid_theta(self, optics, geometry):
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError):
                eta(optics, geometry, (0.0, 0.0), bad)


class TestConditionalCoverage:
    def test_at_eta_equal_mu(self):
        mu, sigma = 0.2, 0.05
        expected = 0.5 * erf(mu / (math.sqrt(2) * sigma))
        assert conditional_coverage(mu, mu, sigma) == pytest.approx(expected, rel=1e-12)

    def test_negative_eta_gives_zero(self):
        assert conditional_coverage(-0.01, 0.1, 0.05) == 0.0

    def test_degenerate_indicator(self):
        assert conditional_coverage(0.5, 0.2, 0.0) == 1.0
        assert conditional_coverage(0.1, 0.2, 0.0) == 0.0
        assert conditional_coverage(0.2, 0.2, 0.0) == 0.0  # strict inequality

    def test_degenerate_lanes_among_gaussian_ones(self):
        # each sigma1 = 0 lane takes its own indicator; the others stay Gaussian
        mu = np.array([0.5, 0.5, 0.5, 0.2])
        sigma1 = np.array([0.0, 0.1, 0.0, 0.05])
        eta_value = np.array([1.0, 1.0, 0.2, 0.2])
        got = conditional_coverage(eta_value, mu, sigma1)
        assert got[0] == 1.0 and got[2] == 0.0
        assert got[1] == conditional_coverage(1.0, 0.5, 0.1)
        assert got[3] == conditional_coverage(0.2, 0.2, 0.05)
        grid = conditional_coverage(np.array([[1.0], [0.2]]), np.array([[0.5, 0.5]]), np.array([[0.0, 0.1]]))
        assert grid.shape == (2, 2) and grid[0, 0] == 1.0 and grid[1, 0] == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            conditional_coverage(0.1, -0.1, 0.05)
        with pytest.raises(ValueError):
            conditional_coverage(0.1, 0.1, -0.05)
        with pytest.raises(ValueError):
            conditional_coverage(np.array([0.1, 0.2]), np.array([0.1, -0.1]), np.array([0.05, 0.05]))

    def test_unit_interval_fuzz(self, rng):
        # million-triple fuzz on arrays plus a scalar subset, which must
        # agree with the array values
        etas = rng.uniform(-5.0, 5.0, 1_000_000)
        mus = rng.uniform(0.0, 3.0, 1_000_000)
        sigmas = rng.uniform(1e-12, 2.0, 1_000_000)
        out = conditional_coverage(etas, mus, sigmas)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        for e, m, s, want in zip(etas[:3000], mus[:3000], sigmas[:3000], out[:3000]):
            v = conditional_coverage(float(e), float(m), float(s))
            assert isinstance(v, float) and v == want


class TestCoverageAt:
    """``coverage_spatial`` at one threshold.  Quadrature order 1 is the cell
    centre with weight exactly 1.0, so there it is the conditional coverage
    bit for bit; order 4 brings in off-centre nodes."""

    def test_limits_in_theta(self, optics, geometry):
        assert coverage_spatial(optics, geometry, 0.5, 1e-9, quad_order=4) == pytest.approx(1.0)
        assert coverage_spatial(optics, geometry, 0.5, 1e9, quad_order=4) == 0.0

    def test_composition(self, optics, geometry):
        c = DerivedConstants.from_configs(optics, geometry)
        p = 0.4
        s_m = sm_series(geometry, c.beta, (0.0, 0.0)).value
        s_v = sv_series(geometry, c.beta, (0.0, 0.0)).value
        expected = conditional_coverage(
            eta(optics, geometry, (0.0, 0.0), 0.3), p * s_m, math.sqrt(p * (1 - p) * s_v)
        )
        assert 0.0 < expected < 1.0
        assert coverage_spatial(optics, geometry, p, 0.3, quad_order=1) == expected

    def test_nonincreasing_in_p_on_verified_grid(self, optics, geometry):
        # Monte-Carlo-verified subrange: the Gaussian form is monotone for
        # p >= 0.2 here; below that its spurious mass at C < 0 breaks
        # monotonicity even though the exact coverage is always monotone.
        theta = float(db_to_linear(-6.55))
        grid = [0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95]
        vals = [coverage_spatial(optics, geometry, p, theta, quad_order=4) for p in grid]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_degenerate_p_zero(self, optics, geometry):
        got = coverage_spatial(optics, geometry, 0.0, 0.5, quad_order=1)
        assert got == (1.0 if eta(optics, geometry, (0.0, 0.0), 0.5) > 0 else 0.0)

    def test_brute_matches_series(self, optics, geometry):
        for theta_db in (-10.0, -6.55, -3.0):
            t = float(db_to_linear(theta_db))
            a = coverage_spatial(optics, geometry, 0.5, t, quad_order=4, sums="series")
            b = coverage_spatial(optics, geometry, 0.5, t, quad_order=4, sums="brute")
            assert a == pytest.approx(b, abs=1e-5)

    def test_invalid_arguments(self, optics, geometry):
        with pytest.raises(ValueError):
            coverage_spatial(optics, geometry, 1.5, 0.5)
        with pytest.raises(ValueError):
            coverage_spatial(optics, geometry, 0.5, 0.5, sums="magic")


class TestQuadrature:
    def test_weights_normalised(self, geometry):
        for order in (8, 9, 16):
            for sym in (False, True):
                zx, zy, w = attocell_quadrature(geometry, order, use_symmetry=sym)
                assert float(np.sum(w)) == pytest.approx(1.0, rel=1e-13)
                half = geometry.pitch / 2
                assert np.all(np.abs(zx) <= half) and np.all(np.abs(zy) <= half)

    def test_symmetry_fold_matches_full(self, optics, geometry):
        theta = float(db_to_linear(-6.55))
        for order in (8, 9, 16):
            on = coverage_spatial(optics, geometry, 0.5, theta, quad_order=order, use_symmetry=True)
            off = coverage_spatial(optics, geometry, 0.5, theta, quad_order=order, use_symmetry=False)
            assert on == pytest.approx(off, abs=1e-12)

    def test_node_count_reduction(self, geometry):
        full = attocell_quadrature(geometry, 16, use_symmetry=False)[2].size
        folded = attocell_quadrature(geometry, 16, use_symmetry=True)[2].size
        assert full == 256 and folded == 36


class TestCoverageSpatial:
    def test_indicator_integral_at_p_zero(self, optics, geometry):
        theta = float(db_to_linear(5.0))
        got = coverage_spatial(optics, geometry, 0.0, theta, quad_order=16, use_symmetry=False)
        zx, zy, w = attocell_quadrature(geometry, 16, use_symmetry=False)
        etas = np.array([eta(optics, geometry, (x, y), theta) for x, y in zip(zx, zy)])
        assert got == pytest.approx(float(w @ (etas > 0)), abs=1e-15)

    def test_small_theta_full_coverage(self, optics, geometry):
        # quadrature weights sum to 1 only up to roundoff
        assert coverage_spatial(optics, geometry, 0.0, 1e-6, quad_order=8) == pytest.approx(1.0, abs=1e-13)
        assert coverage_spatial(optics, geometry, 0.9, 1e-9, quad_order=8) == pytest.approx(1.0, abs=1e-13)

    def test_quadrature_convergence(self, optics, geometry):
        theta = float(db_to_linear(-6.55))
        v16 = coverage_spatial(optics, geometry, 0.5, theta, quad_order=16)
        v32 = coverage_spatial(optics, geometry, 0.5, theta, quad_order=32)
        assert abs(v16 - v32) <= 1e-4


class TestCoverageCurve:
    def test_monotone_nonincreasing(self, optics, geometry):
        grid = np.arange(-20.0, 10.25, 0.25)
        curve = coverage_curve(optics, geometry, 0.5, grid, quad_order=16)
        assert np.all(np.diff(curve.values) <= 1e-14)
        assert curve.values[0] > 0.99 and curve.values[-1] < 0.01

    def test_values_and_grids_consistent(self, optics, geometry):
        grid = np.array([-10.0, -5.0, 0.0])
        curve = coverage_curve(optics, geometry, 0.3, grid, quad_order=8)
        assert curve.theta_db.shape == curve.theta_linear.shape == curve.values.shape
        assert np.all((curve.values >= 0) & (curve.values <= 1))

    def test_curve_invariants_enforced(self):
        grid = np.array([0.0, 1.0])
        with pytest.raises(ValueError):
            CoverageCurve(grid, db_to_linear(grid), np.array([0.5]))
        with pytest.raises(ValueError):
            CoverageCurve(grid, db_to_linear(grid), np.array([0.5, 1.5]))

    def test_threshold_crossing(self, optics, geometry):
        grid = np.arange(-12.0, 0.25, 0.25)
        curve = coverage_curve(optics, geometry, 0.5, grid, quad_order=16)
        x = threshold_at_level(curve, 0.5)
        assert x is not None
        i = int(np.flatnonzero(curve.values < 0.5)[0])
        assert curve.theta_db[i - 1] <= x <= curve.theta_db[i]

    def test_threshold_crossing_none_when_flat(self, optics, geometry):
        grid = np.array([-30.0, -29.0])
        curve = coverage_curve(optics, geometry, 0.5, grid, quad_order=8)
        assert threshold_at_level(curve, 0.5) is None

    def test_brute_curve_close_to_series(self, optics):
        geometry = NetworkGeometry(0.5, 1.5, 150)
        grid = np.array([-8.0, -6.55, -5.0])
        a = coverage_curve(optics, geometry, 0.5, grid, quad_order=8, sums="series")
        b = coverage_curve(optics, geometry, 0.5, grid, quad_order=8, sums="brute")
        assert np.max(np.abs(a.values - b.values)) <= 1e-5

    def test_fractional_lambertian_order_end_to_end(self, geometry):
        # half angle of 1 rad gives m ~ 1.126: the whole pipeline runs on
        # non-integer exponents and real-order Bessel evaluations
        from attocell import OpticalConfig

        optics = OpticalConfig(
            power=1.0, pd_area=1e-4, responsivity=0.1,
            half_angle=1.0, noise_psd=4.14e-21, bandwidth=40e6,
        )
        grid = np.arange(-15.0, 5.0, 0.5)
        series = coverage_curve(optics, geometry, 0.5, grid, quad_order=12)
        brute = coverage_curve(optics, geometry, 0.5, grid, quad_order=12, sums="brute")
        assert np.all(np.diff(series.values) <= 1e-14)
        assert np.max(np.abs(series.values - brute.values)) <= 1e-5
