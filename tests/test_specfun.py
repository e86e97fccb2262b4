"""Special-function kernels against their independent oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from attocell import specfun
from oracles import bessel_k_integral, erf_maclaurin, gamma_reference

# frozen oracle outputs (recomputed by the grid tests below)
ERF_ONE = 0.8427007929497149          # erf_maclaurin(1.0)
K_HALF_ONE = 0.46106850444789455      # sqrt(pi/2) * exp(-1), closed form
K_THREE_SIX_PI = 2.3563085881196194e-09  # bessel_k_integral(3, 6*pi)


class TestErf:
    def test_zero(self):
        assert specfun.erf(0.0) == 0.0

    def test_one_matches_maclaurin_oracle(self):
        oracle = erf_maclaurin(1.0)
        assert oracle == pytest.approx(ERF_ONE, rel=1e-15)
        assert specfun.erf(1.0) == pytest.approx(oracle, rel=1e-12)

    def test_minus_one_is_odd(self):
        assert specfun.erf(-1.0) == -specfun.erf(1.0)

    @given(st.floats(min_value=-6.0, max_value=6.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_oddness(self, x):
        assert abs(specfun.erf(-x) + specfun.erf(x)) <= 1e-15

    def test_strictly_increasing(self):
        # strict below the double-precision saturation point, monotone beyond
        grid = np.linspace(-5.5, 5.5, 201)
        vals = [specfun.erf(float(x)) for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        wide = [specfun.erf(float(x)) for x in np.linspace(-8.0, 8.0, 101)]
        assert all(b >= a for a, b in zip(wide, wide[1:]))

    def test_matches_maclaurin_on_grid(self):
        grid = np.linspace(-6.0, 6.0, 101)
        for x in grid:
            oracle = erf_maclaurin(float(x))
            if oracle == 0.0:
                assert specfun.erf(float(x)) == 0.0
            else:
                assert specfun.erf(float(x)) == pytest.approx(oracle, rel=1e-12)

    @given(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_bounded(self, x):
        assert abs(specfun.erf(x)) <= 1.0

    def test_array_matches_scalar(self):
        grid = np.linspace(-8.0, 8.0, 57)
        out = specfun.erf(grid)
        assert out.shape == grid.shape
        for x, v in zip(grid, out):
            assert v == specfun.erf(float(x))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_raises(self, bad):
        with pytest.raises(ValueError):
            specfun.erf(bad)
        with pytest.raises(ValueError):
            specfun.erf(np.array([0.0, bad]))


class TestErfContract:
    """Every value is math.erf's, bit for bit, whatever path computes it."""

    POINTS = [6.0, -6.0, math.nextafter(6.0, 0.0), math.nextafter(-6.0, 0.0), 0.0, -0.0, 1e300, -1e300]

    def test_bitwise_math_erf(self):
        # compared as bytes, so the sign of zero counts too
        grid = np.concatenate([np.linspace(-50.0, 50.0, 200001), self.POINTS])
        expected = np.array([math.erf(x) for x in grid.tolist()])
        assert specfun.erf(grid).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("x", [7.0, -7.0, 0.5])
    def test_zero_dimensional_array(self, x):
        out = specfun.erf(np.asarray(x))
        assert isinstance(out, np.ndarray) and out.shape == ()
        assert out == math.erf(x)

    @pytest.mark.parametrize("shape", [(0,), (2, 0), (2, 3)])
    def test_shape_kept(self, shape):
        values = np.linspace(-9.0, 9.0, math.prod(shape)).reshape(shape)
        out = specfun.erf(values)
        assert out.shape == shape
        assert out.tobytes() == np.array([math.erf(x) for x in values.ravel().tolist()]).tobytes()

    def test_nonfinite_among_saturated_raises(self):
        with pytest.raises(ValueError):
            specfun.erf(np.array([7.0, float("nan")]))

    def test_libm_saturates_past_six(self):
        # the assumption behind the shortcut: past 6, math.erf is exactly +-1
        start = math.nextafter(6.0, math.inf)
        ulps = [start]
        for _ in range(999):
            ulps.append(math.nextafter(ulps[-1], math.inf))
        for x in ulps + np.geomspace(start, 1e3, 20001).tolist():
            assert math.erf(x) == 1.0 and math.erf(-x) == -1.0


class TestGamma:
    def test_factorials(self):
        assert specfun.gamma(4.0) == pytest.approx(6.0, rel=1e-12)
        assert specfun.gamma(8.0) == pytest.approx(5040.0, rel=1e-12)

    def test_half(self):
        assert specfun.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    @given(st.floats(min_value=0.5, max_value=20.0, allow_nan=False))
    @settings(max_examples=300, deadline=None)
    def test_recurrence(self, x):
        assert specfun.gamma(x + 1.0) == pytest.approx(x * specfun.gamma(x), rel=1e-12)

    def test_matches_reference_on_grid(self):
        for x in np.linspace(0.1, 30.0, 100):
            assert specfun.gamma(float(x)) == pytest.approx(gamma_reference(float(x)), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, float("nan"), float("inf")])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            specfun.gamma(bad)

    def test_overflow_names_argument(self):
        # math.gamma overflows a double past x ~ 171.6
        with pytest.raises(ValueError, match="172.0"):
            specfun.gamma(172.0)


class TestBesselK:
    def test_half_integer_closed_form(self):
        # K_{1/2}(x) = sqrt(pi/(2x)) exp(-x)
        assert specfun.bessel_k(0.5, 1.0) == pytest.approx(K_HALF_ONE, rel=1e-13)
        for x in (0.5, 2.0, 7.5, 30.0):
            closed = math.sqrt(math.pi / (2.0 * x)) * math.exp(-x)
            assert specfun.bessel_k(0.5, x) == pytest.approx(closed, rel=1e-13)

    def test_dominant_series_argument(self):
        # the order-3 term entering the mean-sum series at h/a = 3
        oracle = bessel_k_integral(3.0, 6.0 * math.pi)
        assert oracle == pytest.approx(K_THREE_SIX_PI, rel=1e-12)
        assert specfun.bessel_k(3.0, 6.0 * math.pi) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("nu", [0.5, 3.0, 7.0, 11.0])
    def test_matches_integral_oracle(self, nu):
        for x in np.geomspace(0.5, 60.0, 12):
            oracle = bessel_k_integral(nu, float(x))
            assert specfun.bessel_k(nu, float(x)) == pytest.approx(oracle, rel=1e-10)

    @pytest.mark.parametrize("nu", [0.0, 1.0, 2.0, 3.37, 6.0, 9.5, 13.0])
    def test_wide_domain(self, nu):
        for x in np.geomspace(0.5, 200.0, 9):
            oracle = bessel_k_integral(nu, float(x))
            assert specfun.bessel_k(nu, float(x)) == pytest.approx(oracle, rel=1e-10)

    def test_oracle_step_converged(self):
        coarse = bessel_k_integral(3.0, 2.5, step=0.008)
        fine = bessel_k_integral(3.0, 2.5, step=0.004)
        assert coarse == pytest.approx(fine, rel=1e-13)

    @given(
        st.floats(min_value=0.0, max_value=11.0, allow_nan=False),
        st.floats(min_value=0.5, max_value=100.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, nu, x):
        # K_{nu+1}(x) = K_{nu-1}(x) + (2 nu / x) K_nu(x), shifted to nu >= 0
        lhs = specfun.bessel_k(nu + 2.0, x)
        rhs = specfun.bessel_k(nu, x) + 2.0 * (nu + 1.0) / x * specfun.bessel_k(nu + 1.0, x)
        if rhs > 0.0:
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_positive_and_decreasing_in_x(self):
        for nu in (0.0, 1.5, 3.0, 7.0):
            values = [specfun.bessel_k(nu, float(x)) for x in np.linspace(0.5, 80.0, 40)]
            assert all(v > 0.0 for v in values)
            assert all(b < a for a, b in zip(values, values[1:]))

    def test_underflow_returns_zero(self):
        assert specfun.bessel_k(2.0, 800.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            specfun.bessel_k(1.0, 0.0)
        with pytest.raises(ValueError):
            specfun.bessel_k(1.0, -2.0)
        with pytest.raises(ValueError):
            specfun.bessel_k(-0.5, 1.0)
        with pytest.raises(ValueError):
            specfun.bessel_k(1.0, float("nan"))
