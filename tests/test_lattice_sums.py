"""Brute-force and closed-form moment sums against each other."""

import math
import tracemalloc

import numpy as np
import pytest

from attocell import (
    DerivedConstants,
    NetworkGeometry,
    attocell_quadrature,
    moment_sums,
    sm_brute,
    sm_series,
    sv_brute,
    sv_series,
)
from attocell.lattice_sums import _ring_sites, series_mode_terms
from attocell.model import _site_columns, interference_weights, lattice_sites

# ring-ordered fsum at the reference config, pinned by the
# independent row-major summation below agreeing to 1e-13
SM_REFERENCE = 0.32872461712993456  # a=0.5, h=1.5, beta=4, z=(0,0), trunc=200
SV_CORNER_REFERENCE = 0.005158622238419826  # as above at z=(0.25, 0.25), exponent 8


def site_weights(geometry, exponent, pos, trunc):
    """Per-site weights written out from the integer site table, in
    ``lattice_sites`` order."""
    sites = lattice_sites(trunc)
    dx = sites[:, 0] * geometry.pitch + pos[0]
    dy = sites[:, 1] * geometry.pitch + pos[1]
    return (dx * dx + dy * dy + geometry.height**2) ** (-float(exponent))


def row_major_sum(geometry, exponent, pos, trunc):
    """Second, independent implementation: plain row-major numpy pairwise
    summation (different accumulation order than the library's ring fsum)."""
    return float(np.sum(site_weights(geometry, exponent, pos, trunc)))


def ring_fsum(geometry, exponent, pos, trunc):
    """The ring-ordered brute sum with its ring order taken per call: the
    weights gathered into stable ascending |u|+|v| order, each ring added by
    ``np.add.reduceat`` and the ring subtotals by ``math.fsum``."""
    sites = lattice_sites(trunc)
    rings = np.abs(sites[:, 0]) + np.abs(sites[:, 1])
    order = np.argsort(rings, kind="stable")
    starts = np.concatenate([[0], np.flatnonzero(np.diff(rings[order])) + 1])
    terms = site_weights(geometry, exponent, pos, trunc)[order]
    return math.fsum(np.add.reduceat(terms, starts))


class TestBruteForce:
    def test_reference_value_dual_implementation(self, geometry):
        mine = sm_brute(geometry, 4.0, (0.0, 0.0))
        other = row_major_sum(geometry, 4.0, (0.0, 0.0), geometry.trunc)
        assert mine.value == pytest.approx(SM_REFERENCE, rel=1e-13)
        assert mine.value == pytest.approx(other, rel=1e-13)
        assert mine.tail_bound > 0.0

    def test_sv_corner_reference(self, geometry):
        mine = sv_brute(geometry, 4.0, (0.25, 0.25))
        other = row_major_sum(geometry, 8.0, (0.25, 0.25), geometry.trunc)
        assert mine.value == pytest.approx(SV_CORNER_REFERENCE, rel=1e-13)
        assert mine.value == pytest.approx(other, rel=1e-13)

    def test_sv_is_sm_at_doubled_exponent(self, geometry):
        assert sv_brute(geometry, 4.0, (0.1, 0.2)).value == sm_brute(
            geometry, 8.0, (0.1, 0.2)
        ).value

    def test_large_exponent_decay(self, geometry):
        s50 = sm_brute(geometry, 50.0, (0.0, 0.0)).value
        s4 = sm_brute(geometry, 4.0, (0.0, 0.0)).value
        assert s50 < 1e-15 * s4
        # the four nearest interferers at distance a dominate completely
        nearest = 4.0 * (geometry.pitch**2 + geometry.height**2) ** (-50.0)
        assert s50 == pytest.approx(nearest, rel=0.05)

    def test_reflection_and_swap_symmetry(self, geometry):
        base = sm_brute(geometry, 4.0, (0.13, 0.07)).value
        for pos in ((-0.13, 0.07), (0.13, -0.07), (0.07, 0.13), (-0.07, -0.13)):
            assert sm_brute(geometry, 4.0, pos).value == pytest.approx(base, rel=1e-13)

    def test_centre_below_corner(self, geometry):
        # the corner position sits next to three close interferers
        centre = sm_brute(geometry, 4.0, (0.0, 0.0)).value
        corner = sm_brute(geometry, 4.0, (0.25, 0.25)).value
        assert centre < corner

    def test_invalid_exponent(self, geometry):
        with pytest.raises(ValueError):
            sm_brute(geometry, 1.0, (0.0, 0.0))

    @pytest.mark.parametrize("trunc", [1, 2, 15, 200])
    def test_bit_identical_to_per_call_ring_gather(self, optics, trunc):
        # the cached ring-ordered columns compute every term by the same
        # IEEE expression and add the rings in the same order
        geometry = NetworkGeometry(pitch=0.5, height=1.5, trunc=trunc)
        beta = DerivedConstants.from_configs(optics, geometry).beta
        for pos in ((0.0, 0.0), (0.13, -0.07), (0.25, 0.25)):
            for e in (beta, 2 * beta, 3 * beta):
                assert sm_brute(geometry, e, pos).value == ring_fsum(geometry, e, pos, trunc)
                weights = interference_weights(geometry, e, pos)
                assert np.array_equal(weights, site_weights(geometry, e, pos, trunc))

    def test_cached_columns_stay_unchanged(self, geometry):
        trunc = geometry.trunc
        for column in (*_ring_sites(trunc), *_site_columns(trunc)):
            assert not column.flags.writeable
        before = sm_brute(geometry, 4.0, (0.1, 0.05)).value
        first = interference_weights(geometry, 4.0, (0.1, 0.05))
        second = interference_weights(geometry, 4.0, (0.1, 0.05))
        expected = second.copy()
        for result in (first, second):
            assert result.flags.writeable
            assert not any(np.shares_memory(result, c) for c in _site_columns(trunc))
        assert not np.shares_memory(first, second)
        first[:] = -1.0
        second[:] = np.nan
        assert np.array_equal(interference_weights(geometry, 4.0, (0.1, 0.05)), expected)
        assert sm_brute(geometry, 4.0, (0.1, 0.05)).value == before


class TestSeries:
    def test_default_modes(self, geometry):
        s = sm_series(geometry, 4.0, (0.0, 0.0))
        assert s.tail_bound is None
        rows = series_mode_terms(geometry, 4.0, (0.0, 0.0))
        modes = [r["term"] for r in rows if r["term"].startswith("mode")]
        assert modes == ["mode(0,1)", "mode(1,0)", "mode(1,1)"]

    @pytest.mark.parametrize("height", [1.5, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("pos", [(0.0, 0.0), (0.25, 0.25), (0.13, -0.07)])
    def test_matches_brute_force(self, height, pos):
        geometry = NetworkGeometry(pitch=0.5, height=height, trunc=200)
        for make_brute, make_series in ((sm_brute, sm_series), (sv_brute, sv_series)):
            b = make_brute(geometry, 4.0, pos).value
            s = make_series(geometry, 4.0, pos).value
            assert s == pytest.approx(b, rel=1e-8)

    def test_uniform_mode_weights_show_systematic_error(self, geometry):
        # with every dual mode weighted as an interior mode the closed form
        # overshoots measurably; the halved axis weight is what matches
        b = sv_brute(geometry, 4.0, (0.0, 0.0)).value
        corrected = sv_series(geometry, 4.0, (0.0, 0.0)).value
        rows = series_mode_terms(geometry, 8.0, (0.0, 0.0))
        uniform = sum(r.get("uniform_value", r["contribution"]) for r in rows)
        assert sum(r["contribution"] for r in rows) == pytest.approx(corrected, rel=1e-14)
        assert abs(corrected - b) / b < 1e-8
        assert abs(uniform - b) / b > 1e-4
        assert uniform > corrected

    def test_sv_is_sm_at_doubled_exponent(self, geometry):
        assert sv_series(geometry, 4.0, (0.2, -0.1)).value == sm_series(
            geometry, 8.0, (0.2, -0.1)
        ).value

    def test_even_in_each_coordinate(self, geometry):
        base = sm_series(geometry, 4.0, (0.18, 0.04)).value
        assert sm_series(geometry, 4.0, (-0.18, 0.04)).value == pytest.approx(base, rel=1e-15)
        assert sm_series(geometry, 4.0, (0.18, -0.04)).value == pytest.approx(base, rel=1e-15)

    def test_cosine_part_is_periodic(self, geometry):
        # only the dual-mode part is lattice periodic (the self term is not)
        def mode_sum(pos):
            rows = series_mode_terms(geometry, 4.0, pos)
            return sum(r["contribution"] for r in rows if r["term"].startswith("mode"))

        a = geometry.pitch
        for pos in ((0.05, 0.11), (0.21, -0.17)):
            shifted = (pos[0] + a, pos[1])
            assert mode_sum(shifted) == pytest.approx(mode_sum(pos), rel=1e-9)
            shifted = (pos[0], pos[1] - a)
            assert mode_sum(shifted) == pytest.approx(mode_sum(pos), rel=1e-9)

    def test_positive_over_attocell_grid(self, geometry):
        half = geometry.pitch / 2
        grid = np.linspace(-half, half, 33)
        for zx in grid:
            for zy in grid:
                assert sv_series(geometry, 4.0, (zx, zy)).value > 0.0

    def test_bessel_terms_vanish_for_tall_mounting(self):
        # h/a large: only the integral and self terms survive
        geometry = NetworkGeometry(pitch=0.5, height=4.0, trunc=50)
        s = sm_series(geometry, 4.0, (0.1, 0.1)).value
        e = 4.0
        expected = (
            math.pi * geometry.height ** (2 - 2 * e) / (geometry.pitch**2 * (e - 1))
            - (0.02 + geometry.height**2) ** (-e)
        )
        assert s == pytest.approx(expected, rel=1e-12)

    def test_zero_modes_allowed_but_coarser(self, geometry):
        b = sm_brute(geometry, 4.0, (0.0, 0.0)).value
        bare = sm_series(geometry, 4.0, (0.0, 0.0), jl=(0, 0))
        full = sm_series(geometry, 4.0, (0.0, 0.0), jl=(1, 1))
        assert abs(bare.value - b) > abs(full.value - b)

    def test_larger_mode_window_stays_consistent(self, geometry):
        b = sm_brute(geometry, 4.0, (0.11, 0.23)).value
        s = sm_series(geometry, 4.0, (0.11, 0.23), jl=(3, 3)).value
        assert s == pytest.approx(b, rel=1e-8)

    def test_fractional_exponents(self, geometry):
        # Lambertian orders away from 1 give non-integer beta, so the
        # series runs through genuinely real-order Bessel evaluations
        beta = 4.12592166500788  # half angle 1 rad
        for pos in ((0.0, 0.0), (0.17, -0.08)):
            bm = sm_brute(geometry, beta, pos).value
            bv = sv_brute(geometry, beta, pos).value
            assert sm_series(geometry, beta, pos).value == pytest.approx(bm, rel=1e-8)
            assert sv_series(geometry, beta, pos).value == pytest.approx(bv, rel=1e-8)

    def test_narrow_beam_needs_wider_mode_window(self, geometry):
        # beta ~ 7.82 (half angle pi/6): the Bessel order 2 beta - 1 ~ 14.6
        # weakens the dual-mode decay, so the default three-mode window
        # carries a visible truncation error on S_v; widening it restores
        # full agreement with brute force
        beta = 7.81884167930642
        bv = sv_brute(geometry, beta, (0.0, 0.0)).value
        default = sv_series(geometry, beta, (0.0, 0.0)).value
        wide = sv_series(geometry, beta, (0.0, 0.0), jl=(2, 2)).value
        assert abs(default - bv) / bv < 1e-6
        assert abs(default - bv) / bv > 1e-8
        assert wide == pytest.approx(bv, rel=1e-11)

    def test_non_positive_value_is_an_error(self, geometry):
        # S(e) sums positive terms: a window far too small for the Bessel
        # order (beta = 84.8) or the height (h/a = 1) must not pass a value
        with pytest.raises(ValueError, match=r"e = 84\.7978 is -4\.851e-32 at node \(0, 0\)"):
            sm_series(geometry, 84.79781128924677, (0.0, 0.0))
        low = NetworkGeometry(pitch=0.5, height=0.5, trunc=200)
        zx, zy, _ = attocell_quadrature(low, 32)
        with pytest.raises(ValueError, match=r'h/a = 1 and mode window jl = \(1, 1\).*sums="brute"'):
            moment_sums(low, (4.0, 8.0), zx, zy)

    def test_invalid_modes(self, geometry):
        with pytest.raises(ValueError):
            sm_series(geometry, 4.0, (0.0, 0.0), jl=(-1, 1))
        with pytest.raises(ValueError):
            moment_sums(geometry, (4.0,), [0.0], [0.0], jl=(-1, 1))


class TestMomentSums:
    def test_equals_per_position_sums(self, optics):
        # the kernel over nodes is the per-position sums, bit for bit
        geometry = NetworkGeometry(pitch=0.5, height=1.5, trunc=30)
        beta = DerivedConstants.from_configs(optics, geometry).beta
        zx, zy, _ = attocell_quadrature(geometry, 6)
        exponents = (beta, 2 * beta, 3 * beta)
        series = moment_sums(geometry, exponents, zx, zy)
        brute = moment_sums(geometry, exponents, zx, zy, sums="brute")
        assert series.shape == brute.shape == (3, zx.size)
        for k, e in enumerate(exponents):
            for i, pos in enumerate(zip(zx, zy)):
                assert series[k, i] == sm_series(geometry, e, pos).value
                assert brute[k, i] == sm_brute(geometry, e, pos).value

    @pytest.mark.parametrize("trunc", [15, 200])
    def test_brute_rows_match_ring_oracle(self, optics, trunc):
        # the one-pass kernel against the independent per-call ring fsum,
        # for more exponents than the coverage path asks for
        geometry = NetworkGeometry(pitch=0.5, height=1.5, trunc=trunc)
        beta = DerivedConstants.from_configs(optics, geometry).beta
        zx, zy, _ = attocell_quadrature(geometry, 3)
        exponents = (beta, 2 * beta, 3 * beta, 4 * beta)
        brute = moment_sums(geometry, exponents, zx, zy, sums="brute")
        for k, e in enumerate(exponents):
            for i, pos in enumerate(zip(zx, zy)):
                assert brute[k, i] == ring_fsum(geometry, e, pos, trunc)
            alone = moment_sums(geometry, (e,), zx, zy, sums="brute")
            assert np.array_equal(alone[0], brute[k])
        reverse = moment_sums(geometry, exponents[::-1], zx, zy, sums="brute")
        assert np.array_equal(reverse, brute[::-1])

    def test_brute_keeps_two_site_arrays(self, geometry):
        # one buffer for D^2 + h^2 and one for the weights, whatever the
        # number of nodes and exponents
        sites = _ring_sites(geometry.trunc)[0].size
        zx, zy = np.linspace(-0.25, 0.25, 10), np.linspace(0.25, -0.2, 10)
        tracemalloc.start()
        try:
            moment_sums(geometry, (4.0, 8.0, 12.0, 16.0), zx, zy, sums="brute")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.1 * sites * 8

    def test_node_arrays_must_match(self, geometry):
        # brute force would zip the nodes short and the series broadcast them
        for zx, zy in (([0.0, 0.1], [0.0]), ([[0.0]], [[0.0]])):
            for sums in ("series", "brute"):
                with pytest.raises(ValueError, match="node coordinates"):
                    moment_sums(geometry, (4.0,), zx, zy, sums=sums)
