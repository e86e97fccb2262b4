"""Stochastic oracle: sampling, reproducibility, moment and coupling checks."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from attocell import (
    NetworkGeometry,
    ThinningModel,
    clt_diagnostics,
    coverage_spatial,
    db_to_linear,
    empirical_coverage_curves,
    eta,
    interference_samples,
    sm_brute,
    sv_brute,
)
import attocell.montecarlo
from attocell.coverage import _eta_grid, attocell_quadrature
from attocell.model import interference_weights
from attocell.montecarlo import _fixed_point_weights, _limbs, _node_counts, _thinned_sums, substream

BETA = 4.0
# float32(1 - 1e-9) == 1, so the last two both give every site
P_GRID = (0.0, 1e-12, 0.3, 0.5, 0.8, 1 - 1e-9, 1.0)


def _reference_sums(rng, w, p_list, trials, chunk):
    """C under every p by float32 uniforms, u < float32(p), and a float64
    matvec against the fixed-point weights, drawn ``chunk`` trials at a
    time."""
    w_int, shift = _fixed_point_weights(w)
    chunks = []
    for start in range(0, trials, chunk):
        u = rng.random((min(chunk, trials - start), w.size), dtype=np.float32)
        chunks.append([np.ldexp(np.asarray(u < np.float32(p), dtype=float) @ w_int, -shift) for p in p_list])
    return [np.concatenate(c) for c in zip(*chunks)]


def _centre_coverage(optics, geometry, seed, theta_db, trials, p=0.5):
    """Empirical coverage at the attocell centre alone, as (means,
    stderrs) over the thresholds: the one-node rule (quad_order=1) puts
    its single node, with weight 1, at (0, 0)."""
    means, stderrs, _ = empirical_coverage_curves(
        optics, geometry, (p,), theta_db, seed=seed, trials_per_node=trials, quad_order=1
    )
    return means[0], stderrs[0]


class TestThinningModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            ThinningModel(p=1.2, seed=1)
        with pytest.raises(ValueError):
            ThinningModel(p=0.5, seed=-3)


class TestSubstreams:
    def test_deterministic_and_distinct(self):
        a = substream(7, 3).random(8)
        b = substream(7, 3).random(8)
        c = substream(7, 4).random(8)
        d = substream(8, 3).random(8)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)


class TestSampling:
    def test_p_zero_always_zero(self, small_geometry):
        model = ThinningModel(p=0.0, seed=11)
        s = interference_samples(model, small_geometry, BETA, (0.1, 0.1), 50)
        assert np.all(s == 0.0)

    def test_p_one_equals_brute_force(self, small_geometry):
        model = ThinningModel(p=1.0, seed=11)
        got = interference_samples(model, small_geometry, BETA, (0.0, 0.0), 1)[0]
        want = sm_brute(small_geometry, BETA, (0.0, 0.0)).value
        assert got == pytest.approx(want, rel=1e-12)

    def test_bounded_by_full_sum(self, small_geometry):
        model = ThinningModel(p=0.6, seed=5)
        s = interference_samples(model, small_geometry, BETA, (0.2, -0.1), 300)
        cap = sm_brute(small_geometry, BETA, (0.2, -0.1)).value
        assert np.all(s >= 0.0)
        assert np.all(s <= cap * (1 + 1e-12))

    def test_reproducible_and_prefix_stable(self, small_geometry):
        # the stream is read in trial order: a shorter run is a prefix of a
        # longer one, whatever slice the last trial falls in
        model = ThinningModel(p=0.5, seed=21)
        a = interference_samples(model, small_geometry, BETA, (0.1, 0.1), 500)
        b = interference_samples(model, small_geometry, BETA, (0.1, 0.1), 500)
        longer = interference_samples(model, small_geometry, BETA, (0.1, 0.1), 1100)
        assert np.array_equal(a, b)
        assert np.array_equal(a, longer[:500])

    def test_model_truncation_replaces_geometry_trunc(self, small_geometry):
        # sampling at ThinningModel.trunc = 2 is sampling a trunc-2 geometry
        narrow = NetworkGeometry(small_geometry.pitch, small_geometry.height, 2)
        got = interference_samples(ThinningModel(p=0.5, seed=1, trunc=2), small_geometry, BETA, (0.1, 0.1), 70)
        assert np.array_equal(got, interference_samples(ThinningModel(p=0.5, seed=1), narrow, BETA, (0.1, 0.1), 70))

    @pytest.mark.parametrize("trunc", [0, 2.7])
    def test_model_truncation_checked_as_geometry(self, small_geometry, trunc):
        # the override is checked where it replaces geometry.trunc, at first use
        model = ThinningModel(p=0.5, seed=1, trunc=trunc)
        with pytest.raises(ValueError, match=r"geometry\.trunc"):
            interference_samples(model, small_geometry, BETA, (0.1, 0.1), 10)

    def test_fixed_point_error_within_bound(self, small_geometry):
        # C against the correctly rounded sum of the same sites' float weights;
        # the fixed-point rounding is bounded by n * 2^-53 * S_m
        model = ThinningModel(p=0.4, seed=8)
        pos = (0.2, -0.1)
        c = interference_samples(model, small_geometry, BETA, pos, 200)
        w = interference_weights(small_geometry, BETA, pos)
        mask = substream(8).random((200, w.size), dtype=np.float32) < np.float32(0.4)
        exact = np.array([math.fsum(w[row]) for row in mask])
        assert np.max(np.abs(c - exact)) <= w.size * 2.0**-53 * math.fsum(w)

    def test_mean_matches_thinned_sum(self, small_geometry):
        model = ThinningModel(p=0.5, seed=33)
        s = interference_samples(model, small_geometry, BETA, (0.0, 0.0), 100_000)
        expected = 0.5 * sm_brute(small_geometry, BETA, (0.0, 0.0)).value
        stderr = s.std(ddof=1) / math.sqrt(s.size)
        assert abs(s.mean() - expected) <= 4 * stderr


class TestDraws:
    """The 32-bit words and float32 limbs give the decisions and C of
    float32 uniforms and a float64 matvec, bit for bit."""

    # the reference draws in chunks of its own, so the kernel's slices are
    # compared against two other chunk shapes
    @pytest.mark.parametrize("chunk", [64, 1024])
    @pytest.mark.parametrize("p", P_GRID)
    def test_samples_match_reference(self, small_geometry, chunk, p):
        # 1100 trials: a partial last chunk at either chunk size
        pos = (0.1, -0.05)
        rng, ref = substream(6, 1), substream(6, 1)
        got = interference_samples(ThinningModel(p=p, seed=6), small_geometry, BETA, pos, 1100, rng=rng)
        w = interference_weights(small_geometry, BETA, pos)
        (want,) = _reference_sums(ref, w, (p,), 1100, chunk)
        assert np.array_equal(got, want)
        # the stream is left where the reference leaves it
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("chunk", [64, 1024])
    def test_node_counts_match_reference(self, small_geometry, chunk):
        zx, zy = 0.15, 0.05
        w = interference_weights(small_geometry, BETA, (zx, zy))
        want = _reference_sums(substream(9, 2), w, P_GRID, 1100, chunk)
        # thresholds on realized values of C: one moved sum moves a count
        eta_row = np.concatenate([[0.0, 1.0], want[2][::50], want[4][::50]])
        counts = _node_counts(small_geometry, BETA, P_GRID, 1100, 9, 2, zx, zy, eta_row)
        for k, c in enumerate(want):
            assert np.array_equal(counts[k], (c[:, None] < eta_row[None, :]).sum(axis=0))

    def test_slices_cut_to_small_gemm(self, small_geometry, monkeypatch):
        # a slice whose product would pass _SMALL_GEMM is cut shorter; the
        # words are read in the same order, so C is unchanged
        pos = (0.1, -0.05)
        w = interference_weights(small_geometry, BETA, pos)
        limb_count = _limbs(_fixed_point_weights(w)[0])[0].shape[1]
        monkeypatch.setattr(attocell.montecarlo, "_SMALL_GEMM", 7 * w.size * limb_count + 1)
        slices = [c for c, in _thinned_sums(substream(6, 1), w, (0.5,), 1100)]
        assert [c.size for c in slices] == [7] * 157 + [1]
        (want,) = _reference_sums(substream(6, 1), w, (0.5,), 1100, 64)
        assert np.array_equal(np.concatenate(slices), want)

    @pytest.mark.parametrize(
        "make",
        [
            pytest.param(lambda: substream(5), id="philox-half-word-pending"),
            pytest.param(lambda: np.random.Generator(np.random.PCG64(5)), id="pcg64"),
        ],
    )
    def test_generator_checked_before_any_draw(self, small_geometry, make):
        rng, twin = make(), make()
        rng.random(dtype=np.float32), twin.random(dtype=np.float32)
        model = ThinningModel(p=0.5, seed=5)
        with pytest.raises(ValueError, match="Philox"):
            interference_samples(model, small_geometry, BETA, (0.0, 0.0), 10, rng=rng)
        assert np.array_equal(rng.random(4), twin.random(4))

    @pytest.mark.parametrize("sites", [3, 2**23])
    def test_site_count_checked_before_any_draw(self, sites):
        # an odd count splits a 64-bit word; 2^23 sites leave no limb bits
        rng = substream(5)
        with pytest.raises(ValueError, match="site count"):
            next(_thinned_sums(rng, np.broadcast_to(1.0, sites), (0.5,), 10))
        assert np.array_equal(rng.random(4), substream(5).random(4))

    def test_independent_of_blas_threads(self, small_geometry):
        # the float32 limb sums are exact, so one BLAS thread gives the
        # same C as the default thread count
        src = Path(attocell.__file__).resolve().parents[1]
        code = (
            "import sys; from attocell import NetworkGeometry, ThinningModel, interference_samples\n"
            "g = NetworkGeometry(pitch=0.5, height=1.5, trunc=15)\n"
            "c = interference_samples(ThinningModel(p=0.5, seed=12), g, 4.0, (0.1, 0.2), 1100)\n"
            "sys.stdout.buffer.write(c.tobytes())\n"
        )
        path = os.pathsep.join([str(src), *filter(None, [os.environ.get("PYTHONPATH")])])
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": path}
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, check=True)
        here = interference_samples(ThinningModel(p=0.5, seed=12), small_geometry, BETA, (0.1, 0.2), 1100)
        assert np.array_equal(np.frombuffer(child.stdout, dtype=np.float64), here)


class TestMoments:
    @pytest.mark.parametrize("p", [0.3, 0.5, 0.8])
    def test_mean_and_variance_on_position_grid(self, p, small_geometry):
        for i, zx in enumerate((-0.2, 0.0, 0.15)):
            for j, zy in enumerate((-0.1, 0.05, 0.25)):
                model = ThinningModel(p=p, seed=1000 + 10 * i + j)
                s = interference_samples(model, small_geometry, BETA, (zx, zy), 20_000)
                s_m = sm_brute(small_geometry, BETA, (zx, zy)).value
                s_v = sv_brute(small_geometry, BETA, (zx, zy)).value
                mean_se = s.std(ddof=1) / math.sqrt(s.size)
                assert abs(s.mean() - p * s_m) <= 4 * mean_se
                var = s.var(ddof=1)
                # stderr of the sample variance ~ var * sqrt(2/(n-1)) near normality
                var_se = var * math.sqrt(2.0 / (s.size - 1))
                assert abs(var - p * (1 - p) * s_v) <= 6 * var_se


class TestEmpiricalCoverage:
    """Pointwise coverage at the centre, through the one-node rule."""

    def test_deterministic(self, optics, small_geometry):
        a = _centre_coverage(optics, small_geometry, 77, -6.55, 2000)
        b = _centre_coverage(optics, small_geometry, 77, -6.55, 2000)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_limits(self, optics, small_geometry):
        means, stderrs = _centre_coverage(optics, small_geometry, 77, [-90.0, 90.0], 500)
        assert means.tolist() == [1.0, 0.0] and stderrs.tolist() == [0.0, 0.0]

    def test_p_one_deterministic_indicator(self, optics, small_geometry):
        total = sm_brute(small_geometry, BETA, (0.0, 0.0)).value
        # theta chosen so S_m < eta: covered with certainty
        t = float(db_to_linear(-12.0))
        assert eta(optics, small_geometry, (0.0, 0.0), t) > total
        means, _ = _centre_coverage(optics, small_geometry, 3, -12.0, 200, p=1.0)
        assert means.tolist() == [1.0]

    def test_grid_monotone_under_common_randomness(self, optics, small_geometry):
        means, _ = _centre_coverage(optics, small_geometry, 13, np.arange(-15.0, 5.0, 0.5), 4000)
        assert np.all(np.diff(means) <= 0.0)
        assert means[0] > means[-1]

    def test_matches_analytic_at_centre(self, optics):
        geometry = NetworkGeometry(0.5, 1.5, 40)
        (mean,), (stderr,) = _centre_coverage(optics, geometry, 99, -6.55, 20_000)
        ref = coverage_spatial(optics, geometry, 0.5, float(db_to_linear(-6.55)), quad_order=1)
        assert abs(mean - ref) <= 3 * stderr + 0.02

    def test_stderr_scaling(self, optics, small_geometry):
        _, a = _centre_coverage(optics, small_geometry, 55, -6.55, 4000)
        _, b = _centre_coverage(optics, small_geometry, 55, -6.55, 8000)
        ratio = b[0] / a[0]
        assert ratio == pytest.approx(1.0 / math.sqrt(2.0), rel=0.2)


class TestSpatial:
    def test_p_zero_equals_analytic_indicator(self, optics, small_geometry):
        means, stderrs, _ = empirical_coverage_curves(
            optics, small_geometry, (0.0,), theta_db=3.0, seed=5, trials_per_node=10, quad_order=8
        )
        ref = coverage_spatial(
            optics, small_geometry, 0.0, float(db_to_linear(3.0)), quad_order=8, use_symmetry=False
        )
        assert means[0, 0] == pytest.approx(ref, abs=1e-15)
        assert stderrs[0, 0] == 0.0

    def test_curves_coupled_monotone_in_p(self, optics, small_geometry):
        grid = np.arange(-12.0, 0.5, 0.5)
        means, stderrs, tail = empirical_coverage_curves(
            optics,
            small_geometry,
            (0.2, 0.5, 0.9),
            theta_db=grid,
            seed=42,
            trials_per_node=300,
            quad_order=4,
        )
        assert means.shape == (3, grid.size) == stderrs.shape
        # same uniforms: more interferers at larger p, realization by realization
        assert np.all(means[0] >= means[1])
        assert np.all(means[1] >= means[2])
        # and monotone in theta for each p
        assert np.all(np.diff(means, axis=1) <= 0.0)
        assert tail > 0.0

    def test_curves_reproducible_and_parallel_identical(self, optics, small_geometry):
        grid = np.array([-8.0, -6.0, -4.0])
        kwargs = dict(theta_db=grid, seed=7, trials_per_node=200, quad_order=4)
        serial = empirical_coverage_curves(optics, small_geometry, (0.5,), **kwargs)
        again = empirical_coverage_curves(optics, small_geometry, (0.5,), **kwargs)
        parallel = empirical_coverage_curves(
            optics, small_geometry, (0.5,), n_jobs=2, **kwargs
        )
        assert np.array_equal(serial[0], again[0])
        assert np.array_equal(serial[0], parallel[0])
        assert np.array_equal(serial[1], parallel[1])

    def test_curves_match_per_node_samples(self, optics, small_geometry):
        # the curves are the quadrature average of per-node counts over the
        # same draws interference_samples makes from substream(seed, i);
        # 300 trials end in a partial slice
        grid = np.arange(-10.0, -2.0, 0.25)
        p_list = (0.3, 0.8)
        means, stderrs, _ = empirical_coverage_curves(
            optics, small_geometry, p_list, theta_db=grid, seed=19, trials_per_node=300, quad_order=4
        )
        again = empirical_coverage_curves(
            optics, small_geometry, p_list, theta_db=grid, seed=19, trials_per_node=300, quad_order=4
        )
        assert np.array_equal(means, again[0]) and np.array_equal(stderrs, again[1])
        zx, zy, wq = attocell_quadrature(small_geometry, 4, use_symmetry=False)
        etas = _eta_grid(optics, small_geometry, zx, zy, db_to_linear(grid))
        counts = np.zeros((zx.size, len(p_list), grid.size), dtype=np.int64)
        for i in range(zx.size):
            for k, p in enumerate(p_list):
                model = ThinningModel(p=p, seed=19)
                c = interference_samples(model, small_geometry, BETA, (zx[i], zy[i]), 300, rng=substream(19, i))
                counts[i, k] = (c[:, None] < etas[:, i]).sum(axis=0)
        assert np.array_equal(means, np.clip(np.einsum("i,ipt->pt", wq, counts / 300.0), 0.0, 1.0))

    def test_node_counts_exact_at_sampled_thresholds(self, small_geometry):
        # thresholds placed on the realized C values of node 0's stream: a
        # count moves as soon as one row's sum depends on how the trials
        # are sliced; 500 trials end in a partial slice
        g = small_geometry
        c = interference_samples(ThinningModel(p=0.5, seed=4), g, BETA, (0.1, 0.1), 500, rng=substream(4, 0))
        counts = _node_counts(g, BETA, (0.5,), 500, 4, 0, 0.1, 0.1, c)
        assert np.array_equal(counts[0], (c[:, None] < c[None, :]).sum(axis=0))

    @pytest.mark.parametrize("trunc", [0, 2.5])
    def test_sampling_truncation_checked_as_geometry(self, optics, small_geometry, trunc):
        # trunc replaces geometry.trunc, so the geometry's check names it
        with pytest.raises(ValueError, match=r"geometry\.trunc"):
            empirical_coverage_curves(
                optics, small_geometry, (0.5,), theta_db=[-6.0], trials_per_node=10, quad_order=2, trunc=trunc
            )

    def test_spatial_estimate_fields(self, optics, small_geometry):
        means, stderrs, _ = empirical_coverage_curves(
            optics, small_geometry, (0.4,), theta_db=-6.0, seed=11, trials_per_node=200, quad_order=4
        )
        assert means.shape == stderrs.shape == (1, 1)
        assert 0.0 <= means[0, 0] <= 1.0 and stderrs[0, 0] > 0.0
        zx, _, _ = attocell_quadrature(small_geometry, 4, use_symmetry=False)
        assert zx.size == 16

    def test_theta_argument_validation(self, optics, small_geometry):
        with pytest.raises(ValueError):
            empirical_coverage_curves(
                optics, small_geometry, (1.5,), theta_db=np.array([0.0])
            )
        # the thresholds go through the same check as the analytic eta:
        # -inf dB is a zero linear threshold, +inf dB an infinite one
        for bad in (-float("inf"), float("inf"), float("nan")):
            with pytest.raises(ValueError):
                empirical_coverage_curves(
                    optics, small_geometry, (0.5,), theta_db=[0.0, bad], trials_per_node=1
                )

    def test_worker_pool_capped_at_node_count(self, optics, small_geometry, monkeypatch):
        # the pool forks all of its workers at the first submit, so more
        # workers than quadrature nodes would only start idle processes
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(attocell.montecarlo, "ProcessPoolExecutor", SerialPool)
        kwargs = dict(theta_db=[-8.0, -6.0], seed=7, trials_per_node=50, quad_order=2)
        pooled = empirical_coverage_curves(optics, small_geometry, (0.5,), n_jobs=500, **kwargs)
        assert pools == [4]
        serial = empirical_coverage_curves(optics, small_geometry, (0.5,), **kwargs)
        assert pools == [4]
        assert np.array_equal(pooled[0], serial[0]) and np.array_equal(pooled[1], serial[1])


class TestCltDiagnostics:
    def test_degenerate_p_rejected(self, small_geometry):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                clt_diagnostics(ThinningModel(p=p, seed=1), small_geometry, BETA, (0, 0), 10)

    def test_moments_and_ks(self, optics):
        geometry = NetworkGeometry(0.5, 1.5, 20)
        model = ThinningModel(p=0.5, seed=2024)
        diag = clt_diagnostics(model, geometry, BETA, (0.0, 0.0), 20_000)
        s_m = sm_brute(geometry, BETA, (0.0, 0.0)).value
        s_v = sv_brute(geometry, BETA, (0.0, 0.0)).value
        se = math.sqrt(diag.sample_var / diag.trials)
        assert abs(diag.sample_mean - 0.5 * s_m) <= 4 * se
        assert diag.sample_var / (0.25 * s_v) == pytest.approx(1.0, abs=0.05)
        assert diag.ks_stat <= 0.05
        assert diag.trials == 20_000
