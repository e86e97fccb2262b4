"""Stochastic oracle: sampling, reproducibility, moment and coupling checks."""

import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from attocell import (
    NetworkGeometry,
    ThinningModel,
    clt_diagnostics,
    coverage_curve,
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
from attocell.montecarlo import (
    _fixed_point_weights,
    _limbs,
    _node_counts,
    _sampled_lattice,
    _thinned_sums,
    substream,
)

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


def _stream_samples(seed, node_index, w, p, trials):
    """C under p from node ``node_index``'s stream, as
    ``empirical_coverage_curves`` draws it for that node."""
    return np.concatenate([c for c, in _thinned_sums(substream(seed, node_index), w, (p,), trials)])


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

    @pytest.mark.parametrize("seed", [-1, 1.5, math.nan, math.inf])
    def test_seed_must_be_a_non_negative_integer(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {seed!r}$"):
            ThinningModel(p=0.5, seed=seed)
        with pytest.raises(ValueError, match=rf"^seed must be an integer >= 0, got {seed!r}$"):
            substream(seed)
        with pytest.raises(ValueError, match=rf"^substream path must be an integer >= 0, got {seed!r}$"):
            substream(1, seed)


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

    @pytest.mark.parametrize("beta", [float("nan"), float("inf"), 0.5, 1.0])
    def test_exponent_checked(self, small_geometry, beta):
        # the weights' lattice sum converges only for a finite beta > 1, and a
        # NaN beta would give negative samples
        model = ThinningModel(p=0.5, seed=1)
        with pytest.raises(ValueError, match="sum exponent must be finite and > 1"):
            interference_samples(model, small_geometry, beta, (0.0, 0.0), 4)

    @pytest.mark.parametrize(
        "geometry,field",
        [
            # the tail bound of 10 rings at pitch 1e-60 overflows: this sampled
            # interference of about 8.6 from a lattice 20 pitches wide
            (NetworkGeometry(pitch=1e-60, height=1.5), r"geometry\.pitch = 1e-60 "),
            # S(2 beta) underflows to 0: this returned samples of about 2.2e-238
            (NetworkGeometry(pitch=0.5, height=1e30), r"geometry\.height = 1e\+30 "),
        ],
    )
    def test_refuses_what_its_siblings_refuse_before_any_draw(self, monkeypatch, geometry, field):
        def no_draw(*args):
            raise AssertionError("drew from a lattice that moment_sums refuses")

        monkeypatch.setattr(attocell.montecarlo, "substream", no_draw)
        model = ThinningModel(p=0.5, seed=1, trunc=10)
        with pytest.raises(ValueError, match="^" + field):
            interference_samples(model, geometry, BETA, (0.0, 0.0), 10)
        with pytest.raises(ValueError, match="^" + field):
            clt_diagnostics(model, geometry, BETA, (0.0, 0.0), 10)

    @pytest.mark.parametrize("trials", [0, -4, 2.5, math.inf, math.nan])
    def test_trials_must_be_a_positive_integer(self, monkeypatch, small_geometry, trials):
        def no_draw(*args):
            raise AssertionError("drew before checking the trial count")

        monkeypatch.setattr(attocell.montecarlo, "substream", no_draw)
        model = ThinningModel(p=0.5, seed=1)
        with pytest.raises(ValueError, match=rf"^trials must be an integer >= 1, got {trials!r}$"):
            interference_samples(model, small_geometry, BETA, (0.0, 0.0), trials)
        with pytest.raises(ValueError, match=rf"^trials must be an integer >= 1, got {trials!r}$"):
            clt_diagnostics(model, small_geometry, BETA, (0.0, 0.0), trials)

    def test_fixed_point_shift_retried_when_rounding_passes_two_to_the_53(self):
        # the float sum is 1 - 2^-53, so the first shift is 53; rint moves
        # each of the 16 weights up by 0.375 units of 2^-53, so the integers
        # sum to 2^53 - 1 + 6 = 2^53 + 5, and the shift drops to 52
        w = np.full(16, (2**49 + 0.625) * 2.0**-53)
        w[-1] = (2**49 - 10.375) * 2.0**-53
        assert 53 - math.frexp(float(w.sum()))[1] == 53
        assert int(np.rint(np.ldexp(w, 53)).astype(np.int64).sum()) == 2**53 + 5
        w_int, shift = _fixed_point_weights(w)
        assert shift == 52
        assert np.array_equal(w_int, np.rint(np.ldexp(w, 52)))
        assert int(w_int.astype(np.int64).sum()) <= 2**53

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
        got = interference_samples(ThinningModel(p=p, seed=6), small_geometry, BETA, pos, 1100)
        w = interference_weights(small_geometry, BETA, pos)
        ref = substream(6)
        (want,) = _reference_sums(ref, w, (p,), 1100, chunk)
        assert np.array_equal(got, want)
        # the kernel leaves the stream where the reference leaves it
        rng = substream(6)
        for _ in _thinned_sums(rng, w, (p,), 1100):
            pass
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

    # one case per way a sampled lattice is formed: the override of
    # empirical_coverage_curves and ThinningModel.trunc, which clt_diagnostics
    # reads both for its brute-force moments and for interference_samples
    @pytest.mark.parametrize(
        "sample",
        [
            pytest.param(
                lambda g: empirical_coverage_curves(
                    attocell.TABLE_DEFAULT_OPTICS, g, (0.5,), [-6.0], trials_per_node=2, quad_order=1, trunc=1448
                ),
                id="empirical_coverage_curves",
            ),
            pytest.param(
                lambda g: interference_samples(ThinningModel(p=0.5, seed=5, trunc=1448), g, BETA, (0.0, 0.0), 2),
                id="interference_samples",
            ),
            pytest.param(
                lambda g: clt_diagnostics(ThinningModel(p=0.5, seed=5, trunc=1448), g, BETA, (0.0, 0.0), 2),
                id="clt_diagnostics",
            ),
        ],
    )
    def test_sampling_truncation_bounded_before_any_draw(self, small_geometry, monkeypatch, sample):
        # 1448 rings are (2 * 1448 + 1)^2 - 1 >= 2^23 sites, which would leave
        # a float32 limb no bits; 1447 rings are fewer
        assert (2 * 1447 + 1) ** 2 - 1 < 2**23 <= (2 * 1448 + 1) ** 2 - 1
        assert _sampled_lattice(small_geometry, 1447).trunc == 1447

        def no_draw(*args):
            raise AssertionError("drew from a lattice past 1447 rings")

        monkeypatch.setattr(attocell.montecarlo, "substream", no_draw)
        with pytest.raises(ValueError, match=r"^geometry\.trunc must be <= 1447 for sampling, got 1448$"):
            sample(small_geometry)

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


def _threads_back_to(baseline, timeout=5.0):
    """Whether ``threading.active_count()`` is back to ``baseline`` within
    ``timeout`` seconds."""
    deadline = time.monotonic() + timeout
    while threading.active_count() > baseline:
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestOverlappedDraws:
    """One helper thread draws the next slice while the current one is
    counted: the same words in the same order, and no thread left behind."""

    @pytest.fixture
    def seven_row_slices(self, small_geometry, monkeypatch):
        """Weights at one position, with ``_SMALL_GEMM`` cut so that slices
        hold 7 trials: 1100 trials are 158 slices."""
        w = interference_weights(small_geometry, BETA, (0.1, -0.05))
        limb_count = _limbs(_fixed_point_weights(w)[0])[0].shape[1]
        monkeypatch.setattr(attocell.montecarlo, "_SMALL_GEMM", 7 * w.size * limb_count + 1)
        return w

    def test_closed_after_first_slice(self, seven_row_slices):
        w = seven_row_slices
        baseline = threading.active_count()
        sums = _thinned_sums(substream(6, 1), w, (0.5,), 1100)
        (first,) = next(sums)
        # the helper is drawing, or has drawn, the second slice
        assert threading.active_count() == baseline + 1
        sums.close()
        assert _threads_back_to(baseline)
        (want,) = _reference_sums(substream(6, 1), w, (0.5,), 7, 7)
        assert np.array_equal(first, want)

    def test_draw_error_comes_out_of_the_generator(self, seven_row_slices):
        class SecondDrawFails:
            """A stream whose second ``random_raw`` call raises."""

            def __init__(self, rng):
                self.bit_generator = self
                self.draw = rng.bit_generator.random_raw
                self.calls = 0

            def random_raw(self, size):
                self.calls += 1
                if self.calls == 2:
                    raise RuntimeError("second draw failed")
                return self.draw(size)

        baseline = threading.active_count()
        got = []
        with pytest.raises(RuntimeError, match="^second draw failed$"):
            for c in _thinned_sums(SecondDrawFails(substream(6, 1)), seven_row_slices, (0.5,), 1100):
                got.append(c)
        assert len(got) == 1
        assert _threads_back_to(baseline)

    def test_many_slices_under_frequent_switches_match_reference(self, seven_row_slices):
        w = seven_row_slices
        baseline = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            rng = substream(9, 2)
            slices = list(_thinned_sums(rng, w, P_GRID, 1100))
        finally:
            sys.setswitchinterval(interval)
        assert len(slices) == 158
        ref = substream(9, 2)
        want = _reference_sums(ref, w, P_GRID, 1100, 64)
        for k, c in enumerate(want):
            assert np.array_equal(np.concatenate([s[k] for s in slices]), c)
        # nothing was drawn past the last slice
        assert rng.random() == ref.random()
        assert _threads_back_to(baseline)

    def test_no_helper_alive_after_curves(self, optics, small_geometry):
        # a helper alive at return could be forked into the next call's
        # worker processes
        before = set(threading.enumerate())
        empirical_coverage_curves(optics, small_geometry, (0.3, 0.8), [-6.0, 0.0], trials_per_node=300, quad_order=2)
        assert set(threading.enumerate()) == before


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
        ref = coverage_curve(optics, small_geometry, 0.0, [3.0], quad_order=8, use_symmetry=False)
        assert means[0, 0] == pytest.approx(ref.values[0], abs=1e-15)
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
        # draws of substream(seed, i), one p at a time; 300 trials end in a
        # partial slice
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
            w = interference_weights(small_geometry, BETA, (zx[i], zy[i]))
            for k, p in enumerate(p_list):
                c = _stream_samples(19, i, w, p, 300)
                counts[i, k] = (c[:, None] < etas[:, i]).sum(axis=0)
        assert np.array_equal(means, np.clip(np.einsum("i,ipt->pt", wq, counts / 300.0), 0.0, 1.0))

    def test_node_counts_exact_at_sampled_thresholds(self, small_geometry):
        # thresholds placed on the realized C values of node 0's stream: a
        # count moves as soon as one row's sum depends on how the trials
        # are sliced; 500 trials end in a partial slice
        g = small_geometry
        c = _stream_samples(4, 0, interference_weights(g, BETA, (0.1, 0.1)), 0.5, 500)
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

    @pytest.mark.parametrize(
        "argument,value,least",
        [
            ("seed", 1.5, 0),  # sampled as seed 1
            ("seed", -1, 0),  # numpy's unnamed "expected non-negative integer"
            ("trials_per_node", 0, 1),
            ("trials_per_node", 2.5, 1),
            ("n_jobs", 0, 1),  # ran serially
            ("n_jobs", 1.5, 1),
        ],
    )
    def test_integer_arguments_refused_before_any_draw(self, optics, small_geometry, monkeypatch, argument, value, least):
        def no_draw(*args):
            raise AssertionError("drew before checking the arguments")

        monkeypatch.setattr(attocell.montecarlo, "substream", no_draw)
        kwargs = dict(theta_db=[-6.0], seed=1, trials_per_node=10, quad_order=2, n_jobs=1)
        kwargs[argument] = value
        with pytest.raises(ValueError, match=rf"^{argument} must be an integer >= {least}, got {value!r}$"):
            empirical_coverage_curves(optics, small_geometry, (0.5,), **kwargs)

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

    @pytest.fixture
    def pools(self, monkeypatch):
        """The max_workers of every pool made, by a fake that runs in process."""
        made = []

        class SerialPool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(attocell.montecarlo, "ProcessPoolExecutor", SerialPool)
        return made

    def test_worker_pool_capped_at_node_count(self, optics, small_geometry, monkeypatch, pools):
        # the pool forks all of its workers at the first submit, so more
        # workers than quadrature nodes would only start idle processes
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        kwargs = dict(theta_db=[-8.0, -6.0], seed=7, trials_per_node=50, quad_order=2)
        pooled = empirical_coverage_curves(optics, small_geometry, (0.5,), n_jobs=500, **kwargs)
        assert pools == [4]
        serial = empirical_coverage_curves(optics, small_geometry, (0.5,), **kwargs)
        assert pools == [4]
        assert np.array_equal(pooled[0], serial[0]) and np.array_equal(pooled[1], serial[1])

    # an unknown CPU count allows one worker: the nodes run in process
    @pytest.mark.parametrize("cpus,made", [(3, [3]), (None, [])])
    def test_worker_pool_capped_at_cpu_count(self, optics, small_geometry, monkeypatch, pools, cpus, made):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        kwargs = dict(theta_db=[-8.0, -6.0], seed=7, trials_per_node=50, quad_order=2)
        pooled = empirical_coverage_curves(optics, small_geometry, (0.5,), n_jobs=1000, **kwargs)
        assert pools == made
        serial = empirical_coverage_curves(optics, small_geometry, (0.5,), **kwargs)
        assert np.array_equal(pooled[0], serial[0]) and np.array_equal(pooled[1], serial[1])


class TestCltDiagnostics:
    def test_degenerate_p_rejected(self, small_geometry):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                clt_diagnostics(ThinningModel(p=p, seed=1), small_geometry, BETA, (0, 0), 10)

    def test_single_trial_rejected_before_sampling(self, small_geometry, monkeypatch):
        # one sample has no variance: var(ddof=1) would be nan
        def no_sampling(*args, **kwargs):
            raise AssertionError("sampled before checking the trial count")

        monkeypatch.setattr(attocell.montecarlo, "interference_samples", no_sampling)
        with pytest.raises(ValueError, match=r"trials must be >= 2"):
            clt_diagnostics(ThinningModel(p=0.5, seed=1), small_geometry, BETA, (0.0, 0.0), trials=1)

    def test_sums_outside_float_range_name_the_height(self):
        # h/a = 2e42: the brute-force S_m that standardizes the samples is 0
        geometry = NetworkGeometry(0.5, 1e42, 5)
        with pytest.raises(ValueError, match=r"geometry\.height = "):
            clt_diagnostics(ThinningModel(p=0.5, seed=1), geometry, BETA, (0.0, 0.0), 10)

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
