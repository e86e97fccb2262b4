"""Monte Carlo oracle for the thinned-interference coverage pipeline.

Draws Bernoulli thinning realizations over the truncated interferer lattice,
accumulates the exact weighted interference C = sum_i alpha_i w_i with
w_i = (D_i^2 + h^2)^(-beta), and estimates coverage as the fraction of
realizations with C < eta.  No Gaussian approximation and no closed-form
series enter anywhere on this path, which is what makes it a usable
cross-check of the analytic pipeline.

Reproducibility contract
------------------------
All randomness comes from counter-based Philox streams derived as

    stream(seed, *path) = Philox(SeedSequence([seed, *path]))

``interference_samples`` consumes ``stream(seed)``, and
``empirical_coverage_curves`` gives quadrature node ``i`` its own
``stream(seed, i)``, so node workers can run in any order (or in parallel)
and still produce bit-identical results.  Within a stream, trials are
consumed in order, one row of sites after another.  Each (trial, site)
reads one 32-bit word r of the stream's raw 64-bit output, low half
first, which is the word Philox hands to a float32 draw.  That draw would
be the uniform u = (r >> 8) 2^-24 (granularity 2^-24, a negligible
Bernoulli bias), and u < float32(p) holds exactly when
r < ceil(float32(p) 2^24) 2^8, so the site is compared in integers and
the decisions, and the stream state after them, are those of
``random(dtype=float32) < float32(p)``.  One word
per site is shared across the whole ``p`` grid, so thinning realizations
are coupled by common random numbers: raising p can only add interferers,
making realization-wise monotonicity in p exact.  Coverage tallies are
integer counts, never floating accumulations.

C itself is summed from exact fixed-point weights, a format formed in one
place, ``_limbs``: each w_i is rounded once to an integer multiple of
2^-k, with k chosen so the integer weights sum to at most 2^53.  For n
sites the integers are split into float32 limbs of 24 - bit_length(n)
bits each, written straight into one array, so every sum of a 0/1 mask
against one limb stays below 2^24 and is an exact float32 integer; the
limb sums are recombined in int64 and scaled by 2^-k.  A limb keeps a bit
only for n < 2^23, so a lattice of n = (2 trunc + 1)^2 - 1 = 4 trunc
(trunc + 1) sites (two to each 64-bit word) is sampled up to trunc = 1447
rings and refused beyond, before any draw.  No rounding happens after the
weights', so the order of summation cannot matter: any BLAS kernel, block
shape, thread count or FMA gives the same C, equal bit for bit to the
float64 sum of the fixed-point weights.  The rounding moves C by at
most n * 2^-53 * S_m for n sites (to first order), where S_m = sum_i w_i
over the sampled lattice.  Internally the words are drawn, compared and
summed a slice of trials at a time, as many as keep the slice's product
within OpenBLAS's small-matrix sgemm (see ``_SMALL_GEMM``), which also
keeps the words and the mask in cache and bounds memory in the trial
count.  While a slice is compared and summed, one helper thread draws
the next slice's words, one draw in flight at a time and nothing past
the last slice, so the words are the same, in the same order, and the
stream ends where a serial loop leaves it; the helper is joined before
the loop returns or raises.  Slicing and the helper only group and time
the words, so they change no word and no result.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import specfun
from .coverage import _check_p, _eta_grid, attocell_quadrature, db_to_linear
from .lattice_sums import moment_sums, sm_brute, sv_brute
from .model import (
    NetworkGeometry,
    OpticalConfig,
    _check_integer,
    _with_trunc,
    interference_weights,
    position_xy,
    tail_bound,
)

__all__ = [
    "ThinningModel",
    "CltDiagnostics",
    "substream",
    "interference_samples",
    "empirical_coverage_curves",
    "clt_diagnostics",
]

# largest M*N*K that OpenBLAS's small-matrix sgemm takes (100^3 in its x86-64
# kernels).  That kernel runs on the calling thread; a larger product goes to
# the blocked kernel, which for a mask against a few limbs was 2x slower per
# trial on a 2-vCPU AMD EPYC and wakes OpenBLAS worker threads that keep
# spinning between calls, so run times jumped with the load on the other CPU
_SMALL_GEMM = 100**3


@dataclass(frozen=True)
class ThinningModel:
    """Bernoulli thinning: each interferer transmits with probability p.

    ``trunc`` replaces the geometry's lattice truncation for sampling
    (None inherits it), checked as ``geometry.trunc`` (1 to 1447 rings)
    where it does; the tagged LED is never part of the realization.
    """

    p: float
    seed: int
    trunc: int | None = None

    def __post_init__(self):
        _check_p(self.p)
        _check_integer(self.seed, "seed", 0)


@dataclass(frozen=True)
class CltDiagnostics:
    """First two moments of the interference samples plus the one-sample
    Kolmogorov-Smirnov distance of the standardized samples from N(0, 1)."""

    sample_mean: float
    sample_var: float
    ks_stat: float
    trials: int


def substream(seed: int, *path: int) -> np.random.Generator:
    """Deterministic Philox stream for (seed, *path); see module docstring."""
    words = [_check_integer(seed, "seed", 0), *(_check_integer(k, "substream path", 0) for k in path)]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(words)))


def _sampled_lattice(geometry: NetworkGeometry, trunc: int | None) -> NetworkGeometry:
    """``geometry`` truncated at ``trunc`` rings for sampling (None keeps its
    own); past 1447 rings (2^23 sites) a ``ValueError`` naming ``geometry.trunc``."""
    sampled = _with_trunc(geometry, trunc)
    if sampled.trunc > 1447:
        raise ValueError(f"geometry.trunc must be <= 1447 for sampling, got {sampled.trunc!r}")
    return sampled


def _limbs(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """The fixed-point format of the weights ``w``, as (limbs, place, shift).

    Each weight is rounded once to an integer multiple of 2^-shift, with
    shift as large as keeps the integers' sum at most 2^53.  For n sites
    the integers are split into ``bits = 24 - n.bit_length()``-bit columns,
    least significant first, written into one (n, count) C-order float32
    array: every sum of a 0/1 mask against one column stays below 2^24, so
    ``mask @ limbs`` is exact in float32, and column j carries the weight
    2^place[j] (see module docstring).
    """
    shift = 53 - math.frexp(float(w.sum()))[1]
    while True:
        ints = np.rint(np.ldexp(w, shift)).astype(np.int64)
        if int(ints.sum()) <= 2**53:
            break
        shift -= 1
    bits = 24 - w.size.bit_length()
    count = max(1, -(-int(ints.max()).bit_length() // bits))
    limbs = np.empty((w.size, count), dtype=np.float32)
    for j in range(count):
        limbs[:, j] = (ints >> (bits * j)) & ((1 << bits) - 1)
    return limbs, bits * np.arange(count), shift


def _thinned_sums(rng: np.random.Generator, w: np.ndarray, p_list, trials: int):
    """Yield, for each slice of trials in order, as many as keep the
    slice's product within ``_SMALL_GEMM`` (at least one), C under
    every p in ``p_list`` as one array of shape (len(p_list), rows).  One
    32-bit word per (trial, site) of ``rng``, fresh from ``substream``, is
    drawn once and shared across the p grid, and a site transmits when its
    word falls below the cut of p; C is summed from the float32 limbs of
    the fixed-point weights ``w`` of a ``_sampled_lattice`` (see module
    docstring)."""
    n = w.size
    limbs, place, shift = _limbs(w)
    # u = (r >> 8) 2^-24 < float32(p)  <=>  r < ceil(float32(p) 2^24) 2^8
    cuts = [math.ceil(float(np.float32(p)) * 2**24) << 8 for p in p_list]
    slice_rows = max(1, min(trials, _SMALL_GEMM // (n * limbs.shape[1])))
    mask = np.empty((slice_rows, n), dtype=np.float32)
    sums = np.empty((len(cuts), slice_rows, limbs.shape[1]), dtype=np.float32)
    draw = rng.bit_generator.random_raw
    # one FIFO helper draws slice i + 1 while slice i is counted; random_raw,
    # np.less and the sgemm release the GIL.  Leaving the with block joins it
    with ThreadPoolExecutor(max_workers=1) as helper:
        pending = helper.submit(draw, slice_rows * n // 2)
        try:
            for i in range(0, trials, slice_rows):
                rows = min(slice_rows, trials - i)
                raw = pending.result()
                if i + rows < trials:
                    pending = helper.submit(draw, min(slice_rows, trials - i - rows) * n // 2)
                # little-endian: the low half of each 64-bit word comes first
                r = np.asarray(raw, "<u8").view("<u4").reshape(rows, n)
                m = mask[:rows]
                for k, cut in enumerate(cuts):
                    if cut < 2**32:
                        np.less(r, cut, out=m)
                    else:  # float32(p) == 1: every word is below the cut
                        m.fill(1.0)
                    np.matmul(m, limbs, out=sums[k, :rows])
                yield np.ldexp((sums[:, :rows].astype(np.int64) << place).sum(axis=2).astype(float), -shift)
        finally:
            # a consumer that stops early, or raises, leaves the next slice's
            # draw in flight: cancel it, or wait for it and drop its words
            if not pending.cancel():
                pending.exception()


def interference_samples(
    model: ThinningModel, geometry: NetworkGeometry, beta: float, pos, trials: int
) -> np.ndarray:
    """``trials`` iid realizations of C as a float64 array, drawn from
    ``substream(model.seed)``.  Before any draw, the sampled lattice's
    brute-force S(beta) and S(2 beta) at ``pos`` refuse it as
    ``empirical_coverage_curves`` refuses its nodes' lattices."""
    trials = _check_integer(trials, "trials", 1)
    sampled = _sampled_lattice(geometry, model.trunc)
    zx, zy = position_xy(pos)
    moment_sums(sampled, (beta, 2.0 * beta), zx, zy, "brute")  # for its refusals only
    w = interference_weights(sampled, beta, (zx, zy))
    return np.concatenate([c for c, in _thinned_sums(substream(model.seed), w, (model.p,), trials)])


def _node_counts(
    geometry: NetworkGeometry,
    beta: float,
    p_list: tuple[float, ...],
    trials: int,
    seed: int,
    node_index: int,
    zx: float,
    zy: float,
    eta_row: np.ndarray,
) -> np.ndarray:
    """Coverage counts (len(p_list), len(eta_row)) for one quadrature node,
    sampling the lattice truncated at ``geometry.trunc``.

    One 32-bit word per (trial, site) is shared across the whole p grid
    (common random numbers); C is summed from fixed-point weights.
    """
    w = interference_weights(geometry, beta, (zx, zy))
    counts = np.zeros((len(p_list), eta_row.size), dtype=np.int64)
    for c in _thinned_sums(substream(seed, node_index), w, p_list, trials):
        counts += (c[:, :, None] < eta_row).sum(axis=1)
    return counts


def empirical_coverage_curves(
    optical: OpticalConfig,
    geometry: NetworkGeometry,
    p_list,
    theta_db,
    seed: int = 0,
    trials_per_node: int = 10000,
    quad_order: int = 16,
    trunc: int | None = None,
    n_jobs: int = 1,
):
    """Spatially averaged empirical coverage over the p grid ``p_list`` and
    the threshold grid ``theta_db`` (dB, or one threshold).

    Node i of the quadrature draws from ``substream(seed, i)``; nodes run in
    up to ``n_jobs`` worker processes, never more than the nodes or the
    CPUs, with results identical to the serial order.  All p values share
    every uniform draw and all thresholds share every realization, so
    comparisons across the grids are coupled.
    ``trunc`` replaces ``geometry.trunc`` for sampling (None keeps it).
    Before any draw, a ``ValueError`` refuses a seed, trial count or worker
    count that is not an integer in range, naming the argument; a sampled
    lattice past 1447 rings (naming ``geometry.trunc``); and the sampled
    lattice's brute-force S(beta) and S(2 beta) at every node, by
    ``moment_sums``' refusals (a tail bound that overflows names
    ``geometry.pitch``, a sum outside the float range ``geometry.height``).
    Returns (means, stderrs, tail) where means/stderrs have shape
    (len(p_list), len(theta)) and tail is ``model.tail_bound`` of the
    sampled lattice at beta, which bounds the interference mass omitted by
    the sampling truncation.
    """
    theta_linear = db_to_linear(np.atleast_1d(theta_db))
    p_list = tuple(_check_p(p) for p in p_list)
    seed = _check_integer(seed, "seed", 0)
    trials_per_node = _check_integer(trials_per_node, "trials_per_node", 1)
    n_jobs = _check_integer(n_jobs, "n_jobs", 1)
    sampled = _sampled_lattice(geometry, trunc)
    zx, zy, wq = attocell_quadrature(geometry, quad_order, use_symmetry=False)
    etas = _eta_grid(optical, geometry, zx, zy, theta_linear)
    # for its refusals only (see above); the sums are not used
    moment_sums(sampled, (optical.beta, 2.0 * optical.beta), zx, zy, "brute")
    node = partial(_node_counts, sampled, optical.beta, p_list, trials_per_node, seed)
    columns = (range(zx.size), zx.tolist(), zy.tolist(), list(etas.T))
    workers = min(n_jobs, zx.size, os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            counts = list(pool.map(node, *columns, chunksize=1))
    else:
        counts = list(map(node, *columns))
    phat = np.stack(counts) / float(trials_per_node)  # (nodes, p, theta)
    # quadrature weights sum to 1 only up to roundoff, so clip the average
    means = np.clip(np.einsum("i,ipt->pt", wq, phat), 0.0, 1.0)
    var = np.einsum("i,ipt->pt", wq**2, phat * (1.0 - phat)) / float(trials_per_node)
    return means, np.sqrt(var), tail_bound(sampled, optical.beta)


def _ks_statistic_normal(standardized: np.ndarray) -> float:
    """One-sample Kolmogorov-Smirnov distance from the standard normal."""
    z = np.sort(standardized)
    n = z.size
    cdf = 0.5 * (1.0 + specfun.erf(z / math.sqrt(2.0)))
    upper = np.max(np.arange(1, n + 1) / n - cdf)
    lower = np.max(cdf - np.arange(0, n) / n)
    return float(max(upper, lower))


def clt_diagnostics(
    model: ThinningModel,
    geometry: NetworkGeometry,
    beta: float,
    pos,
    trials: int,
) -> CltDiagnostics:
    """Gaussian-approximation quality of C at one position.

    Samples are standardized by the brute-force moments (p S_m,
    sqrt(p (1-p) S_v)) over the same truncated lattice used for sampling,
    then compared against N(0, 1); the moments come first, so sums outside
    the float range are refused before any draw.  Undefined at p in {0, 1}
    where C is deterministic, and for fewer than 2 trials.
    """
    if not 0.0 < model.p < 1.0:
        raise ValueError("clt diagnostics require 0 < p < 1")
    trials = _check_integer(trials, "trials", 1)
    if trials < 2:
        raise ValueError(f"trials must be >= 2 for a sample variance, got {trials!r}")
    sampled = _sampled_lattice(geometry, model.trunc)
    s_m = sm_brute(sampled, beta, pos).value
    s_v = sv_brute(sampled, beta, pos).value
    samples = interference_samples(model, geometry, beta, pos, trials)
    mu = model.p * s_m
    sigma1 = math.sqrt(model.p * (1.0 - model.p) * s_v)
    return CltDiagnostics(
        sample_mean=float(samples.mean()),
        sample_var=float(samples.var(ddof=1)),
        ks_stat=_ks_statistic_normal((samples - mu) / sigma1),
        trials=trials,
    )
