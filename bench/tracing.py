"""Outside-in per-layer tracing of one ``attocell`` run.

For the length of one traced run, the tracer replaces the module
attributes through which one attocell layer calls the next (for example
``attocell.specfun.erf``, ``attocell.coverage.sm_brute`` and
``attocell.cli.empirical_coverage_curves``) with wrappers that open a span
and count work.  Every alias of a target function in every loaded attocell
module is replaced, so calls are seen whichever module makes them; nothing
under ``src/`` knows about the tracer.  ``uninstall`` puts every original
back and reports any attribute it could not restore.

A span's self time is its duration minus the time covered by its child
spans.  A call from a layer into itself (``sv_brute`` calling
``sm_brute``) stays in the caller's span.  The random generators that
``attocell.montecarlo.substream`` returns are wrapped too: every method
call on them, or on their bit generator, is a ``<parent>.rng`` child span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("specfun.erf.values", "count", "lower"),
    ("specfun.erf.self_s", "s", "lower"),
    ("specfun.erf.ns_per_value", "ns", "lower"),
    ("specfun.bessel_k.calls", "count", "lower"),
    ("specfun.bessel_k.self_s", "s", "lower"),
    ("lattice_sums.brute.calls", "count", "lower"),
    ("lattice_sums.brute.self_s", "s", "lower"),
    ("lattice_sums.brute.us_per_call", "us", "lower"),
    ("lattice_sums.brute.unique_ratio", "ratio", "higher"),
    ("lattice_sums.series.calls", "count", "lower"),
    ("lattice_sums.series.self_s", "s", "lower"),
    ("coverage.calls", "count", "lower"),
    ("coverage.node_thresholds", "count", "lower"),
    ("coverage.self_s", "s", "lower"),
    ("montecarlo.site_draws", "count", "lower"),
    ("montecarlo.rng_s", "s", "lower"),
    ("montecarlo.kernel_other_s", "s", "lower"),
    ("montecarlo.ns_per_site_draw", "ns", "lower"),
    ("montecarlo.samples.self_s", "s", "lower"),
    ("montecarlo.samples.rng_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.bytes_written", "B", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

_WRAPPED = "__bench_traced__"


@dataclass
class _Frame:
    name: str
    start: float
    child_s: float = 0.0
    data: dict = field(default_factory=dict)


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.brute_keys: set = set()
        self.missing: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def call(self, name: str, fn: Callable, args=(), kwargs=None, hook=None):
        """Run ``fn`` in a span named ``name``; ``hook(tracer, frame, args,
        kwargs, result)`` counts work afterwards, off every layer's clock."""
        kwargs = kwargs or {}
        if self.stack and self.stack[-1].name == name:
            return fn(*args, **kwargs)
        frame = _Frame(name, time.perf_counter())
        self.stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - frame.start
            self.stack.pop()
            self.self_s[name] += elapsed - frame.child_s
            if self.stack:
                self.stack[-1].child_s += elapsed
        if hook is not None:
            t0 = time.perf_counter()
            hook(self, frame, args, kwargs, result)
            if self.stack:
                self.stack[-1].child_s += time.perf_counter() - t0
        return result

    def _span_wrapper(self, name: str, fn: Callable, hook) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def _counter_wrapper(self, fn: Callable, hook) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if self.stack:
                hook(self, self.stack[-1], args, kwargs, result)
            return result

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def _stream_wrapper(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedGenerator(fn(*args, **kwargs), self)

        setattr(wrapper, _WRAPPED, True)
        return wrapper

    def rng_call(self, fn: Callable, args, kwargs):
        parent = self.stack[-1].name if self.stack else "montecarlo"
        return self.call(f"{parent}.rng", fn, args, kwargs)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every alias of every target in the loaded attocell modules."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "attocell" or n.startswith("attocell.")]
        for home, attr, kind, name, make_hook in _TARGETS:
            original = getattr(importlib.import_module(home), attr, None)
            if original is None:
                self.missing.append(f"{home}.{attr}")
                continue
            hook = make_hook(original) if make_hook else None
            if kind == "span":
                wrapper = self._span_wrapper(name, original, hook)
            elif kind == "count":
                wrapper = self._counter_wrapper(original, hook)
            else:
                wrapper = self._stream_wrapper(original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every wrapped attribute; returns what is still wrong."""
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        problems = [
            f"{module.__name__}.{key} not restored"
            for module, key, original in self._patched
            if getattr(module, key) is not original
        ]
        for name, module in list(sys.modules.items()):
            if name == "attocell" or name.startswith("attocell."):
                problems += [
                    f"{name}.{key} is still a tracing wrapper"
                    for key, value in vars(module).items()
                    if getattr(value, _WRAPPED, False)
                ]
        self._patched.clear()
        return problems

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of this run, except ``cli.bytes_written`` and
        ``trace.overhead_s``, which the caller measures."""
        s, c = self.self_s, self.counts
        erf_values = c["specfun.erf.values"]
        brute_calls = c["lattice_sums.brute.calls"]
        draws = c["montecarlo.site_draws"]
        mc_kernel = s["montecarlo.curves"] + s["montecarlo.curves.rng"]
        return {
            "specfun.erf.values": float(erf_values),
            "specfun.erf.self_s": s["specfun.erf"],
            "specfun.erf.ns_per_value": 1e9 * s["specfun.erf"] / erf_values if erf_values else 0.0,
            "specfun.bessel_k.calls": float(c["specfun.bessel_k.calls"]),
            "specfun.bessel_k.self_s": s["specfun.bessel_k"],
            "lattice_sums.brute.calls": float(brute_calls),
            "lattice_sums.brute.self_s": s["lattice_sums.brute"],
            "lattice_sums.brute.us_per_call": 1e6 * s["lattice_sums.brute"] / brute_calls if brute_calls else 0.0,
            "lattice_sums.brute.unique_ratio": len(self.brute_keys) / brute_calls if brute_calls else 0.0,
            "lattice_sums.series.calls": float(c["lattice_sums.series.calls"]),
            "lattice_sums.series.self_s": s["lattice_sums.series"],
            "coverage.calls": float(c["coverage.calls"]),
            "coverage.node_thresholds": float(c["coverage.node_thresholds"]),
            "coverage.self_s": s["coverage"],
            "montecarlo.site_draws": float(draws),
            "montecarlo.rng_s": s["montecarlo.curves.rng"],
            "montecarlo.kernel_other_s": s["montecarlo.curves"],
            "montecarlo.ns_per_site_draw": 1e9 * mc_kernel / draws if draws else 0.0,
            "montecarlo.samples.self_s": s["montecarlo.samples"],
            "montecarlo.samples.rng_s": s["montecarlo.samples.rng"],
            "cli.self_s": s["cli"],
        }


class _TimedGenerator:
    """Stands in for a numpy Generator (or its bit generator) and times
    every method call made on it."""

    __slots__ = ("_target", "_tracer")

    def __init__(self, target, tracer: Tracer) -> None:
        self._target = target
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._target, attr)
        if attr == "bit_generator":
            return _TimedGenerator(value, self._tracer)
        if callable(value):
            return lambda *args, **kwargs: self._tracer.rng_call(value, args, kwargs)
        return value


# -- counting hooks: each factory takes the original function ----------------


def _count_calls(counter: str):
    def make(fn):
        def hook(tracer, frame, args, kwargs, result):
            tracer.counts[counter] += 1

        return hook

    return make


def _erf_hook(fn):
    def hook(tracer, frame, args, kwargs, result):
        tracer.counts["specfun.erf.values"] += int(np.size(result))

    return hook


def _brute_hook(fn):
    signature = inspect.signature(fn)

    def hook(tracer, frame, args, kwargs, result):
        tracer.counts["lattice_sums.brute.calls"] += 1
        # the same function with the same geometry, exponent, node and trunc
        # computes the same sum
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        tracer.brute_keys.add((fn.__name__, repr(tuple(bound.arguments.items()))))

    return hook


def _coverage_hook(fn):
    def hook(tracer, frame, args, kwargs, result):
        tracer.counts["coverage.calls"] += 1
        tracer.counts["coverage.node_thresholds"] += frame.data.get("nodes", 0) * int(np.size(result.values))

    return hook


def _nodes_hook(fn):
    def hook(tracer, frame, args, kwargs, result):
        frame.data["nodes"] = frame.data.get("nodes", 0) + len(result[0])

    return hook


def _site_draws_hook(fn):
    signature = inspect.signature(fn)

    def hook(tracer, frame, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        trunc = a["geometry"].trunc if a["trunc"] is None else int(a["trunc"])
        sites = (2 * trunc + 1) ** 2 - 1
        tracer.counts["montecarlo.site_draws"] += frame.data.get("nodes", 0) * int(a["trials_per_node"]) * sites

    return hook


# (home module, attribute, kind, span name, hook factory).  "span" wraps a
# layer boundary, "count" only counts (quadrature nodes, for the enclosing
# span), "stream" wraps the generators a function returns.
_TARGETS = (
    ("attocell.specfun", "erf", "span", "specfun.erf", _erf_hook),
    ("attocell.specfun", "bessel_k", "span", "specfun.bessel_k", _count_calls("specfun.bessel_k.calls")),
    ("attocell.lattice_sums", "sm_brute", "span", "lattice_sums.brute", _brute_hook),
    ("attocell.lattice_sums", "sv_brute", "span", "lattice_sums.brute", _brute_hook),
    ("attocell.lattice_sums", "_series_value", "span", "lattice_sums.series", _count_calls("lattice_sums.series.calls")),
    ("attocell.coverage", "coverage_curve", "span", "coverage", _coverage_hook),
    ("attocell.coverage", "attocell_quadrature", "count", None, _nodes_hook),
    ("attocell.montecarlo", "empirical_coverage_curves", "span", "montecarlo.curves", _site_draws_hook),
    ("attocell.montecarlo", "interference_samples", "span", "montecarlo.samples", None),
    ("attocell.montecarlo", "substream", "stream", None, None),
)
