"""Benchmark of the attocell command line, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark imports ``attocell`` from this checkout's ``src/`` and runs
one workload (see ``workloads.py``) in-process through
``attocell.cli.main``, with the argv a user would type, again and again
for ``--seconds`` seconds (at least three times).  Every run's outputs are
checked against ``reference.json``.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s`` -- median over fresh interpreters of ``import attocell``
  plus one minimal run that fills the lazy caches (``setup_probe.py``);
* ``wall_s`` -- median time of one workload run, caches warm;
* ``curves_per_s`` -- coverage curves one run completes, per second of
  the median run time;
* ``peak_rss_mb`` -- peak resident memory of this process.

``--trace 1`` alternates untraced and traced runs (``tracing.py``), and
reports the per-layer metrics averaged over the traced runs, plus the
tracing overhead (median of traced minus untraced ``wall_s`` over the
pairs).  Traced runs must write exactly what untraced runs write.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``failed / attempted`` is the
error rate.  The environment record (code, machine, numpy, BLAS and its
thread count, seeds) is printed above it.  Exits 2 without a result when
the checkout has no ``src/attocell``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import envinfo

envinfo.limit_blas_threads()  # before anything imports numpy

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

# (name, unit) of every end-to-end metric
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("curves_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
MIN_RUNS = 3
MIN_TRACE_PAIRS = 2


class BenchError(Exception):
    """The benchmark cannot run here at all."""


class Tally:
    """Checked operations and the problems found in them."""

    def __init__(self) -> None:
        self.attempted = 0
        self.problems: list[str] = []
        self.failed = 0

    def add(self, checked: int, problems: list[str]) -> None:
        self.attempted += checked
        self.failed += min(len(problems), checked)
        self.problems += problems

    def expect(self, ok: bool, problem: str) -> None:
        self.add(1, [] if ok else [problem])


def load_cli():
    """``attocell.cli`` from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "attocell" / "__init__.py").is_file():
        raise BenchError(f"{SRC / 'attocell'} not found: run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import attocell.cli

    if not Path(attocell.cli.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"attocell was imported from {attocell.cli.__file__}, not from {SRC}")
    return attocell.cli


def measure_setup(workload: workloads.Workload, work: Path, tally: Tally) -> list[float]:
    """``setup_s`` of SETUP_PROBES fresh interpreters, one after another."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(SRC), json.dumps(workload.setup_argv(work))]
    times = []
    for _ in range(SETUP_PROBES):
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (subprocess.TimeoutExpired, IndexError, ValueError) as exc:
            tally.expect(False, f"setup probe failed: {exc!r}")
            continue
        ok = (
            result["exit_code"] in workload.setup_exit_codes
            and Path(result["module"]).resolve().is_relative_to(SRC.resolve())
        )
        tally.expect(ok, f"setup probe: {result}")
        if ok:
            times.append(result["setup_s"])
    return times


def warm_up(workload: workloads.Workload, main, work: Path, tally: Tally) -> dict:
    """The in-process twin of the set-up probe, then the workload's own
    preparation; returns the context its checks need."""
    inv = workloads.invoke(main, workload.setup_argv(work), work / "setup_out")
    tally.expect(
        inv.error is None and inv.exit_code in workload.setup_exit_codes,
        f"warm-up run: exit {inv.exit_code}, {inv.error}",
    )
    return workload.prepare(main, work) if workload.prepare else {}


def repeat(seconds: float, min_runs: int, run) -> None:
    """Call ``run()`` until ``seconds`` have passed and at least
    ``min_runs`` calls were made."""
    start, done = time.perf_counter(), 0
    while done < min_runs or time.perf_counter() - start < seconds:
        run()
        done += 1


def end_to_end(workload, cli, work: Path, seed: int | None, seconds: float, reference: dict, tally: Tally) -> dict:
    setup_times = measure_setup(workload, work, tally)
    context = warm_up(workload, cli.main, work, tally)
    argv = workload.argv(work, seed)
    walls = []

    def run():
        inv = workloads.invoke(cli.main, argv, work / "out")
        walls.append(inv.wall_s)
        tally.add(*workload.check(inv, reference, seed, context))

    repeat(seconds, MIN_RUNS, run)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{len(walls)} runs, wall_s each: {' '.join(f'{w:.4f}' for w in walls)}")
    print(f"{len(setup_times)} set-ups, setup_s each: {' '.join(f'{t:.4f}' for t in setup_times)}")
    return {
        "setup_s": statistics.median(setup_times) if setup_times else 0.0,
        "wall_s": statistics.median(walls),
        "curves_per_s": workload.curves / statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
    }


def traced(workload, cli, work: Path, seed: int | None, seconds: float, reference: dict, tally: Tally) -> dict:
    context = warm_up(workload, cli.main, work, tally)
    argv = workload.argv(work, seed)
    plain_walls, traced_walls, samples, missing = [], [], [], set()
    expected = []

    def run_plain():
        inv = workloads.invoke(cli.main, argv, work / "out")
        plain_walls.append(inv.wall_s)
        tally.add(*workload.check(inv, reference, seed, context))
        if not expected:
            expected.append(inv.fingerprint())

    def run_traced():
        tracer = tracing.Tracer()
        tracer.install()
        try:
            inv = workloads.invoke(lambda a: tracer.call("cli", cli.main, (a,)), argv, work / "out")
        finally:
            leftovers = tracer.uninstall()
        traced_walls.append(inv.wall_s)
        missing.update(tracer.missing)
        tally.add(*workload.check(inv, reference, seed, context))
        tally.add(1, leftovers)
        tally.expect(inv.fingerprint() == expected[0], "traced run wrote other outputs than the untraced run")
        sample = tracer.metrics()
        sample["cli.bytes_written"] = float(inv.bytes_written())
        samples.append(sample)

    def run_pair():
        # alternate, so that drift in machine speed hits both sides alike
        run_plain()
        run_traced()

    repeat(seconds, MIN_TRACE_PAIRS, run_pair)
    if missing:
        print(f"not traced (absent from the program): {', '.join(sorted(missing))}")
    metrics = {name: statistics.fmean(s[name] for s in samples) for name in samples[0]}
    metrics["trace.overhead_s"] = statistics.median(t - p for t, p in zip(traced_walls, plain_walls))
    return metrics


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="benchmark seed; only the generated argv reaches the program")
    parser.add_argument("--seconds", type=float, required=True, help="how long to keep repeating the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = load_cli()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seed = workload.program_seed(args.seed)
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)

    env = envinfo.describe(ROOT)
    env.update(workload=workload.name, bench_seed=args.seed, program_seed=seed, trace=args.trace)
    if seed is None:
        print(f"{workload.name} is deterministic: it ignores the benchmark seed {args.seed}")
    print("env " + json.dumps(env, sort_keys=True))

    work = BENCH_DIR / "_work" / str(os.getpid())
    work.mkdir(parents=True)
    tally = Tally()
    try:
        measure = traced if args.trace else end_to_end
        values = measure(workload, cli, work, seed, args.seconds, reference, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    units = dict((name, unit) for name, unit, _ in tracing.PER_LAYER) if args.trace else dict(END_TO_END)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    for name, m in metrics.items():
        print(f"  {name:<34} {m['value']:>16.6g} {m['unit']}")
    print(f"  {'error_rate':<34} {tally.failed / max(tally.attempted, 1):>16.6g} ({tally.failed} of {tally.attempted} checks failed)")
    for problem in tally.problems[:20]:
        print(f"  check failed: {problem}")
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
