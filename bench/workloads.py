"""The benchmark's workloads and the checks that every run's output passes.

A workload is the argv a user would type for ``attocell``; the benchmark
hands it to ``attocell.cli.main`` in-process, always with ``--jobs 1``.
Each workload stresses a different hot path, so that a gain on one path
must read "no change" on the others:

* ``analytic_dense`` -- Gaussian closed form over a dense threshold grid:
  erf evaluations and CSV writing; no brute-force sums, no Monte Carlo.
* ``brute_sweep`` -- brute-force lattice sums for three p values that
  share every node sum: the per-node loop, and work repeated across p.
* ``montecarlo_validate`` -- Monte Carlo against the analytic curves: the
  shared-draw curve sampler plus the per-p ``interference_samples`` path.

Checks compare every output with a reference recorded at the seed commit
(``reference.json``, written by ``make_reference.py``) within stated
tolerances, never by byte digest, so a correct rewrite that moves the last
bits still passes.  One checked operation is one coverage curve, or for
``montecarlo_validate`` one printed per-p result.
"""

from __future__ import annotations

import hashlib
import io
import math
import re
import shutil
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

CSV_HEADER = "theta_db,theta_linear,p_c,stderr"

ANALYTIC_HEIGHTS = ("1.5", "2", "2.5", "3")
ANALYTIC_P = tuple(f"{k / 10:g}" for k in range(1, 10))
DENSE_GRID = (-20.0, 10.0, 0.05)  # 601 thresholds
DEFAULT_GRID = (-20.0, 10.0, 0.25)  # the CLI default, 121 thresholds
# the dense rows kept in the reference: every 5th is the 0.25 dB grid
REFERENCE_STRIDE = 5

BRUTE_P = ("0.3", "0.5", "0.8")
MC_P = ("0.3", "0.5", "0.8")
# 1200 trials = one full 1024-row sampling block plus a partial one per node
MC_TRIALS = 1200
# The benchmark seed picks one of MC_SEED_COUNT program seeds, each with its
# own recorded deltas in reference.json.
MC_SEED_BASE = 1000
MC_SEED_COUNT = 16

# Tolerances.  Curve values: a correct rewrite of erf or of the sums moves
# them by ~1e-15; the paper's own accuracy target is 1e-3.
VALUE_TOL = 1e-8
# Nonincreasing in theta, up to roundoff (1.1e-16 at the seed commit).
MONOTONE_TOL = 1e-12
# Brute-force curves against the series curves (1.5e-11 at the seed commit).
BRUTE_SERIES_TOL = 1e-9
# `validate` prints deltas and stderrs with 5 decimals: allow one flip of
# the last digit.
PRINTED_ABS_TOL = 1.5e-5
# CLT means and variances are printed with 7 significant digits, ks with 4
# decimals.
PRINTED_REL_TOL = 1e-5
KS_TOL = 1.5e-4


@dataclass
class Invocation:
    """One in-process ``attocell`` run and what it left behind."""

    argv: list[str]
    exit_code: int | None
    error: str | None
    stdout: str
    stderr: str
    out_dir: Path
    wall_s: float

    def fingerprint(self) -> tuple:
        """Everything the run printed or wrote, files by digest."""
        files = {}
        if self.out_dir.is_dir():
            for path in sorted(self.out_dir.iterdir()):
                files[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        return (self.exit_code, self.error, self.stdout, self.stderr, files)

    def bytes_written(self) -> int:
        """Bytes of the output files plus bytes printed to stdout."""
        files = 0
        if self.out_dir.is_dir():
            files = sum(path.stat().st_size for path in self.out_dir.iterdir())
        return files + len(self.stdout.encode("utf-8"))


def invoke(main: Callable[[list[str]], int], argv: list[str], out_dir: Path) -> Invocation:
    """Run ``main(argv)`` with stdout and stderr captured; ``out_dir`` is
    emptied first.  Only the call itself is timed."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out, err = io.StringIO(), io.StringIO()
    exit_code, error = None, None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            exit_code = main(argv)
        except SystemExit as exc:  # argparse rejects an argv this way
            exit_code = exc.code if isinstance(exc.code, int) else 1
            error = f"SystemExit({exc.code!r})"
        except Exception:  # counted as a failed run, the benchmark goes on
            error = traceback.format_exc()
        wall_s = time.perf_counter() - t0
    return Invocation(argv, exit_code, error, out.getvalue(), err.getvalue(), out_dir, wall_s)


def write_grid_ini(path: Path, start: float, stop: float, step: float) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        f"[sweep]\ntheta_db_start = {start!r}\ntheta_db_stop = {stop!r}\ntheta_db_step = {step!r}\n",
        encoding="utf-8",
    )
    return path


def grid(start: float, stop: float, step: float) -> list[float]:
    n = int(math.floor((stop - start) / step + 1e-9)) + 1
    return [start + step * k for k in range(n)]


def curve_filename(p: str, height: str, method: str) -> str:
    """The CLI's documented name for one (p, height, method) curve."""
    return f"coverage_p{float(p):g}_h{float(height):g}_{method}.csv"


def read_curve(path: Path) -> tuple[list[float], list[float], list[str]]:
    """(theta_db, p_c, stderr cells) of one sweep CSV; ValueError if the
    file is not in the documented format."""
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise ValueError("header or final newline missing")
    theta, values, errs = [], [], []
    for line in lines[1:-1]:
        cells = line.split(",")
        if len(cells) != 4:
            raise ValueError(f"row {line!r} does not have 4 cells")
        theta.append(float(cells[0]))
        values.append(float(cells[2]))
        errs.append(cells[3])
    return theta, values, errs


def _max_abs_diff(a: list[float], b: list[float]) -> float:
    return max((abs(x - y) for x, y in zip(a, b)), default=0.0)


def curve_problems(
    path: Path,
    thresholds: list[float],
    reference: list[float] | None,
    stride: int = 1,
    series: list[float] | None = None,
) -> list[str]:
    """Why one analytic or brute-force curve file is wrong (empty if it is
    right): format, threshold grid, range [0, 1], nonincreasing in theta,
    distance from the recorded reference and from the series curve."""
    name = path.name
    try:
        theta, values, errs = read_curve(path)
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable: {exc}"]
    if len(values) != len(thresholds):
        return [f"{name}: {len(values)} rows, expected {len(thresholds)}"]
    problems = []
    if _max_abs_diff(theta, thresholds) > 1e-9:
        problems.append(f"{name}: threshold grid differs")
    if not all(0.0 <= v <= 1.0 for v in values):
        problems.append(f"{name}: value outside [0, 1]")
    rise = max((b - a for a, b in zip(values, values[1:])), default=0.0)
    if rise > MONOTONE_TOL:
        problems.append(f"{name}: increases by {rise:.3e} in theta")
    if any(errs):
        problems.append(f"{name}: stderr column filled for an analytic curve")
    if reference is None:
        problems.append(f"{name}: no reference recorded")
    else:
        diff = _max_abs_diff(values[::stride], reference)
        if len(values[::stride]) != len(reference) or not diff <= VALUE_TOL:
            problems.append(f"{name}: differs from the reference by {diff:.3e}")
    if series is not None:
        diff = _max_abs_diff(values, series)
        if len(series) != len(values) or not diff <= BRUTE_SERIES_TOL:
            problems.append(f"{name}: differs from the series curve by {diff:.3e}")
    return problems


_ROW = re.compile(r"^\s*(\S+)\s+(\S+)\s+(\d+\.\d+)\s+(\d+\.\d+)\s*$")
_CLT = re.compile(r"p=(\S+): mean=(\S+) var=(\S+) ks=(\S+) trials=(\d+)")


def parse_validate(stdout: str) -> dict:
    """Per-p results printed by ``attocell validate``: the table rows
    ``p -> [delta, mean stderr]``, the CLT lines ``p -> [mean, var, ks,
    trials]`` and the verdict word."""
    rows, clt, verdict = {}, {}, None
    for line in stdout.splitlines():
        m = _ROW.match(line)
        if m:
            rows[m.group(2)] = [float(m.group(3)), float(m.group(4))]
            continue
        m = _CLT.search(line)
        if m:
            clt[m.group(1)] = [float(m.group(2)), float(m.group(3)), float(m.group(4)), int(m.group(5))]
            continue
        if line.startswith(("FAIL:", "OK:")):
            verdict = line.split(":", 1)[0]
    return {"rows": rows, "clt": clt, "verdict": verdict}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    curves: int  # coverage curves one run completes
    # (work dir, program seed) -> argv; the seed is None for workloads that
    # are deterministic and ignore the benchmark seed
    argv: Callable[[Path, int | None], list[str]]
    setup_argv: Callable[[Path], list[str]]
    setup_exit_codes: tuple[int, ...]
    # (invocation, reference, program seed, context) -> (checked operations,
    # one problem string per failed operation)
    check: Callable[[Invocation, dict, int | None, dict], tuple[int, list[str]]]
    # (main, work dir) -> context for check, computed once per benchmark run
    prepare: Callable[[Callable, Path], dict] | None = None
    seeded: bool = False

    def program_seed(self, seed: int) -> int | None:
        return MC_SEED_BASE + seed % MC_SEED_COUNT if self.seeded else None


def _failed_run(inv: Invocation, expected: int) -> str | None:
    if inv.error is not None:
        return f"raised: {inv.error.strip().splitlines()[-1]}"
    if inv.exit_code != expected:
        return f"exit code {inv.exit_code}, expected {expected}"
    return None


# ---- analytic_dense ------------------------------------------------------


def _analytic_argv(work: Path, seed: int | None) -> list[str]:
    ini = write_grid_ini(work / "dense_grid.ini", *DENSE_GRID)
    return [
        "sweep", "--config", str(ini), "--methods", "analytic",
        "--heights", ",".join(ANALYTIC_HEIGHTS), "--p", ",".join(ANALYTIC_P),
        "--quad-order", "32", "--jobs", "1", "--out", str(work / "out"),
    ]


def _one_point_ini(work: Path) -> Path:
    return write_grid_ini(work / "one_point.ini", -20.0, -20.0, 0.25)


def _analytic_setup(work: Path) -> list[str]:
    return [
        "sweep", "--config", str(_one_point_ini(work)), "--methods", "analytic",
        "--heights", "1.5", "--p", "0.5", "--quad-order", "32", "--jobs", "1",
        "--out", str(work / "setup_out"),
    ]


def analytic_files() -> list[str]:
    return [curve_filename(p, h, "analytic") for h in ANALYTIC_HEIGHTS for p in ANALYTIC_P]


def _check_analytic(inv: Invocation, reference: dict, seed, context) -> tuple[int, list[str]]:
    names = analytic_files()
    failed = _failed_run(inv, 0)
    if failed:
        return len(names), [f"analytic_dense: {failed}"] * len(names)
    thresholds = grid(*DENSE_GRID)
    curves = reference["analytic_dense"]
    problems = []
    for name in names:
        bad = curve_problems(inv.out_dir / name, thresholds, curves.get(name), REFERENCE_STRIDE)
        if bad:
            problems.append("; ".join(bad))
    return len(names), problems


# ---- brute_sweep ---------------------------------------------------------


def _brute_argv(work: Path, seed: int | None, method: str = "brute", out: str = "out") -> list[str]:
    return [
        "sweep", "--methods", method, "--heights", "1.5", "--p", ",".join(BRUTE_P),
        "--trunc", "200", "--quad-order", "32", "--jobs", "1", "--out", str(work / out),
    ]


def _brute_setup(work: Path) -> list[str]:
    return [
        "sweep", "--config", str(_one_point_ini(work)), "--methods", "brute",
        "--heights", "1.5", "--p", "0.5", "--trunc", "200", "--quad-order", "1",
        "--jobs", "1", "--out", str(work / "setup_out"),
    ]


def _brute_series(main: Callable, work: Path) -> dict:
    """The series curves for the same sweep, the reference that the
    brute-force curves must agree with."""
    inv = invoke(main, _brute_argv(work, None, "analytic", "series"), work / "series")
    series = {}
    if _failed_run(inv, 0) is None:
        for p in BRUTE_P:
            try:
                series[p] = read_curve(inv.out_dir / curve_filename(p, "1.5", "analytic"))[1]
            except (OSError, ValueError):
                pass
    return {"series": series}


def _check_brute(inv: Invocation, reference: dict, seed, context) -> tuple[int, list[str]]:
    failed = _failed_run(inv, 0)
    if failed:
        return len(BRUTE_P), [f"brute_sweep: {failed}"] * len(BRUTE_P)
    thresholds = grid(*DEFAULT_GRID)
    curves = reference["brute_sweep"]
    problems = []
    for p in BRUTE_P:
        name = curve_filename(p, "1.5", "brute")
        series = context["series"].get(p)
        if series is None:
            problems.append(f"{name}: no series curve to compare with")
            continue
        bad = curve_problems(inv.out_dir / name, thresholds, curves.get(name), 1, series)
        if bad:
            problems.append("; ".join(bad))
    return len(BRUTE_P), problems


# ---- montecarlo_validate -------------------------------------------------


def _mc_argv(work: Path, seed: int | None) -> list[str]:
    return [
        "validate", "--heights", "1.5", "--p", ",".join(MC_P), "--mc-trunc", "30",
        "--mc-quad-order", "8", "--trials", str(MC_TRIALS), "--seed", str(seed),
        "--jobs", "1",
    ]


def _mc_setup(work: Path) -> list[str]:
    return [
        "validate", "--config", str(_one_point_ini(work)), "--heights", "1.5",
        "--p", "0.5", "--mc-trunc", "30", "--mc-quad-order", "1", "--trials", "2",
        "--seed", "0", "--jobs", "1",
    ]


def _check_mc(inv: Invocation, reference: dict, seed, context) -> tuple[int, list[str]]:
    checked = 2 * len(MC_P)
    ref = reference["montecarlo_validate"]["seeds"].get(str(seed))
    if ref is None:
        return checked, [f"montecarlo_validate: no reference for seed {seed}"] * checked
    failed = _failed_run(inv, ref["exit"])
    parsed = parse_validate(inv.stdout)
    expected_verdict = "FAIL" if ref["exit"] == 2 else "OK"
    if failed is None and parsed["verdict"] != expected_verdict:
        failed = f"verdict {parsed['verdict']!r}, expected {expected_verdict!r}"
    if failed:
        return checked, [f"montecarlo_validate: {failed}"] * checked
    problems = []
    for p in MC_P:
        got, want = parsed["rows"].get(p), ref["rows"][p]
        if got is None or any(abs(g - w) > PRINTED_ABS_TOL for g, w in zip(got, want)):
            problems.append(f"p={p}: delta, stderr {got} differ from the reference {want}")
        got, want = parsed["clt"].get(p), ref["clt"][p]
        if (
            got is None
            or _rel(got[0], want[0]) > PRINTED_REL_TOL
            or _rel(got[1], want[1]) > PRINTED_REL_TOL
            or abs(got[2] - want[2]) > KS_TOL
            or got[3] != want[3]
        ):
            problems.append(f"p={p}: CLT diagnostics {got} differ from the reference {want}")
    return checked, problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="analytic_dense",
            why="Gaussian closed form, 36 curves x 601 thresholds: erf and CSV writing; "
            "no brute-force sums and no Monte Carlo",
            curves=len(ANALYTIC_HEIGHTS) * len(ANALYTIC_P),
            argv=_analytic_argv,
            setup_argv=_analytic_setup,
            setup_exit_codes=(0,),
            check=_check_analytic,
        ),
        Workload(
            name="brute_sweep",
            why="brute-force lattice sums at trunc 200 for 3 p values that share every "
            "node sum: the per-node loop and work repeated across p",
            curves=len(BRUTE_P),
            argv=_brute_argv,
            setup_argv=_brute_setup,
            setup_exit_codes=(0,),
            check=_check_brute,
            prepare=_brute_series,
        ),
        Workload(
            name="montecarlo_validate",
            why="Monte Carlo vs analytic: the shared-draw curve sampler and the "
            "per-p interference_samples path of the CLT diagnostics",
            curves=len(MC_P),
            argv=_mc_argv,
            setup_argv=_mc_setup,
            # 2 is validate's verdict at the shipped 0.02 budget, not an error
            setup_exit_codes=(0, 2),
            check=_check_mc,
            seeded=True,
        ),
    )
}
