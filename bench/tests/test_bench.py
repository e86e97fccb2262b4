"""Tests of the benchmark itself: names, checks and tracing wrappers.

Run from the root of a checkout: python3 -m pytest bench/tests -q
(about a minute; the tier-1 suite under tests/ does not collect these).
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def cli():
    return run.load_cli()


@pytest.fixture(scope="module")
def reference():
    return json.loads(run.REFERENCE.read_text(encoding="utf-8"))


@pytest.fixture
def work(tmp_path_factory):
    return tmp_path_factory.mktemp("work")


def test_names_are_well_formed_and_match_benchmark_json():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)


def _one_run(workload, cli, work, reference, seed=0):
    seed = workload.program_seed(seed)
    context = workload.prepare(cli.main, work) if workload.prepare else {}
    inv = workloads.invoke(cli.main, workload.argv(work, seed), work / "out")
    return inv, workload.check(inv, reference, seed, context)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_passes_its_checks(name, cli, work, reference):
    workload = workloads.WORKLOADS[name]
    inv, (checked, problems) = _one_run(workload, cli, work, reference)
    assert checked > 0
    assert problems == []


def test_checks_catch_a_wrong_curve(cli, work, reference):
    workload = workloads.WORKLOADS["analytic_dense"]
    inv = workloads.invoke(cli.main, workload.argv(work, None), work / "out")
    path = inv.out_dir / workloads.analytic_files()[0]
    lines = path.read_text(encoding="utf-8").split("\n")
    # data row 300 (-5 dB) is one of the rows kept in the reference
    cells = lines[1 + 300].split(",")
    cells[2] = repr(float(cells[2]) - 1e-6)
    lines[1 + 300] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")
    checked, problems = workload.check(inv, reference, None, {})
    assert checked == 36
    assert len(problems) == 1 and "differs from the reference" in problems[0]


def test_checks_catch_a_wrong_delta(cli, work, reference):
    workload = workloads.WORKLOADS["montecarlo_validate"]
    seed = workload.program_seed(3)
    inv = workloads.invoke(cli.main, workload.argv(work, seed), work / "out")
    other = workload.program_seed(4)
    checked, problems = workload.check(inv, reference, other, {})
    assert checked == 6 and len(problems) == 6


@pytest.mark.parametrize("name", ["analytic_dense", "montecarlo_validate"])
def test_tracing_leaves_results_and_modules_unchanged(name, cli, work, reference):
    import attocell.montecarlo
    import attocell.specfun

    workload = workloads.WORKLOADS[name]
    argv = workload.argv(work, workload.program_seed(0))
    plain = workloads.invoke(cli.main, argv, work / "out").fingerprint()
    before = {m: dict(vars(m)) for m in (attocell.specfun, attocell.montecarlo, cli)}
    tracer = tracing.Tracer()
    tracer.install()
    assert attocell.specfun.erf is not before[attocell.specfun]["erf"]
    try:
        inv = workloads.invoke(lambda a: tracer.call("cli", cli.main, (a,)), argv, work / "out")
    finally:
        assert tracer.uninstall() == []
    assert inv.fingerprint() == plain
    assert all(vars(m)[k] is v for m, attrs in before.items() for k, v in attrs.items())
    assert tracer.missing == []
    metrics = tracer.metrics()
    assert set(metrics) | {"cli.bytes_written", "trace.overhead_s"} == {n for n, _, _ in tracing.PER_LAYER}
    assert metrics["coverage.calls"] == (36 if name == "analytic_dense" else 3)
    if name == "montecarlo_validate":
        # 64 nodes x 1200 trials x 3720 sites; six brute sums at 2 distinct keys
        assert metrics["montecarlo.site_draws"] == 64 * 1200 * 3720
        assert metrics["lattice_sums.brute.calls"] == 6
        assert metrics["lattice_sums.brute.unique_ratio"] == pytest.approx(1 / 3)
        assert metrics["montecarlo.rng_s"] > 0 and metrics["montecarlo.samples.rng_s"] > 0
    else:
        assert metrics["specfun.erf.values"] == 36 * (601 + 1) * 136
        assert metrics["coverage.node_thresholds"] == 36 * 601 * 136


def test_without_the_program_it_fails_without_a_result(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(BENCH_DIR, bench, ignore=shutil.ignore_patterns("__pycache__", "_work", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "analytic_dense", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")
