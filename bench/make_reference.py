"""Record the reference outputs that the benchmark's checks compare with.

Usage (from the root of a checkout): python3 bench/make_reference.py

Runs every workload once, for montecarlo_validate once per program seed,
and overwrites bench/reference.json.  Run it only at a commit whose
outputs are trusted: the file in the repository was recorded at the seed
commit of the benchmark, and later commits are checked against it.
"""

from __future__ import annotations

import json
import shutil
import sys

import envinfo
import run
import workloads as wl


def main() -> int:
    cli = run.load_cli()
    work = run.BENCH_DIR / "_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reference = record(cli.main, work)
        # the recorded outputs must pass every check against themselves
        problems = []
        for workload in wl.WORKLOADS.values():
            context = workload.prepare(cli.main, work) if workload.prepare else {}
            seeds = [workload.program_seed(s) for s in range(wl.MC_SEED_COUNT)] if workload.seeded else [None]
            for seed in seeds:
                inv = wl.invoke(cli.main, workload.argv(work, seed), work / "out")
                problems += workload.check(inv, reference, seed, context)[1]
    finally:
        shutil.rmtree(work.parent, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    run.REFERENCE.write_text(_dumps(reference) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


def _dumps(value, depth: int = 0) -> str:
    """JSON with one line per curve or per seed, so diffs stay readable."""
    if not isinstance(value, dict) or depth == 3:
        return json.dumps(value)
    pad = "  " * (depth + 1)
    items = ",\n".join(f"{pad}{json.dumps(k)}: {_dumps(v, depth + 1)}" for k, v in value.items())
    return "{\n" + items + "\n" + "  " * depth + "}"


def record(main, work) -> dict:
    def ok(inv, expected=(0,)):
        if inv.error is not None or inv.exit_code not in expected:
            raise RuntimeError(f"{inv.argv}: exit {inv.exit_code}\n{inv.error}\n{inv.stderr}")
        return inv

    inv = ok(wl.invoke(main, wl.WORKLOADS["analytic_dense"].argv(work, None), work / "out"))
    analytic = {
        name: wl.read_curve(inv.out_dir / name)[1][:: wl.REFERENCE_STRIDE] for name in wl.analytic_files()
    }
    inv = ok(wl.invoke(main, wl.WORKLOADS["brute_sweep"].argv(work, None), work / "out"))
    brute = {
        name: wl.read_curve(inv.out_dir / name)[1]
        for name in (wl.curve_filename(p, "1.5", "brute") for p in wl.BRUTE_P)
    }
    seeds = {}
    mc = wl.WORKLOADS["montecarlo_validate"]
    for s in range(wl.MC_SEED_COUNT):
        seed = mc.program_seed(s)
        inv = ok(wl.invoke(main, mc.argv(work, seed), work / "out"), (0, 2))
        parsed = wl.parse_validate(inv.stdout)
        seeds[str(seed)] = {"exit": inv.exit_code, "rows": parsed["rows"], "clt": parsed["clt"]}
    return {
        "recorded_at": envinfo.git_sha(run.ROOT),
        "analytic_dense": analytic,
        "brute_sweep": brute,
        "montecarlo_validate": {"trials": wl.MC_TRIALS, "seeds": seeds},
    }


if __name__ == "__main__":
    sys.exit(main())
