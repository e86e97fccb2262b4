"""Set-up time of one workload, measured in a fresh interpreter.

Usage: python3 bench/setup_probe.py <src dir> <argv as JSON>

Times ``import attocell`` plus one minimal run of the workload's
subcommand (one threshold, one p, one height, structural settings as in
the workload), which fills every lazy cache the workload's first run would
fill.  Prints one JSON object: ``{"setup_s": ..., "exit_code": ...}``.
Only the standard library is imported before the clock starts.
"""

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def main() -> int:
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import attocell.cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        exit_code = attocell.cli.main(argv)
    setup_s = time.perf_counter() - t0
    print(json.dumps({"setup_s": setup_s, "exit_code": exit_code, "module": attocell.cli.__file__}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
