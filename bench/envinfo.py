"""What a benchmark result is recorded with: the code, the machine, the
Python and numpy builds, and the BLAS with its thread count.

``limit_blas_threads`` must run before numpy is imported; everything else
may run at any time.  Reads stay inside the checkout, except for the
kernel's own descriptions of this process (``/proc/cpuinfo``,
``/proc/self/maps``).
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

_BLAS_THREADS_VAR = "OPENBLAS_NUM_THREADS"
_OPENBLAS_THREAD_SYMBOLS = (
    "scipy_openblas_get_num_threads64_",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Keep the OpenBLAS thread count at most ``nproc``.

    OpenBLAS sizes its pool from the machine, which in a container can be
    far more CPUs than the process may use; oversubscribed threads make
    timings noisy.  A smaller count that is already set is kept.
    """
    limit = nproc()
    raw = os.environ.get(_BLAS_THREADS_VAR, "")
    if not raw.isdigit() or not 0 < int(raw) <= limit:
        os.environ[_BLAS_THREADS_VAR] = str(limit)


def git_sha(root: Path) -> str:
    """The commit checked out at ``root``, read from ``.git`` without
    running git; "unknown" when the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _openblas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_THREAD_SYMBOLS:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def describe(root: Path) -> dict:
    """Environment record printed with every result."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (KeyError, TypeError, ValueError):
        blas_name, blas_version = "unknown", "unknown"
    return {
        "git_sha": git_sha(root),
        "cpu_model": cpu_model(),
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas_name,
            "version": blas_version,
            "threads": _openblas_threads(),
            _BLAS_THREADS_VAR: os.environ.get(_BLAS_THREADS_VAR),
        },
    }
