"""Process environment of a benchmark run: import path, thread pins, record.

Imported before numpy: the BLAS/OpenMP pools read their thread counts
once, when the library loads.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

#: Root of the checkout (the directory holding ``perfbench/`` and ``src/``).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Environment variables that size the BLAS/OpenMP thread pools.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Threads per process.  One: numpy's calls here are small gemv/einsum
#: reductions, and the process backend runs ``nproc`` workers, so any
#: more would oversubscribe the cores (processes x threads <= nproc).
THREADS_PER_PROCESS = 1


def prepare() -> None:
    """Pin thread pools and put the checkout's ``src/`` first on the path.

    Raises ``FileNotFoundError`` when the checkout holds no program: the
    benchmark measures the source tree it sits in, never an installed copy.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise FileNotFoundError(f"no program source under {SRC}")
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS_PER_PROCESS)
    # Child processes (set-up probes, pool workers) import from here too.
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + path if path else "")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def describe() -> dict[str, object]:
    """Host and library facts recorded beside every result."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_desc = "unknown"
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }
