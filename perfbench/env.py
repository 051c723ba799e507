"""Process preparation and the environment record.

`prepare` must run before numpy is imported: BLAS and OpenMP read their
thread counts once, at load time. The campaign runs two pool workers on a
two-core machine, so any BLAS thread beyond one per process oversubscribes
the cores and turns scheduling noise into timing noise.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def prepare() -> None:
    """Pin native thread pools to one thread and import the package from SRC.

    Exits with code 2 when the package source is missing, so the benchmark
    never measures some other installed copy of it.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "spherebuckle" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    if sys.path[:1] != [str(SRC)]:
        sys.path.insert(0, str(SRC))


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
            check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git trees."""
    h = hashlib.sha256()
    for path in sorted((SRC / "spherebuckle").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def record() -> dict:
    """Versions, cores and start method the numbers were taken under."""
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
        "src_sha256": _source_digest(),
        "machine": platform.machine(),
    }
