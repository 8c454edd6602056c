"""Where the benchmark runs, and on which code: the solver import, the
BLAS thread pinning and the provenance recorded with every result."""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class MissingSource(RuntimeError):
    """The checkout holds no slabsm sources to benchmark."""


def pin_blas_threads() -> None:
    """One BLAS thread; takes effect only before numpy is first imported,
    and child processes inherit it."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_slabsm():
    """Import slabsm from this checkout's src/, never from elsewhere."""
    if not (SRC / "slabsm" / "__init__.py").is_file():
        raise MissingSource(f"no slabsm package under {SRC}")
    sys.path.insert(0, str(SRC))
    import slabsm
    if not Path(slabsm.__file__).resolve().is_relative_to(SRC):
        raise MissingSource(f"slabsm was imported from {slabsm.__file__}, "
                            f"not from {SRC}")
    return slabsm


def git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (read directly, so
    nothing outside the checkout is consulted)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    """Digest of every source file of the package, to tell code apart when
    the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "slabsm").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def collect(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "seed": seed,
    }
