"""Host fingerprint and provenance, recorded with every result.

A number is only comparable with another taken on the same kind of host
from the same code, so each result names the core count, Python, numpy,
whether the compiled LRU kernel ran, the C compiler, the git commit and
whether the tree was dirty, and the load average at start and end.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
from pathlib import Path


def _first_line(command: list[str], cwd: Path) -> str | None:
    try:
        done = subprocess.run(command, cwd=cwd, capture_output=True,
                              text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    if done.returncode != 0:
        return None
    lines = done.stdout.strip().splitlines()
    return lines[0] if lines else ""


def _git(root: Path) -> dict:
    if not (root / ".git").exists() or shutil.which("git") is None:
        return {"commit": None, "dirty": None,
                "note": "not a git checkout"}
    commit = _first_line(["git", "rev-parse", "HEAD"], root)
    status = _first_line(["git", "status", "--porcelain"], root)
    return {"commit": commit,
            "dirty": None if status is None else bool(status)}


def fingerprint(root: Path) -> dict:
    """Everything that names the host and the code, taken at start."""
    import numpy

    from repro.sim import _native

    compiler = shutil.which("cc") or shutil.which("gcc")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_kernel": _native.available(),
        "cc": (_first_line([compiler, "--version"], root)
               if compiler else None),
        "machine": platform.machine(),
        "git": _git(root),
        "repro_env": {key: value for key, value in sorted(os.environ.items())
                      if key.startswith("REPRO_")},
        "loadavg_start": list(os.getloadavg()),
    }
