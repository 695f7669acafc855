"""Facts about the machine and the build, recorded with every result."""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _blas() -> dict:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out = {"name": info.get("name"), "version": info.get("version")}
    except (KeyError, TypeError, ValueError):
        out = {"name": None, "version": None}
    out["threads"] = _openblas_threads()
    return out


def _openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked of the
    library itself; None when it cannot be found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git (the
    checkout need not be a repository)."""
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def facts(root: Path) -> dict:
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "git_commit": _git_commit(root),
    }
