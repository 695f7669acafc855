"""A reference kernel that tracks the machine's speed during a run.

The machine the baseline was measured on is shared with other load,
which slows all code on it by up to 40%, in phases from under a second to
minutes long.  A kernel that contains no program code runs right after
every op and slows by the same factor, so the end-to-end times are stated
at the speed the machine had when the baseline was measured: an input's
time is the median, over its repetitions, of the op's time over the
kernel's time next to it, times REFERENCE (see ``run.timed_run``).  The
detail line also gives each input's fastest repetition as measured, with
no scaling.  Each workload uses the kernel most like its own cost: Python
with small numpy calls, LAPACK at n=256, or starting an interpreter that
imports numpy.

REFERENCE holds each kernel's median time in the runs, ten per workload
on seeds 1-10, made right before the baseline was measured (2-CPU Intel Xeon,
Python 3.11.7, numpy 2.4.6, one OpenBLAS thread); every result reports
the run's own median as ``kernel.median_s``, and baseline/README.md
compares the two.  The values only fix the scale of the reported times;
changing them breaks comparison with earlier results.
"""

from __future__ import annotations

import subprocess
import sys
import time
from pathlib import Path

import numpy as np

_RNG = np.random.default_rng(20191001)
_SMALL = _RNG.standard_normal((8, 8))
_VALUES = [float(x) for x in _RNG.standard_normal(64)]
_LARGE = _RNG.standard_normal((256, 96))

REFERENCE = {"python": 9.65e-4, "lapack": 5.5e-3, "spawn": 0.23}


def _python() -> None:
    for _ in range(20):
        np.linalg.svd(_SMALL)
        sum(x * x for x in _VALUES)
        np.asarray(_VALUES).reshape(8, 8) @ _SMALL


def _lapack() -> None:
    np.linalg.svd(_LARGE, full_matrices=False)
    np.linalg.qr(_LARGE)


class Kernel:
    """One reference kernel and the times of its runs."""

    def __init__(self, kind: str, root: Path, env: dict):
        self.kind = kind
        self.reference = REFERENCE[kind]
        self.times: list[float] = []
        if kind == "spawn":
            cmd = [sys.executable, "-c", "import numpy"]
            self._run = lambda: subprocess.run(cmd, check=True, cwd=root, env=env, timeout=120)
        else:
            self._run = {"python": _python, "lapack": _lapack}[kind]

    def measure(self) -> float:
        t0 = time.perf_counter()
        self._run()
        self.times.append(time.perf_counter() - t0)
        return self.times[-1]
