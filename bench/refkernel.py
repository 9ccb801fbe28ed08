"""Fixed reference kernels that measure how fast this machine runs right now.

The benchmark runs them next to every timed command and scales the
command's time by ``nominal / measured``, so drift of the host's effective
speed cancels out while the metrics keep their units.  Different kinds of
work drift differently on a shared VM, so there is one kernel per kind:

* ``interpreter``: interpreter-bound Python (frozen dataclasses, tuples,
  float arithmetic) plus small numpy and scipy.special calls, the mix
  rsmaxwell runs per point.  Its speed swings by tens of percent within a
  minute, and the program's per-point code swings with it.
* ``lapack``: full SVDs of a fixed tall matrix, the kind of call
  ``numpy.linalg`` hands to LAPACK.  It swings far less, and the interpreter
  kernel would over-correct it.
* ``interpreter_start``: a fresh interpreter importing the same stdlib and
  third-party modules the CLI imports today (numpy, scipy.special,
  scipy.stats), the reference for start-up.  Start-up swings with disk-cache
  and dynamic-loading speed, which neither kernel above follows.

The benchmark scales the time a command spends inside ``numpy.linalg``
decompositions by the second kernel, the rest by the first, and start-up by
the third.  Nothing here imports rsmaxwell, so changes to the program cannot
move the kernels.
"""

from __future__ import annotations

import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
from scipy import special

#: Median duration of one ``interpreter()`` and one ``lapack()`` call on the
#: reference machine (2-core VM, Python 3.11, numpy 2.4, scipy 1.17).
NOMINAL_INTERPRETER_S = 0.019
NOMINAL_LAPACK_S = 0.035
#: Median of ``interpreter_start()`` on the same machine.
NOMINAL_START_S = 1.40

_START_CODE = "import argparse, csv, dataclasses, json, numpy, scipy.special, scipy.stats"

_ITERATIONS = 500
_ORDERS = np.arange(-1, 4)
_GEN = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]], dtype=float)
_WEIGHTS = np.array([1.0, 0.5j, 0.2, 0.1 - 0.3j])
# Kept small: the kernel runs in the worker, whose peak RSS is a metric
# (512x8 adds about 3.5 MB on verify-grid, 1024x8 about 15 MB).
_TALL = np.random.default_rng(0).normal(size=(512, 8))
_SVD_REPEATS = 4


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self) -> None:
        for name in ("x", "y"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(name)
            object.__setattr__(self, name, v)


def _interpreter_work() -> float:
    acc = 0.0
    for i in range(_ITERATIONS):
        p = _Point(0.37 + 1e-3 * i, 1.1 - 7e-4 * i)
        rho = float(np.hypot(p.x, p.y))
        phi = float(np.arctan2(p.y, p.x))
        w = special.jv(_ORDERS, 1.3 * rho) * np.exp(1j * _ORDERS * phi)
        m = 1j * w[0] * np.eye(4) + w[1] * _GEN + w[2] * _GEN.T
        v = m @ _WEIGHTS
        acc += float(abs(v[1])) + sum(t * 0.5 for t in (p.x, p.y, rho))
    return acc


def interpreter() -> float:
    """Run the interpreter kernel once; returns its duration in seconds."""
    t0 = time.perf_counter()
    _interpreter_work()
    return time.perf_counter() - t0


def lapack() -> float:
    """Run the LAPACK kernel once; returns its duration in seconds."""
    t0 = time.perf_counter()
    for _ in range(_SVD_REPEATS):
        np.linalg.svd(_TALL, full_matrices=True)
    return time.perf_counter() - t0


def time_launch(code: str, env: dict | None = None, cwd=None) -> float:
    """Seconds from starting a fresh interpreter that runs ``code`` until it is ready.

    The child prints ``ready`` after ``code``; its exit is waited for but not
    timed.  Raises RuntimeError if the child fails.
    """
    argv = [sys.executable, "-c", code + "; print('ready', flush=True)"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    ready = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=120)
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{code!r} failed: {err.strip()[-500:]}")
    return elapsed


def interpreter_start() -> float:
    """Start a fresh interpreter that imports the reference modules; returns seconds."""
    return time_launch(_START_CODE)
