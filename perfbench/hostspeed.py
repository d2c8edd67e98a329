"""Timings at a reference host speed.

The shared host the benchmark was built on changes speed in stretches
that last from seconds to minutes, by a quarter or more, in computing and
in starting processes alike.  A run that lands in a slow stretch would
read as a regression of the program.  So every timing is taken next to a
reference whose code never changes and is reported at the reference
speed:

    reported = measured * REF / reference measured next to it

Two references, one per kind of timing:

* `kernel()`: a fixed computation in this process, half interpreter
  loops and numpy element-wise work, half complex matrix products in
  BLAS at its default threading: the kinds of work the workloads do, in
  about equal shares of time.  It runs nothing of polqpdf.  It runs
  between operations every `KERNEL_EVERY_S`, and each operation latency
  is scaled by the samples just before and just after it.  (A
  package change that altered BLAS threading for the whole process would
  move it too; the kernel's median printed with every run would show
  that.)
* `numpy_spawn()`: `python -c "import numpy"` in a fresh interpreter,
  the part of a polqpdf start-up no change to the package can remove.
  It scales the set-up spawns, taken before and after each one; the
  faster of the two counts.

`KERNEL_REF_S` and `SPAWN_REF_S` fix the reference speed.  They are
close to the two references' medians on the host of the first baseline
(see BASELINE.md), so reported seconds read like that host's seconds at
its usual speed.  The raw timings and the references are printed on the
notes lines of every run.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

KERNEL_REF_S = 0.020
SPAWN_REF_S = 0.19
KERNEL_EVERY_S = 0.5  # run time between kernel samples during timed passes

_rng = np.random.default_rng(0)
_Z = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))
_V = _rng.standard_normal(4096) + 1j * _rng.standard_normal(4096)
_M = _rng.standard_normal((192, 192)) + 1j * _rng.standard_normal((192, 192))


def _kernel_once() -> float:
    t0 = time.perf_counter()
    for _ in range(6):
        np.einsum("ij,jk->ik", _Z, _Z)  # numpy's own loops, not BLAS
    x = 0
    for i in range(40_000):
        x += i * i
    for _ in range(40):
        np.exp(_V * 1e-3).sum()
    for _ in range(12):
        _M @ _M  # zgemm
    return time.perf_counter() - t0


def kernel() -> float:
    """Seconds of the fixed reference computation, the fastest of three.

    One run of about 20 ms is often caught by an interrupt or a neighbour's
    burst; the fastest of three follows the host's speed more closely.
    """
    return min(_kernel_once() for _ in range(3))


def numpy_spawn(cwd) -> float:
    """Seconds of `python -c "import numpy"` in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], cwd=cwd, check=True,
                   capture_output=True)
    return time.perf_counter() - t0
