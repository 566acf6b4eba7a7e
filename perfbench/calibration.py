"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of percent
over tens of seconds, which moves raw wall times of whole runs far more than
the changes the benchmark must resolve.  Fixed kernels are therefore timed
before and after each campaign: they measure how fast the machine is running
just then.  A calibrated time is a wall time scaled to the speed at which the
kernels take their REFERENCE_S seconds.

Contention slows different kinds of work by different amounts, so each
workload is calibrated with the kernels that match its campaigns:

- ``python``: interpreter-bound Python, a recursive generator over
  compositions with exp and fsum (the shape of the exact moment sum);
- ``numpy``: NumPy passes over freshly allocated arrays on one thread;
- ``numpy2``: the same passes split over two threads of a pool created for
  the call, as the package's chunked sampling does with workers=2.

Over eight 20 s runs of each workload, the matching mix cut the quartile
spread of the run medians from 11-28 % (raw) to 1.3-2.6 %, where any single
kernel for all workloads left at least one workload at 6.6-11 %.

The kernels are written here, in the benchmark, and call no package code, so
a change to the package cannot change them.  A change that leaves the
package's threads running between campaigns would slow the kernels and
flatter the calibrated times; the raw wall times are printed beside them for
that reason.
"""

from __future__ import annotations

import math
import statistics
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

REPEATS = 3

_TABLE = [[math.lgamma(k + 1.5 + j) - math.lgamma(k + 1) for k in range(9)] for j in range(6)]
_PASS_LENGTH = 65_536


def _compositions(n: int, parts: int):
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def _python() -> None:
    math.fsum(math.exp(1e-2 * sum(_TABLE[j][k] for j, k in enumerate(c)))
              for c in _compositions(8, 6))


def _numpy_passes(_=None) -> None:
    for _ in range(3):
        x = np.arange(_PASS_LENGTH, dtype=float) + 0.5
        (np.sqrt(x).reshape(-1, 8) ** 2).sum(axis=1)


def _numpy() -> None:
    _numpy_passes()
    _numpy_passes()


def _numpy2() -> None:
    with ThreadPoolExecutor(max_workers=2) as pool:
        list(pool.map(_numpy_passes, range(2)))


KERNELS = {"python": _python, "numpy": _numpy, "numpy2": _numpy2}
# Kernel times on an idle 2-core machine; they only fix the scale.
REFERENCE_S = {"python": 0.003, "numpy": 0.004, "numpy2": 0.003}


def _timed(kernel) -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Calibration:
    """Times a workload's kernel mix and turns wall times into calibrated times."""

    def __init__(self, kinds: tuple[str, ...]):
        self.kinds = kinds
        self.reference_s = sum(REFERENCE_S[k] for k in kinds)

    def kernel_seconds(self, repeats: int = REPEATS) -> float:
        """Sum over the mix of each kernel's median time over ``repeats`` runs."""
        return sum(statistics.median(_timed(KERNELS[k]) for _ in range(repeats))
                   for k in self.kinds)

    def speed_factor(self, kernel_s: float) -> float:
        """Multiplier that turns a wall time into a calibrated time."""
        return self.reference_s / kernel_s
