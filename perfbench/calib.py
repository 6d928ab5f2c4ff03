"""Calibration kernel: converts measured seconds into reference seconds.

On a shared virtual machine the speed of a core drifts by 20-40% within
seconds, which swamps the run-to-run comparison of raw wall times. A
fixed kernel that mixes what the tube workloads spend their time on
(interpreter-bound loops over small vectors, allocation of dense 201x201
arrays, a dense LU solve) takes a few milliseconds. It runs after every time
step for about a tenth of the step's time, so its mean duration over a pass
samples the host's speed evenly across that pass.
Times are reported at the speed at which one kernel run takes
:data:`REF_KERNEL_S`:

    reference seconds = measured seconds * REF_KERNEL_S / mean kernel seconds

The kernel uses numpy and the standard library only, never fsilab, so a change
to fsilab cannot move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Duration of one kernel run that defines the reference speed.
REF_KERNEL_S = 0.003
_N = 201  # size of the tube flow system
_LOOPS = 4


class Kernel:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((_N, _N)) + _N * np.eye(_N)
        self._b = rng.standard_normal(_N)
        self._basis = [q / np.linalg.norm(q) for q in rng.standard_normal((12, _N // 2))]
        self._diag = np.arange(_N)
        self.sample(10)  # first calls load LAPACK and fill caches

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in seconds."""
        start = time.perf_counter()
        for _ in range(_LOOPS):
            m = np.zeros((_N, _N))
            m[self._diag, self._diag] += 1.0
            m += self._a
            x = np.linalg.solve(m, self._b)
            w = x[: _N // 2].copy()
            for _ in range(2):
                for q in self._basis:
                    w -= (q @ w) * q
        return time.perf_counter() - start

    def sample(self, n: int) -> float:
        """Mean kernel seconds over ``n`` back-to-back runs."""
        return statistics.mean(self() for _ in range(n))


def scale(kernel_s) -> float:
    """Factor from measured to reference seconds, given kernel times sampled alongside."""
    return REF_KERNEL_S / statistics.mean(kernel_s)
