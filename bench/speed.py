"""Machine-speed probe, so that wall times from a shared host can be compared.

On a host shared with other tenants the speed available to one process
drifts: on the 2-core machine this benchmark was built on, the same pass of
fig4-fig7 took 29-56 ms depending on when it ran, in phases lasting 10-20 s,
with no steal time reported. A fixed interpreter-bound kernel that does not
depend on nfcrb is timed right after set-up and after every CLI invocation
of a probed workload (workloads.PROBED). Its rolling median, against
REF_KERNEL_S, is the slowdown the timed work ran under; dividing the wall
time by it gives the time at reference speed. The kernel tracks
interpreter-bound work only; see README.md for the large-array workloads.
It makes no BLAS call: in a fresh process, waking OpenBLAS threads can add
15 ms to a 64x64 product.
"""

import statistics
import time
from collections import deque

import numpy as np

# median kernel time in the fastest phases seen on the reference machine
REF_KERNEL_S = 0.5e-3
# kernel time after each piece of measured work, as a share of it
SHARE = 0.05
WINDOW = 15


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._phase = rng.uniform(0.0, 2.0 * np.pi, 8192)
        self._recent = deque(maxlen=WINDOW)
        self.kernel_s = []

    def _kernel(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i % 7
        z = np.exp(1j * self._phase)
        float(z.real.sum()) + acc
        return time.perf_counter() - start

    def slowdown_after(self, busy_s: float) -> float:
        """Time the kernel for SHARE of busy_s (at least once) and return the
        rolling median kernel time over REF_KERNEL_S."""
        spent = 0.0
        while spent < SHARE * busy_s or spent == 0.0:
            dt = self._kernel()
            spent += dt
            self._recent.append(dt)
            self.kernel_s.append(dt)
        return statistics.median(self._recent) / REF_KERNEL_S
