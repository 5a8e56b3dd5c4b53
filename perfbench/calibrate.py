"""Machine-speed probe, run between passes.

A fixed interpreter-bound kernel (one hundred 20x20 dense solves) that
shares no code with ``dsblo``, timed ten times after every pass. Its
fastest time in a run measures the machine's quiet speed during the run;
``run.py`` scales times by ``REFERENCE_S`` over it, so that runs made while
the host's quiet speed was lower or higher read alike.
"""

import time

import numpy as np

# The kernel's time on a quiet spell of the host the bounds were set on
# (Intel Xeon vCPU at 2.0 GHz, numpy with OpenBLAS 0.3.31, one BLAS thread).
REFERENCE_S = 1.1e-3


class Probe:
    REPEATS = 10

    def __init__(self):
        rng = np.random.default_rng(12345)
        m = rng.standard_normal((20, 20))
        self.S = m @ m.T + 20.0 * np.eye(20)
        self.v = rng.standard_normal(20)
        self.batches = []

    def sample(self, repeats: int) -> list:
        """Times of ``repeats`` runs of the kernel."""
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            acc = 0.0
            for _ in range(100):
                acc += float(np.linalg.solve(self.S, self.v) @ self.v)
            times.append(time.perf_counter() - t0)
        return times

    def record(self):
        """One batch of ``REPEATS`` kernel runs, taken after a pass."""
        self.batches.append(self.sample(self.REPEATS))

    def speed_factor(self) -> float:
        """REFERENCE_S over the kernel's fastest time after any pass."""
        return REFERENCE_S / float(np.min(self.batches))
