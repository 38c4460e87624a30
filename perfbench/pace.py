"""The host's pace: a fixed piece of work, timed beside the workload's calls.

The benchmark shares a few cores of a host whose speed drifts by 20-40 %
within minutes, and the drift slows pure Python, numpy and sparse LU code
alike, in CPU time as much as in wall time.  `Pace.sample()` times one pass
of a fixed kernel made of those three kinds of work; it never calls mcgraph,
so a change to mcgraph leaves it as it is.  `workloads.Round` samples it
every quarter second of time spent in calls, from a timer signal that
interrupts the call.  A round's time divided by the median of the samples
taken during that round, times `REF_S`, is the round's time at the pace
of the reference box (`Round.paced_wall`).
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

# median of `Pace.sample()` on the reference box (2 vCPUs, Intel Xeon 2.1 GHz)
REF_S = 0.019


class Pace:
    def __init__(self):
        n = 48
        t = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        self._A = (sp.kron(sp.eye(n), t) + sp.kron(t, sp.eye(n))).tocsc()
        self._b = np.ones(n * n)
        self._x = np.random.default_rng(0).standard_normal(20000)

    def _work(self):
        s = 0
        for i in range(150000):
            s += i * i
        for _ in range(20):
            np.cumsum(np.sort(self._x) ** 2)
        spsolve(self._A, self._b, permc_spec="MMD_AT_PLUS_A")
        return s

    def sample(self) -> float:
        """Seconds for one pass of the kernel."""
        t0 = time.perf_counter()
        self._work()
        return time.perf_counter() - t0
