"""Host-speed probe: a fixed kernel that shares no code with posfactor.

The benchmark runs on shared virtual machines whose speed drifts by up to
~1.7x, over seconds to minutes, as other tenants come and go; a run's raw
times then depend more on when it ran than on the code.  The probe kernel
(small complex eigh and matmul, as posfactor does, plus some dict work)
runs after every timed step for SHARE of that step's time, so its mean over
a run measures how slow the host was while the run's requests ran.  Times
are reported scaled to a host on which one probe takes NOMINAL_S:
``t * NOMINAL_S / mean probe time``.  A slower posfactor still reads slower,
because the probe does not call it.
"""

from __future__ import annotations

import time
from statistics import fmean

import numpy as np

SHARE = 0.1  # probe time per second of timed work
NOMINAL_S = 250e-6  # probe time of the reference host (mean on a shared 2-vCPU VM)

_rng = np.random.default_rng(20241017)
_MATRICES = [(_rng.standard_normal((n, n)) + 1j * _rng.standard_normal((n, n))) / 4.0
             for n in (2, 4, 8)]
_VALUES = _rng.standard_normal(300).tolist()


def kernel() -> float:
    """About 0.15-0.3 ms of work; the result only keeps it from being skipped."""
    acc = 0.0
    for a in _MATRICES:
        w, v = np.linalg.eigh(a + a.conj().T)
        b = (v * np.exp(0.1 * w)) @ v.conj().T
        c = np.eye(len(a), dtype=complex)
        for _ in range(6):
            c = c @ b
        acc += float(np.linalg.norm(c - a))
    table = {str(i): 2.0 * x for i, x in enumerate(_VALUES)}
    return acc + sum(table.values())


class Probe:
    """Probe times of one run."""

    def __init__(self):
        self.times: list[float] = []

    def after(self, busy: float) -> float:
        """Probe for SHARE of ``busy`` seconds (at least once); the block's host slowdown."""
        block = []
        while True:
            t0 = time.perf_counter()
            kernel()
            block.append(time.perf_counter() - t0)
            if sum(block) >= SHARE * busy:
                self.times.extend(block)
                return fmean(block) / NOMINAL_S

    def slowdown(self) -> float:
        """Mean probe time over the run, relative to the reference host."""
        return fmean(self.times) / NOMINAL_S
