"""Host-speed calibration: a fixed kernel timed between queries.

On a shared machine the host's speed drifts by tens of percent over seconds
to minutes and moves every wall-clock timing with it.  :class:`Calibrator`
times a fixed kernel that does the kinds of work the queries do — many small
numpy calls from a Python loop (like the pair walks and the head expansion),
a weighted scatter-add over a long array (like the mat-vecs) and a sort (like
``np.unique``) — on inputs that never change and with no code of the program
under test, so a change to the program leaves its time alone.

A query's *reference time* is its wall time scaled by ``REF_S`` over the mean
of the kernel times measured right before and right after it: the time the
query would take on a host where the kernel takes ``REF_S``.
"""
from __future__ import annotations

import time

import numpy as np

#: Kernel wall time that defines the reference host: about the median of 100
#: runs on a shared 4-core x86-64 VM, so reference seconds read close to wall
#: seconds there.
REF_S = 0.04


class Calibrator:
    def __init__(self) -> None:
        g = np.random.default_rng(20_200_614)
        self.start = g.integers(0, 50_000, 2_000)
        self.table = g.integers(0, 50_000, 50_000)
        self.keys = g.integers(0, 200_000, 400_000)
        self.weights = g.random(400_000)

    def run(self) -> float:
        """Wall seconds of one kernel run."""
        t0 = time.perf_counter()
        rng = np.random.default_rng(7)
        pos = self.start
        for _ in range(500):
            pos = self.table[pos]
            alive = rng.random(pos.size) < 0.77
            np.count_nonzero(alive & (pos < 25_000))
        for _ in range(8):
            np.bincount(self.keys, weights=self.weights, minlength=200_000)
        np.unique(self.keys)
        return time.perf_counter() - t0
