"""A fixed calibration loop that measures the machine's speed between passes.

The virtual machine the benchmark runs on changes speed by up to 2x for
minutes at a time.  The loop does the kinds of work ssbm does (interpreted
integer arithmetic, a breadth-first search over Python sets and lists, small
numpy products) on inputs that never change, so its CPU time moves only with
the machine.  The benchmark scales each pass by it.
"""

from __future__ import annotations

import random
import time

NOMINAL_S = 0.05  # the loop's CPU time on the baseline machine, about its median


def make_calibration():
    """A function returning the CPU seconds of one run of the loop.

    Call it after the launcher has pinned the BLAS threads: it imports numpy.
    """
    import numpy as np

    rng = random.Random(12345)
    adjacency = [[rng.randrange(2000) for _ in range(4)] for _ in range(2000)]
    gen = np.random.default_rng(12345)
    rows = gen.standard_normal((256, 24))
    vec = gen.standard_normal(24)

    def calibration_cpu() -> float:
        c0 = time.process_time()
        state = 0
        for i in range(75000):
            state = (state * 6364136223846793005 + 1442695040888963407 + i) & 0xFFFFFFFFFFFFFFFF
        for source in range(10):
            seen, frontier = {source}, [source]
            while frontier:
                reached = []
                for u in frontier:
                    for w in adjacency[u]:
                        if w not in seen:
                            seen.add(w)
                            reached.append(w)
                frontier = reached
        acc = 0.0
        for _ in range(40):
            for row in rows:
                acc += float(row @ vec)
        return time.process_time() - c0

    calibration_cpu()  # warm-up
    return calibration_cpu
