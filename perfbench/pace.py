"""The machine's pace, measured next to every operation.

On a shared host the CPU can run the same code up to 1.6x slower for
seconds at a time (on the two-CPU machine the reference figures come
from, a fixed pure-Python loop alternated between about 2.8 ms and
4.5 ms). The benchmark process times a fixed reference task right
before and right after each operation, and scales the operation's wall
time to the pace at which that task takes REFERENCE_S:

    scaled = wall * REFERENCE_S / mean(task before, task after)

The task mixes what the operations do: a pure-Python integer loop (the
interpreter's speed) and elementwise arithmetic on a freshly allocated
2 MiB complex array (memory and page faults, which a Python-only task
does not follow: it left the numpy-bound exact-dist operations as
noisy as their raw wall times). The worker runs it after every
operation, in the process and on the CPU that ran the operation; for
CLI children, run.py runs it, pinned to the same CPU. Its array is the
only memory the benchmark adds to the worker: 2 MiB, freed after each
use.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Roughly the task's time on that machine at its faster pace, so that
# scaled times read close to the wall times seen there when unloaded.
REFERENCE_S = 0.0015


def reference_seconds() -> float:
    """Best of two timings of the fixed task."""
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        x = 1
        for i in range(5000):
            x = (x * 48271 + i) % 2147483647
        values = np.ones(1 << 17, dtype=np.complex128)
        for _ in range(3):
            values *= 1.0000001
            values += 0.5
        best = min(best, perf_counter() - start)
    return best
