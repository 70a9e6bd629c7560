"""A fixed reference workload that measures how fast the host is right now.

The hosts this benchmark runs on are shared: other tenants slow every
kind of code down together, by up to half, in phases that last from a
second to minutes.  A run cannot wait such a phase out, so the benchmark
times this reference right before and right after every measured call
and expresses the call's time at the reference's nominal speed::

    nominal seconds = host seconds * reference nominal / reference seconds

The reference is part of the benchmark, not of the program, so it costs
the same for every version of the program; a change to the program moves
the measured call and not the reference.  Contention slows different
kinds of code down by different amounts, so each workload uses a mix of
kernels like its own work: an interpreted integer loop, allocation of
small Python objects, and a NumPy sort of an array larger than the
caches.  The kernels run with the garbage collector off, so the
program's heap does not change their cost.
"""

from __future__ import annotations

import functools
import gc
import time

import numpy as np

#: Interpreted loop iterations per nominal second (a quiet 2-vCPU Xeon
#: VM, the host the benchmark was defined on), for :func:`spin`.
SPIN_PER_S = 14_000_000

#: A previous reference this recent is reused as the next call's "before".
_REUSE_S = 0.1


def _loop(n: int) -> int:
    total = 0
    for i in range(n):
        total += i * i
    return total


def spin(seconds: float) -> int:
    """A fixed amount of interpreted work that takes ``seconds`` at the
    nominal host speed (the sensitivity check's planted cost)."""
    return _loop(round(seconds * SPIN_PER_S))


def _objects(n: int) -> int:
    objects = {}
    for i in range(n):
        objects[(i, i % 7)] = [i, str(i)]
    return len(objects)


@functools.cache
def _array() -> np.ndarray:
    return np.random.default_rng(7).random(2_000_000)

#: Reference kernels: name -> (kernel, its time in seconds on the quiet
#: host named at ``SPIN_PER_S``; this only sets the scale).
KERNELS = {
    "loop": (lambda: _loop(300_000), 0.0176),
    "objects": (lambda: _objects(40_000), 0.0158),
    "sort": (lambda: np.sort(_array()), 0.0185),
}


class Reference:
    """Times a mix of reference kernels, and calls measured against it."""

    def __init__(self, kernels: tuple[str, ...]) -> None:
        self.kernels = [KERNELS[name][0] for name in kernels]
        #: The mix's time at the nominal host speed.
        self.nominal_s = sum(KERNELS[name][1] for name in kernels)
        self._last_end = -1.0
        self.measure()  # first-call costs (the sort's array) stay out

    def measure(self) -> float:
        """Host seconds the reference takes now."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        for kernel in self.kernels:
            kernel()
        end = time.perf_counter()
        if enabled:
            gc.enable()
        self._last, self._last_end = end - start, end
        return self._last

    def around(self, fn, *args, **kwargs):
        """``(result, host seconds of the call, reference seconds)``; the
        reference time is the mean of one taken before the call and one
        taken after it."""
        if time.perf_counter() - self._last_end < _REUSE_S:
            before = self._last
        else:
            before = self.measure()
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - start
        return result, wall, (before + self.measure()) / 2
