"""Machine speed, measured around every timed op, and timings scaled by it.

A virtual machine that shares its host runs Python at a speed the host
sets: on a 2-core Intel Xeon VM it changed by up to two times from one
second to the next and stayed low for minutes (CPU time followed wall
time, so it was slower execution, not time stolen from the process).
Medians over one run cannot remove a slowdown that lasts for minutes, so
runs made minutes apart would disagree. The benchmark therefore times a
fixed pure-Python loop, which uses no code of the repository, right before
and right after each op, and reports each end-to-end timing scaled to the
loop's reference time: ``ms * REFERENCE_MS / loop_ms``, a rate by the
inverse. A change that makes the program slower still shows in full, since
the loop does not change.
"""

from __future__ import annotations

import gc
import statistics
import time

#: About the loop's time, in ms, on a 2-core Intel Xeon VM when the host
#: left it alone: the speed every end-to-end timing is scaled to.
REFERENCE_MS = 5.0


class _Probe:
    __slots__ = ("step", "mask")

    def __init__(self, step: int, mask: int) -> None:
        self.step = step
        self.mask = mask


_PROBE = _Probe(3, 1)


def _weigh(probe: _Probe, i: int) -> int:
    return i * probe.step if i & probe.mask else i + probe.step


def calibration_loop() -> int:
    """Fixed work with the interpreter's mix of calls, attribute reads,
    type tests, dict operations and string building.

    It allocates nothing the cyclic garbage collector counts (ints and
    strings only, in a dict that holds no tracked object), so it never
    starts a collection: its time does not depend on how much garbage
    the op before it left.
    """
    table: dict[int, int] = {}
    total = 0
    for i in range(18000):
        key = (i * 7919) % 509
        table[key] = table.get(key, 0) + _weigh(_PROBE, i)
        if isinstance(key, int) and key & 1:
            total += len(str(key))
    return total + len(table)


class Speed:
    """Slowdowns (loop time over ``REFERENCE_MS``) measured around ops."""

    def __init__(self) -> None:
        self.factors: list[float] = []

    @staticmethod
    def _measure() -> float:
        start = time.perf_counter()
        calibration_loop()
        return (time.perf_counter() - start) * 1e3 / REFERENCE_MS

    def around(self, fn):
        """``(fn(), slowdown)``: the mean of the slowdowns measured right
        before and right after the call.

        A full collection first gives every op the same collector state to
        start from, so the collections its own allocations start fall at
        the same points in every op, instead of wherever the garbage of
        earlier ops of other kinds pushed them.
        """
        gc.collect()
        before = self._measure()
        result = fn()
        factor = (before + self._measure()) / 2
        self.factors.append(factor)
        return result, factor

    def median(self) -> float:
        return statistics.median(self.factors)
