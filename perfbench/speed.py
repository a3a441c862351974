"""Timing scaled to a reference machine speed.

On a shared machine the CPU speed one process gets swings by tens of per
cent, over seconds within a run and over minutes between runs; every
timing of one run moves together. So each timed operation is preceded by
a short fixed calibration unit, pure Python and independent of viscx (a
breadth-first search over a fixed tree), and its time is multiplied by
REF_UNIT_S over the median of the last WINDOW unit times. An operation
that took over LONG_OP_S can span a change of speed, so LONG_WINDOW
units are run after it, and it is scaled by the median of the last
2 * LONG_WINDOW units, those after it and those before. A timing then
reads as the time the operation would take on a machine where the unit
takes REF_UNIT_S. Raw times are that divided by the reported scale.
"""

from __future__ import annotations

import gc
from collections import deque
from time import perf_counter

#: unit time taken as the reference speed (about its median on a 2-vCPU
#: x86-64 cloud VM under Python 3.11.7)
REF_UNIT_S = 1.5e-3
WINDOW = 5
LONG_OP_S = 0.25
LONG_WINDOW = 20

_NODES = 127
_PARENT = [None] + [(i - 1) // 2 for i in range(1, _NODES)]
_CHILDREN = [[c for c in (2 * i + 1, 2 * i + 2) if c < _NODES] for i in range(_NODES)]
_STARTS = tuple(range(64, _NODES, 3))


def _unit() -> int:
    """Breadth-first distances from a few leaves over a fixed binary tree."""
    total = 0
    for start in _STARTS:
        seen = {start}
        queue = deque([(start, 0)])
        while queue:
            node, dist = queue.popleft()
            total += dist
            parent = _PARENT[node]
            for nxt in _CHILDREN[node] + ([parent] if parent is not None else []):
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append((nxt, dist + 1))
    return total


class Speed:
    """Recent calibration-unit times; `timed` scales one operation."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=2 * LONG_WINDOW)
        self.scales: list[float] = []

    def calibrate(self, units: int = 1) -> None:
        # the unit's own garbage is freed by reference counting; keep the
        # cyclic collector, whose cost depends on the program's heap, out
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(units):
                start = perf_counter()
                _unit()
                self.recent.append(perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def scale(self, units: int = WINDOW) -> float:
        ordered = sorted(list(self.recent)[-units:])
        return REF_UNIT_S / ordered[len(ordered) // 2]

    def timed(self, fn, *args):
        """(result, seconds at reference speed) of one call."""
        self.calibrate()
        start = perf_counter()
        result = fn(*args)
        elapsed = perf_counter() - start
        if elapsed > LONG_OP_S:
            self.calibrate(LONG_WINDOW)
            scale = self.scale(2 * LONG_WINDOW)
        else:
            scale = self.scale()
        self.scales.append(scale)
        return result, elapsed * scale
