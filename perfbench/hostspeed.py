"""Host-speed reference: scales measured times to a host at nominal speed.

The benchmark was built on a 2-core host shared with other tenants, where
the speed of Python drifts by up to a fifth over tens of seconds.  The
drift moves a fixed piece of pure-Python work and the workload together,
so times divided by the reference's time spread less between runs than
raw times do.  Each iteration is scaled by the mean of three references
taken around it: by ``run.py`` before and after the iteration, and by
``worker.py`` before it imports the program.  None of them runs after the
program is imported, so no change to the program can move them.
"""

from __future__ import annotations

import gc
import heapq
import time
from typing import Sequence

__all__ = ["NOMINAL_REFERENCE_S", "reference_seconds", "host_speed_scale"]

#: Reference seconds of a host at nominal speed.
NOMINAL_REFERENCE_S = 0.25


class _Cell:
    __slots__ = ("index", "value", "name", "link")

    def __init__(self, index: int) -> None:
        self.index = index
        self.value = float(index)
        self.name = str(index)
        self.link = None

    def bump(self, x: float) -> int:
        self.value = self.value * 0.5 + x
        return self.index


def reference_seconds(steps: int = 150_000, cells: int = 40_000) -> float:
    """Host seconds of a fixed piece of pure-Python work.

    The mix imitates the simulator's hot loop: attribute updates on
    slotted objects spread over a few MiB, dict lookups, heap pushes and
    pops, generator resumes.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        objects = [_Cell(i) for i in range(cells)]
        by_name = {cell.name: cell for cell in objects}
        heap: list = []

        def echo():
            value = 0.0
            while True:
                value = yield value + 1.0

        gen = echo()
        next(gen)
        state = 1
        for _ in range(steps):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            cell = objects[state % cells]
            index = cell.bump(gen.send(cell.value))
            heapq.heappush(heap, (cell.value, index, cell))
            if len(heap) > 512:
                heapq.heappop(heap)
            by_name[cell.name].link = cell
        return time.perf_counter() - start
    finally:
        gc.enable()


def host_speed_scale(references: Sequence[float]) -> float:
    """Factor that scales an iteration's times to a host at nominal speed."""
    return NOMINAL_REFERENCE_S * len(references) / sum(references)
