"""Host speed calibration: a program-independent loop timed during a run.

On a shared host the interpreter's speed drifts by a third between regimes
lasting tens of seconds, and the hypervisor now and then runs other guests
on this guest's CPUs.  A run removes the second from every wall-clock time
it reports (:func:`stolen_seconds`).  For the first, it times
:func:`calibration_slice` right before and right after every unit, on as
many CPUs at once as the workload keeps busy, and scales that unit's
timings by the regime it met (:meth:`Calibrator.slowdown`).  The loop shares
no code with the program, so a change to the program cannot move it.

Run as a script, this module is a helper process that times slices on
another CPU each time it reads a line on stdin.
"""

from __future__ import annotations

import heapq
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

#: Slices each calibrating process runs at every calibration point.
SLICES_PER_POINT = 3
#: Median seconds of one slice on the reference host (a 2-CPU Xeon VM) in
#: its common speed regime; timings are scaled to this speed.
REFERENCE_SLICE_S = 0.033
#: How strongly unit timings follow the slices between speed regimes,
#: log(timing ratio) / log(slice time ratio).  It read 0.49 (sweep_serial)
#: and 0.54 (search_adaptive) between one day's regimes, and 0.8 to 0.9
#: (table1_jpeg, sweep_coordinated, search_adaptive) between a quiet hour
#: and a slow spell of another day; 0.7 keeps both within about a tenth.
ELASTICITY = 0.7
#: The same for set-up (interpreter start and imports), which read 0.86 and
#: 1.02 between that quiet hour and slow spell.
SETUP_ELASTICITY = 0.9


class _Node:
    __slots__ = ("key", "successor", "weight")

    def __init__(self, key: int, weight: int):
        self.key = key
        self.successor: Optional["_Node"] = None
        self.weight = weight


def stolen_seconds() -> float:
    """CPU seconds the hypervisor has given other guests while this
    guest's CPUs had work, summed over CPUs (the ``steal`` column of
    ``/proc/stat``); 0 where the kernel does not report it."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    if len(fields) < 9:
        return 0.0
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


def stolen_share(window: float, stolen: float, cpus: int) -> float:
    """Seconds of a *window* of wall time lost to other guests, given the
    steal counted over it and the CPUs the program kept busy.

    The counter ticks in 10 ms, so the share is capped at half the window:
    a tick on an idle CPU cannot eat a short window."""
    return min(0.5 * window, stolen / cpus)


def calibration_slice(nodes: int = 8_000) -> float:
    """CPU seconds of a fixed interpreter-bound loop (CPU time, so time
    stolen by other guests is not counted).

    It allocates a few MB of small objects, then walks them in a seeded
    random order through dict updates, heap operations and generator
    resumes: the mix, and roughly the working set, of the simulator's hot
    loops.
    """
    order = random.Random(7).sample(range(nodes), nodes)

    def walk(start: _Node, steps: int):
        node = start
        for _ in range(steps):
            yield node
            node = node.successor

    begin = time.thread_time()
    pool = [_Node(key, key * 3) for key in range(nodes)]
    for key, successor in zip(order, order[1:] + order[:1]):
        pool[key].successor = pool[successor]
    table: Dict[int, int] = {}
    heap: List[int] = []
    total = 0
    for node in walk(pool[order[0]], 2 * nodes):
        table[node.key & 4095] = table.get(node.key & 4095, 0) + node.weight
        heapq.heappush(heap, (node.key * 7919) % 10007)
        if len(heap) > 64:
            total += heapq.heappop(heap)
    return time.thread_time() - begin


def _slices() -> List[float]:
    return [calibration_slice() for _ in range(SLICES_PER_POINT)]


class Calibrator:
    """Times slices on *processes* CPUs at once (this process plus helper
    processes)."""

    def __init__(self, processes: int = 1):
        self._helpers = [
            subprocess.Popen([sys.executable, __file__],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
            for _ in range(processes - 1)]

    def sample(self) -> List[float]:
        """Seconds of every slice of one calibration point."""
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        samples = _slices()
        for helper in self._helpers:
            samples.extend(json.loads(helper.stdout.readline()))
        return samples

    @staticmethod
    def slowdown(samples: Sequence[float]) -> float:
        """How much slower than the reference the slices ran while
        *samples* were taken (>1: slower).

        A timing is scaled to the reference host's common speed by
        dividing it by ``slowdown ** elasticity`` (a rate: multiplying)."""
        return statistics.median(samples) / REFERENCE_SLICE_S

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()


if __name__ == "__main__":
    for _line in sys.stdin:
        print(json.dumps(_slices()), flush=True)
