"""A fixed reference kernel that reads the host's speed at a moment.

The benchmark was defined on a shared virtual machine whose speed switches,
on scales from a second to minutes, between a fast state and states 1.3 to
2 times slower.  A call of ``reference``, about a millisecond long, reads
which state the host is in; the benchmark makes such calls between and,
through ``Sampler``, during its timed calls and set-up, and scales the
times it measures to a host of fixed speed.  The kernel uses only the
standard library and runs with the garbage collector off, so the heap the
program under test leaves behind does not change its cost.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import time


def _graph(n: int = 150, extra: int = 300) -> list[list[tuple[int, float]]]:
    """A fixed sparse weighted graph from a linear congruential generator."""
    state = 12345

    def draw() -> int:
        nonlocal state
        state = (1103515245 * state + 12345) % 2**31
        return state

    adj: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i in range(1, n):
        j, w = draw() % i, 0.5 + draw() / 2**31
        adj[i].append((j, w))
        adj[j].append((i, w))
    for _ in range(extra):
        a, b, w = draw() % n, draw() % n, 0.5 + draw() / 2**31
        if a != b:
            adj[a].append((b, w))
            adj[b].append((a, w))
    return adj


_ADJ = _graph()

# Times are reported as on a host where the kernel takes this long: its
# time on the fast state of the 2-vCPU Intel Xeon virtual machine the
# benchmark was defined on.
REFERENCE_S = 0.65e-3


def _dijkstra(source: int) -> float:
    dist = {source: 0.0}
    heap = [(0.0, source)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, w in _ADJ[u]:
            nd = d + w
            if nd < dist.get(v, 1e300):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return sum(dist.values())


def reference() -> float:
    """Seconds taken by one run of the fixed kernel (about a millisecond)."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    for source in range(0, len(_ADJ), 40):
        _dijkstra(source)
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


class Sampler:
    """Reads the kernel every ``interval`` seconds while a timed call runs.

    Use as ``with sampler: ...`` or between ``start()`` and ``stop()``.  A
    SIGALRM handler makes the readings
    between the call's bytecodes, so a call longer than the interval gets
    readings of the host's state while it runs.  ``spent`` is the time the
    readings took, which the caller takes off the call's time."""

    def __init__(self, interval: float = 0.05) -> None:
        self.interval = interval
        self.readings: list[float] = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.readings.append(reference())
        self.spent += time.perf_counter() - t0

    def start(self) -> None:
        self.readings, self.spent = [], 0.0
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scale(self, fallback: float) -> float:
        """REFERENCE_S times the mean of 1 / kernel time over the readings,
        or over ``fallback`` when there are none: the factor that scales a
        time taken while the sampler ran to a host of fixed speed."""
        return REFERENCE_S * statistics.fmean(1.0 / r for r in self.readings or [fallback])

    def __enter__(self) -> "Sampler":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
