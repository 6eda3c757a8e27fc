"""Host-speed probe: a fixed pure-Python loop timed around every op.

On a shared 2-vCPU VM the same op's wall time drifts by up to ~2x
over minutes as co-tenant load comes and goes, so the medians of two
runs a few minutes apart can differ by more than any change worth
measuring. The probe is benchmark-owned code that no change to the
simulator can speed up. It does the same kind of interpreter work as
the simulator (attribute writes on slotted objects, dict probes, heap
pushes, integer arithmetic) over a working set of a few MB, larger than
a core's private caches, so co-tenant load on the cores and on the
shared cache stretches both alike.

``run.py`` runs the probe in its own process while the worker waits
between ops (and, for ``service_dse``, after the daemon has gone idle),
so the probe neither competes with simulator work nor adds to the
worker's memory. ``run.normalized_ops`` rescales each op's wall time to
a host on which the probe takes ``REFERENCE_S``, by ``host_factor``.

The simulator's time does not scale 1:1 with the probe's. Over 90
runs on the development VM (30 per workload), while the host's speed
varied by ~2x, log(median op time) against log(median probe time) had
slopes of 1.30 (``drive_bimodal``), 1.35 (``antt_alloy``) and 1.44
(``service_dse``), each with r >= 0.989: host load slows the
simulator's larger working set more than the probe's. ``HOST_EXPONENT``
is that slope, as one value for all workloads (README.md has the runs).
It scales only the host's share of an op's time: a change that makes
the simulator 20% slower reads 20% slower.
"""

from __future__ import annotations

import heapq
import random
import time

REFERENCE_S = 0.020  # probe time on the reference host; the unit of normalized times
HOST_EXPONENT = 1.3  # simulator time ~ probe time ** HOST_EXPONENT across host states
_ITERATIONS = 10_000
_ENTRIES = 1 << 16  # power of two: indices are masked, not reduced


class _Cell:
    __slots__ = ("tag", "age")

    def __init__(self, tag: int) -> None:
        self.tag = tag
        self.age = 0


_state: tuple | None = None


def _working_set() -> tuple:
    """Cells in shuffled order and a dict over them, built once."""
    global _state
    if _state is None:
        rng = random.Random(7)
        cells = [_Cell(i) for i in range(_ENTRIES)]
        rng.shuffle(cells)
        table = {(i * 2654435761) & 0xFFFFFFF: cell for i, cell in enumerate(cells)}
        keys = list(table)
        rng.shuffle(keys)
        _state = (cells, table, keys)
    return _state


def probe() -> float:
    """Seconds the reference loop takes on this host right now."""
    cells, table, keys = _working_set()
    mask = _ENTRIES - 1
    events: list[int] = []
    clock = 0
    acc = 0
    start = time.perf_counter()
    for i in range(_ITERATIONS):
        clock += 3
        cells[(i * 7919) & mask].age = clock
        acc += table[keys[(i * 104729) & mask]].tag & 7
        heapq.heappush(events, clock + (acc & 255))
        if events[0] <= clock:
            heapq.heappop(events)
    return time.perf_counter() - start


def host_factor(probe_s: float) -> float:
    """Scale from this host, whose probe took ``probe_s``, to the reference host."""
    return (REFERENCE_S / probe_s) ** HOST_EXPONENT
