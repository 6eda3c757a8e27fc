"""Per-layer instruments: spans, stub caches, recorders and replays.

Everything here calls the simulator's public functions from outside;
nothing inside ``src/`` is patched. A layer's cost is measured one of
two ways:

* a span around a public call made by the benchmark itself (for
  example ``build_cache`` or ``ServiceClient.run_dse``), or
* a replay: the calls a real op makes into a layer are recorded once
  and made again on a fresh instance of that layer alone (the stacked
  ``DRAMDevice``, the off-chip ``MemoryController``), or the layer
  above is run over a constant-latency stub so only its own loop
  remains (``drive_cache``, ``MultiProgramRunner``).
"""

from __future__ import annotations

import time

STUB_LATENCY = 100  # cycles; constant, so the stub models nothing


class Spans:
    """In-memory span recorder: name, start, end, parent, op id.

    Spans stay in memory; the worker writes them out once at exit.
    ``span`` is a context manager that nests: the innermost open span
    is the parent of the next one opened.
    """

    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []
        self.op = 0

    def span(self, name: str):
        return _Span(self, name)

    def durations(self, name: str) -> list[float]:
        """Seconds spent in every span called ``name``."""
        return [r["end"] - r["start"] for r in self.records if r["name"] == name]

    def self_time(self, index: int) -> float:
        """Span ``index``'s duration minus the time its children cover."""
        record = self.records[index]
        children = sum(
            r["end"] - r["start"] for r in self.records if r["parent"] == index
        )
        return (record["end"] - record["start"]) - children


class _Span:
    __slots__ = ("_spans", "_name", "_index")

    def __init__(self, spans: Spans, name: str) -> None:
        self._spans = spans
        self._name = name
        self._index = -1

    def __enter__(self) -> "_Span":
        spans = self._spans
        self._index = len(spans.records)
        spans.records.append(
            {
                "name": self._name,
                "op": spans.op,
                "parent": spans._stack[-1] if spans._stack else None,
                "start": time.perf_counter(),
                "end": 0.0,
            }
        )
        spans._stack.append(self._index)
        return self

    def __exit__(self, *exc) -> None:
        spans = self._spans
        spans.records[self._index]["end"] = time.perf_counter()
        spans._stack.pop()


class StubCache:
    """Constant-latency DRAM cache: every access hits after a fixed delay.

    Enough of the ``DRAMCacheBase`` surface for ``drive_cache`` and
    ``MultiProgramRunner`` to run, so timing a drive over it measures
    the caller's own loop and nothing below it.
    """

    name = "stub"

    def __init__(self) -> None:
        self.accesses = 0

    def access_fast(self, address: int, now: int, is_write: bool = False) -> int:
        self.accesses += 1
        return now + STUB_LATENCY

    def access(self, address: int, now: int, *, is_write: bool = False):
        from repro.dramcache.base import DRAMCacheAccess

        self.accesses += 1
        return DRAMCacheAccess(True, now, now + STUB_LATENCY)

    def reset_stats(self) -> None:
        pass

    def stats_snapshot(self) -> dict:
        return {"accesses": self.accesses}


# The timed entry points of the two DRAM layers a cache calls into.
_DEVICE_CALLS = (
    "read_fast",
    "write_fast",
    "access_direct_fast",
    "column_direct_fast",
    "activate_direct",
    "read",
    "write",
    "access_direct",
    "column_direct",
)
_CONTROLLER_CALLS = ("read_fast", "write_fast", "read", "write")


class CallRecorder:
    """Logs every call a cache makes into its stacked device and off-chip memory.

    While the recorder is active (``with CallRecorder() as rec:``), the
    timed entry points of ``DRAMDevice`` and ``MemoryController`` are
    wrapped at class level, so caches built inside the block (whose hot
    paths bind these methods at construction) report to it. Only
    outermost calls are logged: the controller's own call into its
    device belongs to the controller call. Results are unchanged. That
    covers demand reads, posted fills and big-block tail bursts,
    writebacks and metadata accesses, in the order the cache made them.
    """

    def __init__(self) -> None:
        self.calls: list[tuple[object, str, tuple, dict]] = []
        self._depth = 0
        self._saved: list[tuple[type, str, object]] = []

    def __enter__(self) -> "CallRecorder":
        from repro.dram.controller import MemoryController
        from repro.dram.device import DRAMDevice

        for cls, names in ((DRAMDevice, _DEVICE_CALLS), (MemoryController, _CONTROLLER_CALLS)):
            for name in names:
                original = cls.__dict__[name]
                self._saved.append((cls, name, original))
                setattr(cls, name, self._wrap(name, original))
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, original in reversed(self._saved):
            setattr(cls, name, original)
        self._saved.clear()

    def _wrap(self, name: str, original):
        recorder = self
        calls = self.calls

        def recorded(target, *args, **kwargs):
            if recorder._depth:
                return original(target, *args, **kwargs)
            recorder._depth += 1
            try:
                return original(target, *args, **kwargs)
            finally:
                recorder._depth -= 1
                calls.append((target, name, args, kwargs))

        return recorded

    def device_stream(self, cache) -> list[tuple[str, tuple, dict]]:
        """The calls ``cache`` made into its stacked device."""
        stack = cache.dram
        return [(name, a, kw) for target, name, a, kw in self.calls if target is stack]

    def offchip_stream(self, cache) -> list[tuple[str, tuple, dict]]:
        """The calls ``cache`` made into off-chip memory.

        Controller calls keep their name; calls straight into the
        controller's device (the posted tail bursts of a big-block fill)
        are named ``device.<method>``.
        """
        controller = cache.offchip
        device = controller.device
        stream = []
        for target, name, args, kwargs in self.calls:
            if target is controller:
                stream.append((name, args, kwargs))
            elif target is device:
                stream.append(("device." + name, args, kwargs))
        return stream


def replay(root, stream: list[tuple[str, tuple, dict]]) -> None:
    """Make ``stream``'s calls, in order, on a fresh ``root``.

    ``root`` is a stacked ``DRAMDevice`` or an off-chip
    ``MemoryController``; ``device.<method>`` names reach the
    controller's device. The layers are deterministic, so a fresh one
    fed the recorded calls does exactly the work it did inside the op.
    """
    methods = {}
    for name, _, _ in stream:
        if name not in methods:
            target = root
            *path, last = name.split(".")
            for attr in path:
                target = getattr(target, attr)
            methods[name] = getattr(target, last)
    for name, args, kwargs in stream:
        methods[name](*args, **kwargs)


def fresh_device(geometry):
    """A new stacked device for a cache of ``DRAMCacheGeometry`` ``geometry``."""
    from repro.dram.device import DRAMDevice

    return DRAMDevice(geometry.geometry, geometry.timing, name="replay-stack")


def fresh_offchip(system):
    """A new off-chip controller, as ``build_cache`` makes by default."""
    from repro.harness.runner import build_offchip

    return build_offchip(system)


def iterate_programs(mix, *, accesses_per_core: int, seed: int, runs: int) -> None:
    """Generate every program stream of ``mix`` ``runs`` times.

    Mirrors the traces ``MultiProgramRunner`` builds per run (same
    per-program seed and base address), consumed with nothing behind
    them, so its time is the ``workloads.generator`` share of an op.
    """
    from repro.cores.multiprog import iter_records
    from repro.workloads.generator import ProgramTrace
    from repro.workloads.trace import CORE_ADDRESS_STRIDE

    for _ in range(runs):
        for index, profile in enumerate(mix.programs):
            trace = ProgramTrace(
                profile, seed=seed + index, base_address=index * CORE_ADDRESS_STRIDE
            )
            for _record in iter_records(trace, accesses_per_core):
                pass
