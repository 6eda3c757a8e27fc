"""Multiprogrammed execution: cores + shared DRAM cache + off-chip memory.

Reproduces the paper's measurement protocol: every program runs in the
multiprogrammed mix (sharing the DRAM cache and memory channels), and
again standalone with identical per-core configuration; ANTT is the mean
per-program slowdown (Section IV). Interleaving follows each core's own
retirement clock, so memory-intensive programs pressure the shared cache
exactly in proportion to their progress.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from collections.abc import Callable, Iterator
from itertools import chain

from repro.common.config import CoreConfig
from repro.cores.interval import IntervalCore
from repro.cores.metrics import antt
from repro.dramcache.base import DRAMCacheBase
from repro.workloads.generator import ProgramTrace, TraceChunk
from repro.workloads.mixes import WorkloadMix
from repro.workloads.trace import CORE_ADDRESS_STRIDE

__all__ = ["RunResult", "MultiProgramRunner", "run_antt"]

CacheFactory = Callable[[], DRAMCacheBase]
"""Builds a fresh DRAM cache *with its own off-chip controller behind it*."""


@dataclass
class RunResult:
    """Outcome of one (multiprogrammed or standalone) run."""

    per_core_cycles: list[float]
    cores: list[IntervalCore]
    cache: DRAMCacheBase

    @property
    def total_instructions(self) -> int:
        return sum(core.instructions for core in self.cores)


class MultiProgramRunner:
    """Drives a workload mix through a shared DRAM cache."""

    def __init__(
        self,
        mix: WorkloadMix,
        cache_factory: CacheFactory,
        *,
        core_config: CoreConfig | None = None,
        accesses_per_core: int = 50_000,
        seed: int = 1,
        footprint_scale: float = 1.0,
        intensity_scale: float = 1.0,
        warmup_fraction: float = 0.3,
    ) -> None:
        if not 0.0 <= warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        self.mix = mix.scaled(footprint_scale) if footprint_scale != 1.0 else mix
        self.mix = self.mix.with_intensity_scale(intensity_scale)
        self.cache_factory = cache_factory
        self.core_config = core_config or CoreConfig()
        self.accesses_per_core = accesses_per_core
        self.seed = seed
        self.warmup_fraction = warmup_fraction
        # Program index -> its generated chunks. A program's stream
        # depends only on (profile, seed, base address), so the
        # multiprogrammed run and its standalone run replay the same
        # chunks; they live as long as this runner and no longer.
        self._chunks: dict[int, list[TraceChunk]] = {}

    def _program_chunks(self, prog_idx: int) -> list[TraceChunk]:
        """Program ``prog_idx``'s stream, generated on first use."""
        chunks = self._chunks.get(prog_idx)
        if chunks is None:
            trace = ProgramTrace(
                self.mix.programs[prog_idx],
                seed=self.seed + prog_idx,
                base_address=prog_idx * CORE_ADDRESS_STRIDE,
            )
            chunks = list(trace.chunks(self.accesses_per_core))
            self._chunks[prog_idx] = chunks
        return chunks

    # ------------------------------------------------------------------
    def _drive(self, program_indices: list[int]) -> RunResult:
        """Run the given subset of the mix's programs on a fresh cache."""
        cache = self.cache_factory()
        cores = [IntervalCore(i, self.core_config) for i in program_indices]
        streams = [
            chain.from_iterable(self._program_chunks(prog_idx))
            for prog_idx in program_indices
        ]
        base_cpi = self.core_config.base_cpi

        # The heap is keyed on each core's *next access arrival time*
        # (clock + compute gap), so requests reach the shared memory
        # system in global time order even when core clocks diverge —
        # a low-intensity core running far ahead must never stamp bank
        # state that earlier-in-time requests from slower cores then
        # queue behind.
        heap: list[tuple[float, int, tuple]] = []
        for slot in range(len(cores)):
            record = next(streams[slot], None)
            if record is not None:
                arrival = cores[slot].cycles + record[2] * base_cpi
                heapq.heappush(heap, (arrival, slot, record))
        # Warm-up protocol (Section IV): the core clocks ANTT is computed
        # from cover only each core's *own* measured region — the first
        # ``warmup_fraction`` of its accesses fills caches and trains
        # predictors. Per-core marks matter because heterogeneous paces
        # mean cores cross their warm-up points at very different global
        # times. Cache statistics reset once, at the aggregate boundary.
        total = self.accesses_per_core * len(cores)
        global_warm = int(total * self.warmup_fraction)
        per_core_warm = int(self.accesses_per_core * self.warmup_fraction)
        served_total = 0
        served = [0] * len(cores)
        cycle_marks = [0.0] * len(cores)
        access = cache.access_fast
        while heap:
            _, slot, record = heapq.heappop(heap)
            address, is_write, icount = record
            core = cores[slot]
            core.advance_compute(icount)
            now = core.now
            complete = access(address, now, is_write)
            if is_write:
                core.note_write()
            else:
                core.apply_read_stall(complete - now)
            served_total += 1
            served[slot] += 1
            if per_core_warm and served[slot] == per_core_warm:
                cycle_marks[slot] = core.cycles
            if global_warm and served_total == global_warm:
                cache.reset_stats()
            nxt = next(streams[slot], None)
            if nxt is not None:
                arrival = core.cycles + nxt[2] * base_cpi
                heapq.heappush(heap, (arrival, slot, nxt))
        return RunResult(
            per_core_cycles=[
                core.cycles - mark for core, mark in zip(cores, cycle_marks)
            ],
            cores=cores,
            cache=cache,
        )

    # ------------------------------------------------------------------
    def run_multiprogrammed(self) -> RunResult:
        return self._drive(list(range(self.mix.num_cores)))

    def run_standalone(self, program_index: int) -> RunResult:
        return self._drive([program_index])

    def run_antt(self) -> tuple[float, RunResult]:
        """(ANTT, multiprogrammed run result) per the paper's metric."""
        mp = self.run_multiprogrammed()
        standalone = [
            self.run_standalone(i).per_core_cycles[0]
            for i in range(self.mix.num_cores)
        ]
        return antt(mp.per_core_cycles, standalone), mp


def iter_records(trace: ProgramTrace, accesses: int) -> Iterator[tuple[int, bool, int]]:
    """Flatten a trace's chunks into (address, is_write, icount) tuples."""
    return chain.from_iterable(trace.chunks(accesses))


def run_antt(
    mix: WorkloadMix,
    cache_factory: CacheFactory,
    **kwargs,
) -> tuple[float, RunResult]:
    """One-call ANTT measurement for a mix under a cache scheme."""
    runner = MultiProgramRunner(mix, cache_factory, **kwargs)
    return runner.run_antt()
