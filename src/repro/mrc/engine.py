"""One-pass miss-ratio-curve engine over materialized traces.

The grid experiments pay one full timing simulation per design point —
O(configs × trace). This engine answers the *hit-rate* part of every
sweep in a single pass over the materialized address column (the
zero-copy SoA view from ``trace_cache.materialized_columns()``): one
:class:`~repro.mrc.ghost.GhostPass` derives the per-record (set, tag)
and region-tracker columns once and shares them, so each tag-only ghost
model adds only its dict probes and LRU moves per record, and the whole
capacity × block-size × associativity × (X, Y) family resolves for less
than one timing cell (measured in ``BENCH_perf.json`` under the ``mrc``
perfbench mode; analysis in ``docs/dse.md``).

Sampling
--------
``sample_rate < 1`` keeps a deterministic subset of the trace, chosen
by hashing the 4 KB *frame* of each address (SHARDS-style spatial
sampling): a frame is either fully in or fully out, so every ghost
geometry sees a consistent sub-stream and reuse distances inside kept
frames survive intact. The hash is a seed-salted splitmix64 finalizer
over the frame number — never ``hash()`` or ambient entropy, so a
(seed, rate) pair always selects the same records (the ``determinism``
simlint rule enforces this for the whole package). Ghost capacities are
scaled by the sampling rate (rounded to the nearest power of two) so a
sampled pass estimates the *full-trace* curve; each curve point carries
a binomial standard error ``sqrt(p(1-p)/n)`` over its sampled access
count. Bounds and methodology: ``docs/dse.md``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.mrc.ghost import AdaptiveGhost, GhostCache, GhostPass

__all__ = [
    "CurvePoint",
    "MRCResult",
    "MRCSpec",
    "mrc_pass",
    "sample_addresses",
]

_MASK64 = (1 << 64) - 1
_FRAME_BITS = 12  # 4 KB sampling frames
# splitmix64 finalizer constants: a single multiply has no avalanche
# into the high bits for small frame numbers (sequential frames would
# all share one keep/drop fate), so the frame hash needs the full
# multiply/xorshift mixing chain.
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_SEED_MIX = 0x9E3779B97F4A7C15  # 64-bit golden ratio


@dataclass(frozen=True, slots=True)
class MRCSpec:
    """One ghost-sweep request: which curves, at what fidelity.

    The three curves vary one axis at a time around the base point
    (``base_capacity``, ``base_block_size``, ``base_associativity``).
    ``xy_capacities`` adds the bi-modal occupancy sweep: for each
    capacity, every allowed (X, Y) split of a
    ``set_size``/``big_block_size`` set is estimated and the best state
    reported. ``warmup_fraction`` mirrors the timing drive: counters
    reset at the ``int(n·fraction)``-th record so estimates line up with
    measured (post-warmup) hit rates.
    """

    capacities: tuple[int, ...] = ()
    block_sizes: tuple[int, ...] = ()
    associativities: tuple[int, ...] = ()
    base_capacity: int = 8 << 20
    base_block_size: int = 64
    base_associativity: int = 8
    xy_capacities: tuple[int, ...] = ()
    set_size: int = 2048
    big_block_size: int = 512
    sample_rate: float = 1.0
    seed: int = 1
    warmup_fraction: float = 0.0

    def validate(self) -> None:
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in (0, 1]")
        if not 0.0 <= self.warmup_fraction < 1.0:
            raise ValueError("warmup_fraction must be in [0, 1)")
        if not (self.capacities or self.block_sizes or self.associativities
                or self.xy_capacities):
            raise ValueError("spec requests no curves")


@dataclass(frozen=True, slots=True)
class CurvePoint:
    """One estimated point: integer counts plus derived rate and error.

    ``hits``/``accesses`` are kept as exact integers so downstream
    consumers (the Figure 1 rewire) can reproduce ``misses/total``
    arithmetic bit-for-bit; ``stderr`` is the binomial sampling error
    (0.0 at sample rate 1.0 — the estimate is then exact).
    """

    param: int | str
    hits: int
    accesses: int
    hit_rate: float
    stderr: float

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return (self.accesses - self.hits) / self.accesses


@dataclass(frozen=True, slots=True)
class MRCResult:
    """Every curve of one ghost pass, plus sampling bookkeeping."""

    capacity: tuple[CurvePoint, ...] = ()
    block_size: tuple[CurvePoint, ...] = ()
    associativity: tuple[CurvePoint, ...] = ()
    xy: tuple[CurvePoint, ...] = ()
    best_xy: dict = field(default_factory=dict)
    total_records: int = 0
    sampled_records: int = 0
    sample_rate: float = 1.0
    seed: int = 1
    ghosts: int = 0

    def curves(self) -> dict[str, tuple[CurvePoint, ...]]:
        return {
            "capacity": self.capacity,
            "block_size": self.block_size,
            "associativity": self.associativity,
            "xy": self.xy,
        }


def sample_addresses(addresses, rate: float, seed: int) -> list[int]:
    """Deterministic 4 KB-frame subset of an address stream.

    Keeps an address iff ``hash(frame, seed)``'s top 24 bits fall under
    ``rate·2^24`` — a pure function of (address, seed), whether the
    stream arrives as an array or a list.
    """
    a = np.asarray(addresses, dtype=np.uint64)
    if rate >= 1.0:
        return a.tolist()
    salt = (seed * _SEED_MIX) & _MASK64
    h = (a >> np.uint64(_FRAME_BITS)) ^ np.uint64(salt)
    h = (h ^ (h >> np.uint64(30))) * np.uint64(_MIX_A)
    h = (h ^ (h >> np.uint64(27))) * np.uint64(_MIX_B)
    h = h ^ (h >> np.uint64(31))
    keep = ((h >> np.uint64(40)) & np.uint64(0xFFFFFF)) < int(rate * (1 << 24))
    return a[keep].tolist()


def _pow2_scale(value: int, rate: float, minimum: int) -> int:
    """``value·rate`` rounded to the nearest power of two, floored.

    Sampled passes shrink ghost capacity in proportion to the kept
    fraction of the address space (the SHARDS capacity correction);
    exact for rates that are powers of 1/2, nearest-pow2 otherwise.
    """
    target = max(minimum, value * rate)
    exponent = round(math.log2(target))
    return max(minimum, 1 << exponent)


def _point(param, ghost, *, sampled: bool) -> CurvePoint:
    n = ghost.accesses
    p = ghost.hit_rate
    stderr = math.sqrt(p * (1.0 - p) / n) if (sampled and n) else 0.0
    return CurvePoint(
        param=param, hits=ghost.hits, accesses=n, hit_rate=p, stderr=stderr
    )


def mrc_pass(addresses, spec: MRCSpec) -> MRCResult:
    """Drive one address stream through the whole ghost family.

    ``addresses`` is any integer sequence — canonically the first
    column of ``trace_cache.materialized_columns()``. Returns the four
    curves of :class:`MRCResult`. Every ghost runs in one
    :class:`~repro.mrc.ghost.GhostPass`, so the cost is the shared
    columns plus O(sampled records × ghosts) dict probes.
    """
    spec.validate()
    total = len(addresses)
    stream = sample_addresses(addresses, spec.sample_rate, spec.seed)
    sampled = spec.sample_rate < 1.0
    n = len(stream)
    warmup = int(n * spec.warmup_fraction) if spec.warmup_fraction else 0

    def scaled(capacity: int, minimum: int) -> int:
        if not sampled:
            return capacity
        return _pow2_scale(capacity, spec.sample_rate, minimum)

    ghosts: list[tuple[str, int | str, object]] = []
    for capacity in spec.capacities:
        floor = spec.base_block_size * spec.base_associativity
        ghost = GhostCache(
            scaled(capacity, floor), spec.base_associativity, spec.base_block_size
        )
        ghosts.append(("capacity", capacity, ghost))
    for block_size in spec.block_sizes:
        floor = block_size * spec.base_associativity
        ghost = GhostCache(
            scaled(spec.base_capacity, floor),
            spec.base_associativity,
            block_size,
        )
        ghosts.append(("block_size", block_size, ghost))
    for assoc in spec.associativities:
        floor = spec.base_block_size * assoc
        ghost = GhostCache(
            scaled(spec.base_capacity, floor), assoc, spec.base_block_size
        )
        ghosts.append(("associativity", assoc, ghost))
    for capacity in spec.xy_capacities:
        ghost = AdaptiveGhost(
            scaled(capacity, spec.set_size),
            set_size=spec.set_size,
            big_block_size=spec.big_block_size,
        )
        ghosts.append(("xy", capacity, ghost))

    GhostPass(stream, warmup).drive([ghost for _, _, ghost in ghosts])

    curves: dict[str, list[CurvePoint]] = {
        "capacity": [], "block_size": [], "associativity": [], "xy": []
    }
    best_xy: dict[int, tuple[int, int]] = {}
    ghost_count = 0
    for axis, param, ghost in ghosts:
        curves[axis].append(_point(param, ghost, sampled=sampled))
        if isinstance(ghost, AdaptiveGhost):
            best_xy[param] = ghost.best_state
            ghost_count += len(ghost.ghosts)
        else:
            ghost_count += 1

    from repro.obs import get_metrics

    metrics = get_metrics()
    metrics.add("mrc.passes")
    metrics.add("mrc.records", total)
    metrics.add("mrc.sampled_records", n)
    metrics.add("mrc.ghosts", ghost_count)

    return MRCResult(
        capacity=tuple(curves["capacity"]),
        block_size=tuple(curves["block_size"]),
        associativity=tuple(curves["associativity"]),
        xy=tuple(curves["xy"]),
        best_xy=best_xy,
        total_records=total,
        sampled_records=n,
        sample_rate=spec.sample_rate,
        seed=spec.seed,
        ghosts=ghost_count,
    )
