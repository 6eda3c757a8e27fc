"""Pareto-pruned design-space exploration over the MRC engine.

The exhaustive approach to "which cache configuration is best" is one
full timing simulation per (cache size × block size × associativity ×
policy) point per mix. This driver spends that budget only where it
matters:

1. **Estimate** — one ghost pass per mix ranks every design point by
   estimated post-warmup hit rate (a few dict probes per record; see
   :mod:`repro.mrc.engine`).
2. **Prune** — only the estimated Pareto frontier (maximize hit rate,
   minimize capacity) graduates to timing simulation, capped at
   ``max_frontier`` points.
3. **Successive halving** — frontier points first run quarter-length
   timing simulations; the better half re-runs at full length. The
   winner is the fully-simulated point with the best measured hit rate
   (capacity breaks ties).

Cost accounting is explicit: one "full simulation equivalent" is one
full-length scheme×mix drive, a quarter-length run charges 0.25, and
``stats["speedup"]`` is exhaustive-grid cost over cost actually paid —
the number the ``mrc`` perfbench mode commits to ``BENCH_perf.json``
(the acceptance gate requires ≥ 5×).

Both phases fan out through :func:`repro.harness.parallel.run_grid`, so
``--jobs``, checkpoint/resume and progress events work exactly as they
do for figure grids.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.bimodal.cache import BiModalConfig
from repro.harness.parallel import run_grid
from repro.harness.runner import (
    ExperimentSetup,
    build_cache,
    drive_cache,
    scaled_locator_bits,
)
from repro.mrc.engine import MRCSpec, mrc_pass, sample_addresses
from repro.mrc.ghost import AdaptiveGhost, GhostCache, GhostPass
from repro.workloads.trace_cache import materialized_columns

__all__ = [
    "DesignPoint",
    "DseEstimateCell",
    "DseSimCell",
    "default_space",
    "dse_estimate_cell",
    "dse_sim_cell",
    "pareto_frontier",
    "run_design_space",
]

_POLICIES = ("fixed", "adaptive")


@dataclass(frozen=True, slots=True)
class DesignPoint:
    """One candidate organization in the swept space.

    ``cache_mb`` is the *scaled* capacity in MB (the same unit
    ``AnttCell.cache_mb`` uses — already divided by the experiment
    scale). ``policy`` is ``fixed`` (every fill is a ``block_size``
    block) or ``adaptive`` (bi-modal (X, Y) re-partitioning over
    ``block_size`` big blocks).
    """

    cache_mb: int
    block_size: int
    associativity: int
    policy: str

    def label(self) -> str:
        return (
            f"{self.cache_mb}MB/{self.block_size}B"
            f"/{self.associativity}w/{self.policy}"
        )


def default_space() -> tuple[DesignPoint, ...]:
    """The 36-point default sweep: 3 capacities × 3 blocks × 2 assoc × 2."""
    return tuple(
        DesignPoint(
            cache_mb=cache_mb,
            block_size=block_size,
            associativity=assoc,
            policy=policy,
        )
        for cache_mb in (4, 8, 16)
        for block_size in (256, 512, 1024)
        for assoc in (4, 8)
        for policy in _POLICIES
    )


def _point_ghost(point: DesignPoint, capacity: int):
    """The tag-only model estimating ``point``'s hit rate."""
    if point.policy == "adaptive":
        return AdaptiveGhost(
            capacity,
            set_size=point.block_size * point.associativity,
            big_block_size=point.block_size,
        )
    return GhostCache(capacity, point.associativity, point.block_size)


def _estimate(family: GhostPass, points: list[DesignPoint]) -> list[list[int]]:
    """``[hits, accesses, best_x, best_y]`` of ``points`` on one pass."""
    ghosts = [_point_ghost(point, point.cache_mb << 20) for point in points]
    family.drive(ghosts)
    rows = []
    for ghost in ghosts:
        best = ghost.best_state if isinstance(ghost, AdaptiveGhost) else (0, 0)
        rows.append([ghost.hits, ghost.accesses, best[0], best[1]])
    return rows


# ----------------------------------------------------------------------
# phase 1: ghost estimation (one cell per mix)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DseEstimateCell:
    """One ghost pass: every design point against one mix's trace."""

    mix: str
    setup: ExperimentSetup
    space: tuple[DesignPoint, ...]
    sample_rate: float = 1.0
    warmup_fraction: float = 0.5


def dse_estimate_cell(cell: DseEstimateCell) -> list:
    """Worker: per-point ``[hits, accesses, best_x, best_y]`` rows.

    Samples the shared materialized address column once (seeded frame
    hash) and drives every point's ghost over that sub-stream through
    one :class:`~repro.mrc.ghost.GhostPass`, with the timing drive's
    warm-up boundary. Points are driven one (capacity, block,
    associativity) at a time — its fixed and adaptive policies
    together, so the pass can run the fixed LRU point and the adaptive
    ``(X, 0)`` state once — and each group's ghosts are released
    before the next is built.
    """
    setup = cell.setup
    addresses, _, _ = materialized_columns(
        cell.mix,
        accesses_per_core=setup.accesses_per_core,
        seed=setup.seed,
        footprint_scale=setup.footprint_scale,
        intensity_scale=setup.intensity_scale,
    )
    stream = sample_addresses(addresses, cell.sample_rate, setup.seed)
    n = len(stream)
    warmup = int(n * cell.warmup_fraction) if cell.warmup_fraction else 0
    family = GhostPass(stream, warmup)
    groups: dict[tuple[int, int, int], list[int]] = {}
    for i, point in enumerate(cell.space):
        key = (point.cache_mb, point.block_size, point.associativity)
        groups.setdefault(key, []).append(i)
    rows: list = [None] * len(cell.space)
    for members in groups.values():
        group_rows = _estimate(family, [cell.space[i] for i in members])
        for i, row in zip(members, group_rows):
            rows[i] = row
    from repro.obs import get_metrics

    metrics = get_metrics()
    metrics.add("mrc.passes")
    metrics.add("mrc.records", len(addresses))
    metrics.add("mrc.sampled_records", n)
    metrics.add("mrc.ghosts", len(cell.space))
    return rows


# ----------------------------------------------------------------------
# phase 2/3: timing simulation of the frontier
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DseSimCell:
    """One timing run of a design point on one mix (scheme protocol)."""

    point: DesignPoint
    mix: str
    setup: ExperimentSetup
    warmup_fraction: float = 0.5
    window: int = 16

    @property
    def scheme(self) -> str:  # progress-line label (see _cell_attrs)
        return self.point.label()


def _point_config(
    point: DesignPoint, setup: ExperimentSetup, total: int
) -> BiModalConfig:
    """BiModalConfig realizing ``point`` (fixed policy = bimodal off)."""
    scale = setup.scale
    return BiModalConfig(
        set_size=point.block_size * point.associativity,
        big_block_size=point.block_size,
        enable_bimodal=point.policy == "adaptive",
        enable_way_locator=True,
        locator_index_bits=scaled_locator_bits(scale=scale),
        predictor_index_bits=12 if scale > 1 else 16,
        tracker_sample_every=1 if scale > 1 else 25,
        adaptation_interval=max(1_000, total // 150),
    )


def dse_sim_cell(cell: DseSimCell) -> dict:
    """Worker: full timing drive of one frontier point on one mix."""
    setup = cell.setup
    system = setup.system.scaled_cache(cell.point.cache_mb << 20)
    total = setup.accesses_per_core * setup.num_cores
    cache = build_cache(
        "bimodal",
        system,
        bimodal_config=_point_config(cell.point, setup, total),
        scale=setup.scale,
        adaptation_interval=max(1_000, total // 150),
    )
    result = drive_cache(
        cache,
        setup.trace_records(cell.mix),
        window=cell.window,
        streams=setup.num_cores,
        warmup=int(total * cell.warmup_fraction),
        backend=getattr(setup, "backend", "") or None,
    )
    return {
        "hit_rate": result.stats.get("hit_rate", 0.0),
        "end_time": result.end_time,
        "records": result.accesses,
    }


# ----------------------------------------------------------------------
# ranking
# ----------------------------------------------------------------------
def pareto_frontier(
    points: list[DesignPoint], rates: list[float], *, max_frontier: int = 8
) -> list[int]:
    """Indices of non-dominated points (higher rate, smaller capacity).

    A point is dominated when another matches-or-beats it on both axes
    and strictly beats it on one. The frontier is capped at
    ``max_frontier`` survivors by estimated rate (largest first) and
    returned in estimated-rate order.
    """
    frontier = []
    for i, (pi, ri) in enumerate(zip(points, rates)):
        dominated = False
        for j, (pj, rj) in enumerate(zip(points, rates)):
            if j == i:
                continue
            if (
                rj >= ri
                and pj.cache_mb <= pi.cache_mb
                and (rj > ri or pj.cache_mb < pi.cache_mb)
            ):
                dominated = True
                break
        if not dominated:
            frontier.append(i)
    frontier.sort(key=lambda i: (-rates[i], points[i].cache_mb))
    return frontier[:max_frontier]


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_design_space(
    *,
    setup: ExperimentSetup | None = None,
    mix_names: list[str] | None = None,
    space: tuple[DesignPoint, ...] | None = None,
    sample_rate: float = 1.0,
    max_frontier: int = 8,
    jobs: int | None = None,
) -> dict:
    """Explore the design space: estimate all, simulate the frontier.

    Returns ``{"rows": [...], "winner": {...} | None, "stats": {...}}``:
    one row per design point carrying its estimate (``est_hit_rate``,
    ``est_stderr``, best (X, Y)), whether it made the frontier, the
    fraction of a full simulation it received (0, 0.25 or 1.0) and —
    when simulated — its measured ``hit_rate``/``end_time``. ``stats``
    carries the cost accounting, including ``speedup`` (exhaustive
    full-sim count over full-sim equivalents actually spent) and
    ``full_sims_avoided``.
    """
    setup = setup or ExperimentSetup()
    names = mix_names or list(setup.mixes())
    points = list(space if space is not None else default_space())
    if not points:
        raise ValueError("design space is empty")
    if not 0.0 < sample_rate <= 1.0:
        raise ValueError("sample_rate must be in (0, 1]")

    # Phase 1: one ghost pass per mix (parallel, checkpointable).
    estimate_cells = [
        DseEstimateCell(
            mix=name,
            setup=setup,
            space=tuple(points),
            sample_rate=sample_rate,
        )
        for name in names
    ]
    per_mix = run_grid(dse_estimate_cell, estimate_cells, jobs=jobs)
    hits = [0] * len(points)
    accesses = [0] * len(points)
    best_xy: list[tuple[int, int]] = [(0, 0)] * len(points)
    estimated_mixes = 0
    for mix_rows in per_mix:
        if mix_rows is None:  # failed cell (collector active)
            continue
        estimated_mixes += 1
        for i, (h, a, x, y) in enumerate(mix_rows):
            hits[i] += h
            accesses[i] += a
            if (x, y) != (0, 0):
                best_xy[i] = (x, y)
    if not estimated_mixes:
        raise RuntimeError("every estimation cell failed; cannot rank")
    rates = [h / a if a else 0.0 for h, a in zip(hits, accesses)]

    # Phase 2: prune to the estimated Pareto frontier.
    frontier = pareto_frontier(points, rates, max_frontier=max_frontier)

    # Phase 3: successive halving — quarter-length runs on the whole
    # frontier, full-length runs on the better half.
    quarter_setup = replace(
        setup, accesses_per_core=max(1, setup.accesses_per_core // 4)
    )
    quarter_cells = [
        DseSimCell(point=points[i], mix=name, setup=quarter_setup)
        for i in frontier
        for name in names
    ]
    quarter_results = run_grid(dse_sim_cell, quarter_cells, jobs=jobs)
    quarter_rate: dict[int, float] = {}
    for k, i in enumerate(frontier):
        chunk = quarter_results[k * len(names) : (k + 1) * len(names)]
        rated = [r["hit_rate"] for r in chunk if r is not None]
        if rated:
            quarter_rate[i] = sum(rated) / len(rated)
    survivors = sorted(
        quarter_rate,
        key=lambda i: (-quarter_rate[i], points[i].cache_mb),
    )[: max(1, (len(frontier) + 1) // 2)]

    full_cells = [
        DseSimCell(point=points[i], mix=name, setup=setup)
        for i in survivors
        for name in names
    ]
    full_results = run_grid(dse_sim_cell, full_cells, jobs=jobs)
    measured: dict[int, dict] = {}
    for k, i in enumerate(survivors):
        chunk = full_results[k * len(names) : (k + 1) * len(names)]
        rated = [r for r in chunk if r is not None]
        if rated:
            measured[i] = {
                "hit_rate": sum(r["hit_rate"] for r in rated) / len(rated),
                "end_time": max(r["end_time"] for r in rated),
                "mixes": len(rated),
            }

    # Cost accounting, in full-simulation equivalents per mix-cell.
    quarter_equiv = 0.25 * len(frontier)
    full_equiv = float(len(survivors))
    spent = quarter_equiv + full_equiv
    exhaustive = float(len(points))
    speedup = exhaustive / spent if spent else float("inf")

    rows = []
    for i, point in enumerate(points):
        row = {
            "cache_mb": point.cache_mb,
            "block_size": point.block_size,
            "associativity": point.associativity,
            "policy": point.policy,
            "est_hit_rate": rates[i],
            "est_hits": hits[i],
            "est_accesses": accesses[i],
            "best_x": best_xy[i][0],
            "best_y": best_xy[i][1],
            "frontier": i in frontier,
            "sim_fraction": 1.0 if i in measured else (0.25 if i in quarter_rate else 0.0),
        }
        if i in measured:
            row["hit_rate"] = measured[i]["hit_rate"]
            row["end_time"] = measured[i]["end_time"]
        rows.append(row)

    winner = None
    if measured:
        best = min(
            measured, key=lambda i: (-measured[i]["hit_rate"], points[i].cache_mb)
        )
        winner = dict(rows[best])

    stats = {
        "points": len(points),
        "mixes": len(names),
        "estimated_mixes": estimated_mixes,
        "frontier_size": len(frontier),
        "survivors": len(survivors),
        "sample_rate": sample_rate,
        "full_sims_equivalent": spent,
        "exhaustive_sims": exhaustive,
        "full_sims_avoided": exhaustive - spent,
        "speedup": speedup,
    }
    return {"rows": rows, "winner": winner, "stats": stats}


def mrc_curves_for_mix(
    mix: str,
    *,
    setup: ExperimentSetup | None = None,
    capacities: tuple[int, ...] = (),
    block_sizes: tuple[int, ...] = (),
    associativities: tuple[int, ...] = (),
    xy_capacities: tuple[int, ...] = (),
    base_capacity: int | None = None,
    base_block_size: int = 64,
    base_associativity: int = 8,
    sample_rate: float = 1.0,
    warmup_fraction: float = 0.0,
):
    """Convenience wrapper: one :func:`mrc_pass` over a mix's trace."""
    setup = setup or ExperimentSetup()
    addresses, _, _ = materialized_columns(
        mix,
        accesses_per_core=setup.accesses_per_core,
        seed=setup.seed,
        footprint_scale=setup.footprint_scale,
        intensity_scale=setup.intensity_scale,
    )
    spec = MRCSpec(
        capacities=capacities,
        block_sizes=block_sizes,
        associativities=associativities,
        base_capacity=(
            base_capacity
            if base_capacity is not None
            else setup.system.dram_cache.capacity
        ),
        base_block_size=base_block_size,
        base_associativity=base_associativity,
        xy_capacities=xy_capacities,
        sample_rate=sample_rate,
        seed=setup.seed,
        warmup_fraction=warmup_fraction,
    )
    return mrc_pass(addresses, spec)
