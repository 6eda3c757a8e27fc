"""Tag-only ghost caches: the functional models behind the MRC engine.

A ghost cache keeps *only* the tag/recency state of an organization —
no data, no timing, no bank model. One materialized trace can therefore
be driven through dozens of ghost configurations for less than the cost
of a single timing simulation (``docs/dse.md``).

Two models cover the design space the paper sweeps:

* :class:`GhostCache` — set-associative LRU at an arbitrary
  (capacity, associativity, block size). Its hit/miss sequence is
  **exactly** that of :class:`repro.sram.cache.SetAssociativeCache`
  with the LRU policy (pinned by tests/mrc/test_ghost.py), because
  both allocate on miss, fill empty ways first and evict the
  least-recently-used way. Figure 1 runs on this model.
* :class:`GhostBiModal` — a fixed-(X, Y) bi-modal set (X big ways,
  Y small ways, the states of :func:`repro.bimodal.sets.allowed_states`)
  with a region-utilization predictor deciding miss-fill size, LRU
  within each way class. It *approximates* the timing model's
  random-not-recent replacement with LRU (the accuracy bound is
  measured and documented in ``docs/dse.md``).

Every ``consume`` — one ghost's or a whole family's — runs through
:class:`GhostPass`. It derives each per-record column once from
the address stream and shares it among the ghosts that need it:

* the (set index, tag) columns, once per (block size, set count), with
  numpy shifts and masks, put in set order and cut into runs of one
  block (see :class:`GhostPass`), so a resident block's repeat
  accesses cost one probe;
* the region tracker's post-training popcount, once per big-block size
  and starting tracker state — the tracker depends on nothing else, so
  every (X, Y) state of every adaptive point reads one column;
* identical fresh models run once: a ``Y == 0`` :class:`GhostBiModal`
  *is* the :class:`GhostCache` of its geometry.

What is left per model is the dict probes and LRU moves.

Determinism: ghost state is a pure function of the address stream —
no wall clock, no ambient entropy (the ``determinism`` simlint rule
covers this package; sampling randomness lives in
:mod:`repro.mrc.engine` and derives from the request seed).
"""

from __future__ import annotations

import numpy as np

from repro.bimodal.sets import allowed_states
from repro.common.addressing import is_power_of_two, log2_int

__all__ = [
    "AdaptiveGhost",
    "GhostBiModal",
    "GhostCache",
    "GhostPass",
    "best_xy_state",
]


class GhostCache:
    """Tag-only set-associative LRU cache.

    Per-set state is one insertion-ordered dict mapping tag -> None:
    dict order *is* recency order (hits re-insert their tag), so a hit
    probe, an LRU eviction and a fill are all O(1). A set's dict is
    created when a record first maps to it, so untouched sets cost
    nothing. ``consume`` is the batch entry point (see
    :class:`GhostPass`); ``access`` probes one address.

    Non-power-of-two associativities (Loh-Hill's 29 ways) round the set
    count *down* to a power of two, slightly over-provisioning each set;
    ``approximate`` records that the geometry was adjusted.
    """

    __slots__ = (
        "capacity",
        "associativity",
        "block_size",
        "num_sets",
        "approximate",
        "hits",
        "accesses",
        "_offset_bits",
        "_index_mask",
        "_index_bits",
        "_sets",
    )

    def __init__(
        self, capacity: int, associativity: int, block_size: int = 64
    ) -> None:
        if not is_power_of_two(capacity) or not is_power_of_two(block_size):
            raise ValueError("capacity and block_size must be powers of two")
        if associativity < 1:
            raise ValueError("associativity must be >= 1")
        num_sets = capacity // (block_size * associativity)
        if num_sets < 1:
            raise ValueError(
                f"capacity {capacity} too small for {associativity} ways "
                f"of {block_size} B blocks"
            )
        self.approximate = not is_power_of_two(num_sets)
        if self.approximate:
            num_sets = 1 << (num_sets.bit_length() - 1)
        self.capacity = capacity
        self.associativity = associativity
        self.block_size = block_size
        self.num_sets = num_sets
        self._offset_bits = log2_int(block_size)
        self._index_bits = log2_int(num_sets)
        self._index_mask = num_sets - 1
        self._sets: dict[int, dict[int, None]] = {}
        self.hits = 0
        self.accesses = 0

    def access(self, address: int) -> bool:
        """Probe/allocate one address; True on hit."""
        block = address >> self._offset_bits
        ways = self._sets.setdefault(block & self._index_mask, {})
        tag = block >> self._index_bits
        self.accesses += 1
        if tag in ways:
            del ways[tag]
            ways[tag] = None
            self.hits += 1
            return True
        if len(ways) >= self.associativity:
            del ways[next(iter(ways))]
        ways[tag] = None
        return False

    def consume(self, addresses, warmup: int = 0) -> None:
        """Drive a whole address batch.

        ``warmup`` > 0 resets the hit/access counters immediately
        before the ``warmup``-th record is issued (contents and recency
        are kept), mirroring the timing drive's warm-up semantics.
        """
        GhostPass(addresses, warmup).drive((self,))

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        # (accesses - hits)/accesses, matching RateStat.miss_rate's
        # misses/total arithmetic bit-for-bit (same division).
        if not self.accesses:
            return 0.0
        return (self.accesses - self.hits) / self.accesses


#: Region-utilization predictor geometry shared by the bi-modal ghosts:
#: a bounded recency-ordered table of big-block regions -> 64 B used
#: masks. Small and fixed — the SRAM tracker it stands in for is too.
_TRACKER_ENTRIES = 4096


class GhostBiModal:
    """Fixed-(X, Y) bi-modal set model: X big ways + Y small (64 B) ways.

    A hit is residency in either way class. A miss consults the ghost's
    region-utilization predictor, trained on every access: a region
    whose observed 64 B-use count has reached ``utilization_threshold``
    fills a big block, otherwise a single small block (the paper's fill
    policy, Section III). With ``Y == 0`` every fill is big and the
    model degenerates to :class:`GhostCache` at the big-block grain
    (pinned by tests; :class:`GhostPass` runs it as one).

    Replacement within each class is LRU — an approximation of the
    timing model's random-not-recent choice; see the module docstring.
    """

    __slots__ = (
        "capacity",
        "set_size",
        "big_block_size",
        "big_ways",
        "small_ways",
        "utilization_threshold",
        "hits",
        "accesses",
        "_big_offset_bits",
        "_small_to_big_bits",
        "_index_bits",
        "_big",
        "_small",
        "_tracker",
    )

    def __init__(
        self,
        capacity: int,
        *,
        set_size: int = 2048,
        big_block_size: int = 512,
        big_ways: int,
        small_ways: int,
        utilization_threshold: int = 5,
    ) -> None:
        if not is_power_of_two(capacity) or not is_power_of_two(set_size):
            raise ValueError("capacity and set_size must be powers of two")
        if (big_ways, small_ways) not in allowed_states(set_size, big_block_size):
            raise ValueError(
                f"({big_ways}, {small_ways}) is not an allowed state for "
                f"{set_size} B sets of {big_block_size} B blocks"
            )
        num_sets = capacity // set_size
        if num_sets < 1 or not is_power_of_two(num_sets):
            raise ValueError("capacity/set_size must be a power-of-two set count")
        self.capacity = capacity
        self.set_size = set_size
        self.big_block_size = big_block_size
        self.big_ways = big_ways
        self.small_ways = small_ways
        self.utilization_threshold = utilization_threshold
        self._big_offset_bits = log2_int(big_block_size)
        self._small_to_big_bits = log2_int(big_block_size) - 6
        self._index_bits = log2_int(num_sets)
        self._big: dict[int, dict[int, None]] = {}
        self._small: dict[int, dict[int, None]] = {}
        self._tracker: dict[int, int] = {}
        self.hits = 0
        self.accesses = 0

    def consume(self, addresses, warmup: int = 0) -> None:
        """Drive a whole address batch through the bi-modal set model."""
        GhostPass(addresses, warmup).drive((self,))

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        if not self.accesses:
            return 0.0
        return (self.accesses - self.hits) / self.accesses


class AdaptiveGhost:
    """Bi-modal *adaptive* estimate: the best fixed-(X, Y) ghost.

    The timing model re-partitions each set toward the best-performing
    (X, Y) state; its steady-state hit rate is therefore bracketed by
    the best fixed state. This composite drives one ghost per allowed
    state and reports the maximum — which doubles as the (X, Y)
    occupancy estimate of the sweep (``best_state``).
    """

    __slots__ = ("ghosts",)

    def __init__(
        self,
        capacity: int,
        *,
        set_size: int = 2048,
        big_block_size: int = 512,
        utilization_threshold: int = 5,
    ) -> None:
        self.ghosts: dict[tuple[int, int], GhostBiModal] = {
            (x, y): GhostBiModal(
                capacity,
                set_size=set_size,
                big_block_size=big_block_size,
                big_ways=x,
                small_ways=y,
                utilization_threshold=utilization_threshold,
            )
            for x, y in allowed_states(set_size, big_block_size)
        }

    def consume(self, addresses, warmup: int = 0) -> None:
        GhostPass(addresses, warmup).drive((self,))

    @property
    def best(self) -> GhostBiModal:
        return max(self.ghosts.values(), key=lambda g: g.hit_rate)

    @property
    def best_state(self) -> tuple[int, int]:
        return best_xy_state(self.ghosts)

    @property
    def hits(self) -> int:
        return self.best.hits

    @property
    def accesses(self) -> int:
        return self.best.accesses

    @property
    def hit_rate(self) -> float:
        return self.best.hit_rate

    @property
    def miss_rate(self) -> float:
        return self.best.miss_rate


def best_xy_state(ghosts: dict[tuple[int, int], GhostBiModal]) -> tuple[int, int]:
    """The (X, Y) state with the highest estimated hit rate (ties: first)."""
    best = None
    best_rate = -1.0
    for state, ghost in ghosts.items():
        if ghost.hit_rate > best_rate:
            best = state
            best_rate = ghost.hit_rate
    if best is None:
        raise ValueError("no ghost states to choose from")
    return best


# ----------------------------------------------------------------------
# the family pass
# ----------------------------------------------------------------------
class GhostPass:
    """One address stream, prepared once for any number of ghosts.

    ``GhostPass(addresses, warmup).drive(ghosts)`` leaves every ghost
    with the result, state and counters of ``for g in ghosts:
    g.consume(addresses, warmup)`` — an :class:`AdaptiveGhost` counts as
    its states — including tracker state and LRU contents carried into
    later calls. The columns it derives are shared:

    * tracker popcounts, per (big-block grain, starting tracker state),
      for the life of the pass;
    * set-ordered runs (below), per geometry within one ``drive`` call,
      dropped once that geometry's models are done.

    A caller with many large ghosts can therefore drive them one
    geometry group per call and release each group in between, while
    the tracker is still trained once per grain.

    Sets never interact, so a model may visit the records set by set,
    keeping each set's own order: every set sees the same sequence and
    ends in the same state. In that order, consecutive records of one
    block form a *run*. Once a run's block is resident, the rest of the
    run are hits that leave the set as it is (the block is already most
    recent), so a walk pays one probe for them. The warm-up reset
    splits the records into two segments, ordered separately.
    """

    __slots__ = ("_stream", "_n", "_cut", "_segments", "_trained")

    def __init__(self, addresses, warmup: int = 0) -> None:
        self._stream = np.asarray(addresses, dtype=np.uint64)
        n = self._n = len(self._stream)
        # Records issued before the warm-up counter reset (None: no reset).
        self._cut = cut = warmup - 1 if 0 < warmup <= n else None
        self._segments = [slice(0, n)] if cut is None else [slice(0, cut), slice(cut, n)]
        self._trained: dict = {}

    def drive(self, ghosts) -> None:
        """Drive ``ghosts`` (any mix of the three models) over the stream."""
        models: list = []
        for ghost in ghosts:
            if isinstance(ghost, AdaptiveGhost):
                models.extend(ghost.ghosts.values())
            else:
                models.append(ghost)
        if len(set(models)) != len(models):
            raise ValueError("a ghost may appear only once per drive")
        geometries: dict[tuple[int, int], list] = {}
        for model in models:
            if isinstance(model, GhostCache):
                key = (model._offset_bits, model._index_bits)
            else:
                key = (model._big_offset_bits, model._index_bits)
            geometries.setdefault(key, []).append(model)
        for (offset_bits, index_bits), group in geometries.items():
            self._drive_geometry(offset_bits, index_bits, group)

    def _drive_geometry(self, offset_bits: int, index_bits: int, group: list) -> None:
        stream, n, cut = self._stream, self._n, self._cut
        blocks = stream >> np.uint64(offset_bits)
        touched, position = _touched_sets(blocks & np.uint64((1 << index_bits) - 1))
        runs = [_Runs(blocks[s], position[s], index_bits) for s in self._segments]
        small_ids = None
        counts: dict = {}  # tracker key -> popcounts per segment, in run order
        walked: dict[int, object] = {}  # ways -> fresh LRU model already run
        for model in group:
            bimodal = isinstance(model, GhostBiModal)
            if bimodal:  # every bi-modal tracker trains, Y == 0 included
                key, column = self._tracker_column(model)
            if bimodal and model.small_ways:
                if small_ids is None:
                    small_ids = [
                        (stream[s] >> np.uint64(6))[segment.order].tolist()
                        for s, segment in zip(self._segments, runs)
                    ]
                if key not in counts:
                    counts[key] = [
                        popcounts[segment.order].tolist()
                        for popcounts, segment in zip(column, runs)
                    ]
                big = _resident(model._big, touched)
                small = _resident(model._small, touched)
                hits = [
                    _walk_bimodal(
                        big,
                        small,
                        model.big_ways,
                        model.small_ways,
                        model.utilization_threshold,
                        segment.sets,
                        segment.tags,
                        segment.bounds,
                        segment_ids,
                        segment_counts,
                    )
                    for segment, segment_ids, segment_counts in zip(
                        runs, small_ids, counts[key]
                    )
                ]
                _settle(model, hits, n, cut)
                continue
            # Plain LRU: a GhostCache, or a Y == 0 bi-modal ghost.
            resident, ways = _lru_state(model)
            fresh = model.accesses == 0
            if fresh and ways in walked:
                _copy_lru(walked[ways], model)
                continue
            resident = _resident(resident, touched)
            hits = [
                _walk_lru(resident, ways, segment.sets, segment.tags, segment.lengths)
                for segment in runs
            ]
            _settle(model, hits, n, cut)
            if fresh:
                walked[ways] = model

    def _tracker_column(self, model: GhostBiModal) -> tuple:
        """``model``'s tracker key and popcounts, training its tracker.

        The region tracker is a function of the address stream, the
        big-block grain and its starting contents only, so models that
        agree on those share one training walk: the first trains its own
        tracker, the rest receive copies. ``mask.bit_count()`` is the
        used-64 B count the fill decision compares to its threshold.
        """
        to_big = model._small_to_big_bits
        key = (to_big, tuple(model._tracker.items()))
        if key in self._trained:
            tracker, column = self._trained[key]
            model._tracker = dict(tracker)
        else:
            popcounts = np.array(_train(model._tracker, self._stream, to_big), dtype=np.uint8)
            column = [popcounts[s] for s in self._segments]
            self._trained[key] = (dict(model._tracker), column)
        return key, column


def _settle(model, hits: list[int], n: int, cut: int | None) -> None:
    """Fold per-segment hit counts into the model's counters."""
    if cut is None:
        model.hits += hits[0]
        model.accesses += n
    else:  # counters restart at the warm-up record
        model.hits = hits[1]
        model.accesses = n - cut


def _touched_sets(index) -> tuple[list[int], np.ndarray]:
    """The distinct set indices of a column, and the column as positions.

    Positions index the returned list, so a walk reaches each set's dict
    with one list subscript and only sets the stream touches exist.
    """
    present = np.zeros(int(index.max()) + 1 if len(index) else 0, dtype=bool)
    present[index] = True
    position = np.cumsum(present) - 1
    return np.flatnonzero(present).tolist(), position[index]


class _Runs:
    """One segment's records in set order, cut into same-block runs.

    ``order`` permutes the segment's records into set order; run ``k``
    covers permuted records ``bounds[k]:bounds[k + 1]`` (``lengths[k]``
    of them), all in set position ``sets[k]`` with tag ``tags[k]``.
    """

    __slots__ = ("order", "sets", "tags", "bounds", "lengths")

    def __init__(self, blocks, position, index_bits: int) -> None:
        self.order = np.argsort(position, kind="stable")
        ordered = blocks[self.order]
        first = np.ones(len(ordered), dtype=bool)
        first[1:] = ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(first)
        bounds = np.append(starts, len(ordered))
        self.sets = position[self.order][starts].tolist()
        self.tags = (ordered[starts] >> np.uint64(index_bits)).tolist()
        self.bounds = bounds.tolist()
        self.lengths = np.diff(bounds).tolist()


def _resident(sets: dict[int, dict[int, None]], touched: list[int]) -> list:
    """``sets``' dicts at the ``touched`` indices, created empty if new."""
    return [sets.setdefault(s, {}) for s in touched]


def _lru_state(model) -> tuple[dict[int, dict[int, None]], int]:
    if isinstance(model, GhostCache):
        return model._sets, model.associativity
    return model._big, model.big_ways


def _copy_lru(source, target) -> None:
    """Give fresh ``target`` the state ``source`` reached on the stream."""
    sets = {index: dict(ways) for index, ways in _lru_state(source)[0].items()}
    if isinstance(target, GhostCache):
        target._sets = sets
    else:
        target._big = sets
    target.hits = source.hits
    target.accesses = source.accesses


def _train(tracker: dict[int, int], stream, to_big: int) -> list[int]:
    """Train ``tracker`` on every record; each record's used-64 B count.

    The tracker is a bounded LRU table of big-block region -> mask of
    the 64 B sub-blocks seen.
    """
    small = stream >> np.uint64(6)
    regions = (small >> np.uint64(to_big)).tolist()
    bits = (np.uint64(1) << (small & np.uint64((1 << to_big) - 1))).tolist()
    counts = []
    append = counts.append
    for region, bit in zip(regions, bits):
        mask = tracker.pop(region, 0) | bit
        tracker[region] = mask
        if len(tracker) > _TRACKER_ENTRIES:
            del tracker[next(iter(tracker))]
        append(mask.bit_count())
    return counts


def _walk_lru(sets, ways: int, index: list[int], tags: list[int], lengths: list[int]) -> int:
    """LRU probe/fill of every run; returns the hits."""
    hits = 0
    for i, tag, length in zip(index, tags, lengths):
        resident = sets[i]
        if tag in resident:
            del resident[tag]
            resident[tag] = None
            hits += length
        else:
            if len(resident) >= ways:
                del resident[next(iter(resident))]
            resident[tag] = None
            hits += length - 1
    return hits


def _walk_bimodal(
    big_sets,
    small_sets,
    x: int,
    y: int,
    threshold: int,
    index: list[int],
    tags: list[int],
    bounds: list[int],
    small_ids: list[int],
    counts: list[int],
) -> int:
    """Bi-modal probe/fill (``y`` > 0) of every run; returns the hits."""
    hits = 0
    start = 0
    for i, tag, end in zip(index, tags, bounds[1:]):
        big = big_sets[i]
        if tag in big:
            del big[tag]
            big[tag] = None
            hits += end - start
            start = end
            continue
        small = small_sets[i]
        for k in range(start, end):
            small_id = small_ids[k]
            if small_id in small:
                del small[small_id]
                small[small_id] = None
                hits += 1
            elif counts[k] >= threshold:
                # Dense region: fill the big block; the run's rest hit it.
                if len(big) >= x:
                    del big[next(iter(big))]
                big[tag] = None
                hits += end - k - 1
                break
            else:
                if len(small) >= y:
                    del small[next(iter(small))]
                small[small_id] = None
        start = end
    return hits
