"""The shared-column family pass vs one reference walk per ghost.

:class:`repro.mrc.ghost.GhostPass` derives the (set, tag) and
region-tracker columns once per stream and runs identical models once.
The reference here is the per-ghost loop it replaced: each model
re-derives its own columns and trains its own tracker record by record.
Both ghost-family entry points — ``dse_estimate_cell`` and ``mrc_pass`` —
must give the same integers as that loop.
"""

import pytest

from repro.bimodal.sets import allowed_states
from repro.harness.runner import ExperimentSetup
from repro.mrc.dse import DesignPoint, DseEstimateCell, dse_estimate_cell
from repro.mrc.engine import MRCSpec, _pow2_scale, mrc_pass, sample_addresses
from repro.mrc.ghost import GhostBiModal, GhostCache, GhostPass
from repro.workloads.trace_cache import materialized_columns

SETUP = ExperimentSetup(num_cores=4, accesses_per_core=1500)
_TRACKER_ENTRIES = 4096


def _reference_lru(stream, capacity, associativity, block_size, warmup=0):
    """The per-ghost GhostCache.consume loop, on fresh state."""
    num_sets = capacity // (block_size * associativity)
    num_sets = 1 << (num_sets.bit_length() - 1)  # round down to a power of 2
    offset_bits = block_size.bit_length() - 1
    index_bits = num_sets.bit_length() - 1
    index_mask = num_sets - 1
    sets = [{} for _ in range(num_sets)]
    hits = accesses = issued = 0
    for address in stream:
        issued += 1
        if issued == warmup:
            hits = 0
            accesses = -issued + 1
        block = address >> offset_bits
        ways = sets[block & index_mask]
        tag = block >> index_bits
        if tag in ways:
            del ways[tag]
            ways[tag] = None
            hits += 1
        elif len(ways) >= associativity:
            del ways[next(iter(ways))]
            ways[tag] = None
        else:
            ways[tag] = None
    return hits, accesses + issued


def _reference_bimodal(
    stream, capacity, set_size, big_block_size, x, y, warmup=0, threshold=5
):
    """The per-ghost GhostBiModal.consume loop, on fresh state."""
    num_sets = capacity // set_size
    to_big = (big_block_size.bit_length() - 1) - 6
    sub_mask = (big_block_size // 64) - 1
    index_bits = num_sets.bit_length() - 1
    index_mask = num_sets - 1
    big_sets = [{} for _ in range(num_sets)]
    small_sets = [{} for _ in range(num_sets)]
    tracker = {}
    hits = accesses = issued = 0
    for address in stream:
        issued += 1
        if issued == warmup:
            hits = 0
            accesses = -issued + 1
        small_id = address >> 6
        big_id = small_id >> to_big
        index = big_id & index_mask
        big_tag = big_id >> index_bits
        mask = tracker.pop(big_id, 0) | (1 << (small_id & sub_mask))
        tracker[big_id] = mask
        if len(tracker) > _TRACKER_ENTRIES:
            del tracker[next(iter(tracker))]
        big = big_sets[index]
        if big_tag in big:
            del big[big_tag]
            big[big_tag] = None
            hits += 1
            continue
        small = small_sets[index]
        if y and small_id in small:
            del small[small_id]
            small[small_id] = None
            hits += 1
            continue
        if not y or bin(mask).count("1") >= threshold:
            if len(big) >= x:
                del big[next(iter(big))]
            big[big_tag] = None
        else:
            if len(small) >= y:
                del small[next(iter(small))]
            small[small_id] = None
    return hits, accesses + issued


def _reference_adaptive(stream, capacity, set_size, big_block_size, warmup=0):
    """Best (X, Y) state as ``(hits, accesses, x, y)`` (ties: first)."""
    best = None
    best_rate = -1.0
    for x, y in allowed_states(set_size, big_block_size):
        hits, accesses = _reference_bimodal(
            stream, capacity, set_size, big_block_size, x, y, warmup
        )
        rate = hits / accesses if accesses else 0.0
        if rate > best_rate:
            best, best_rate = (hits, accesses, x, y), rate
    return best


def _reference_rows(cell):
    addresses, _, _ = materialized_columns(
        cell.mix,
        accesses_per_core=cell.setup.accesses_per_core,
        seed=cell.setup.seed,
        footprint_scale=cell.setup.footprint_scale,
        intensity_scale=cell.setup.intensity_scale,
    )
    stream = sample_addresses(addresses, cell.sample_rate, cell.setup.seed)
    warmup = int(len(stream) * cell.warmup_fraction)
    rows = []
    for point in cell.space:
        capacity = point.cache_mb << 20
        if point.policy == "fixed":
            hits, accesses = _reference_lru(
                stream, capacity, point.associativity, point.block_size, warmup
            )
            rows.append([hits, accesses, 0, 0])
        else:
            rows.append(list(_reference_adaptive(
                stream,
                capacity,
                point.block_size * point.associativity,
                point.block_size,
                warmup,
            )))
    return rows


def _space(block_size):
    # Each fixed point is the Y == 0 state of the adaptive point beside
    # it, so the pass runs that model once and copies it.
    return tuple(
        DesignPoint(cache_mb, block_size, associativity, policy)
        for cache_mb, associativity in ((1, 4), (2, 8))
        for policy in ("fixed", "adaptive")
    )


class TestEstimateCellMatchesReference:
    @pytest.mark.parametrize("mix", ["Q2", "Q7"])
    @pytest.mark.parametrize("block_size", [256, 512, 1024])
    @pytest.mark.parametrize("sample_rate", [1.0, 0.25])
    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.5])
    def test_rows_are_integer_identical(
        self, mix, block_size, sample_rate, warmup_fraction
    ):
        cell = DseEstimateCell(
            mix=mix,
            setup=SETUP,
            space=_space(block_size),
            sample_rate=sample_rate,
            warmup_fraction=warmup_fraction,
        )
        assert dse_estimate_cell(cell) == _reference_rows(cell)


def _reference_curves(addresses, spec):
    """``mrc_pass`` rebuilt from reference walks: per-curve counts."""
    stream = sample_addresses(addresses, spec.sample_rate, spec.seed)
    warmup = int(len(stream) * spec.warmup_fraction)
    rate = spec.sample_rate

    def scaled(capacity, minimum):
        return capacity if rate >= 1.0 else _pow2_scale(capacity, rate, minimum)

    bb, ba = spec.base_block_size, spec.base_associativity
    curves = {
        "capacity": [
            (c, *_reference_lru(stream, scaled(c, bb * ba), ba, bb, warmup))
            for c in spec.capacities
        ],
        "block_size": [
            (b, *_reference_lru(
                stream, scaled(spec.base_capacity, b * ba), ba, b, warmup
            ))
            for b in spec.block_sizes
        ],
        "associativity": [
            (a, *_reference_lru(
                stream, scaled(spec.base_capacity, bb * a), a, bb, warmup
            ))
            for a in spec.associativities
        ],
    }
    xy, best_xy = [], {}
    for c in spec.xy_capacities:
        hits, accesses, x, y = _reference_adaptive(
            stream,
            scaled(c, spec.set_size),
            spec.set_size,
            spec.big_block_size,
            warmup,
        )
        xy.append((c, hits, accesses))
        best_xy[c] = (x, y)
    curves["xy"] = xy
    return curves, best_xy


class TestMrcPassMatchesReference:
    @pytest.mark.parametrize("mix", ["Q2", "Q7"])
    @pytest.mark.parametrize("sample_rate", [1.0, 0.25])
    @pytest.mark.parametrize("warmup_fraction", [0.0, 0.5])
    def test_curves_are_integer_identical(self, mix, sample_rate, warmup_fraction):
        addresses = SETUP.trace_records(mix).addresses
        spec = MRCSpec(
            capacities=(1 << 18, 1 << 20),
            block_sizes=(64, 256, 512, 1024),
            associativities=(1, 4, 29),
            base_capacity=1 << 20,
            base_associativity=4,
            # 2 KB sets of 512 B blocks: the 1 MB (4, 0) state is the
            # 512 B block-size point, so the pass runs that model once.
            xy_capacities=(1 << 20, 1 << 21),
            sample_rate=sample_rate,
            seed=5,
            warmup_fraction=warmup_fraction,
        )
        result = mrc_pass(addresses, spec)
        curves, best_xy = _reference_curves(addresses, spec)
        assert {
            name: [(p.param, p.hits, p.accesses) for p in points]
            for name, points in result.curves().items()
        } == curves
        assert result.best_xy == best_xy


class TestGhostPass:
    def test_identical_fresh_models_share_one_walk(self):
        # A fresh Y == 0 bi-modal ghost is its geometry's LRU cache: the
        # pass walks one of them and gives the other the same state, so
        # both must keep evolving identically afterwards.
        stream = SETUP.trace_records("Q2").addresses.tolist()
        cut = len(stream) // 2
        plain = GhostCache(1 << 20, 4, 512)
        bimodal = GhostBiModal(
            1 << 20, set_size=2048, big_block_size=512, big_ways=4, small_ways=0
        )
        GhostPass(stream[:cut]).drive([plain, bimodal])
        assert (bimodal.hits, bimodal.accesses) == (plain.hits, plain.accesses)
        plain.consume(stream[cut:])
        bimodal.consume(stream[cut:])
        assert (bimodal.hits, bimodal.accesses) == _reference_lru(
            stream, 1 << 20, 4, 512
        )
        assert (plain.hits, plain.accesses) == (bimodal.hits, bimodal.accesses)

    def test_drive_equals_consume_one_by_one(self):
        stream = SETUP.trace_records("Q7").addresses.tolist()
        warmup = len(stream) // 2

        def family():
            return [
                GhostCache(1 << 20, 8, 256),
                GhostCache(1 << 20, 4, 1024),
                GhostBiModal(
                    1 << 20, set_size=2048, big_block_size=512,
                    big_ways=3, small_ways=8,
                ),
                GhostBiModal(
                    1 << 20, set_size=2048, big_block_size=512,
                    big_ways=4, small_ways=0,
                ),
            ]

        together = family()
        GhostPass(stream, warmup).drive(together)
        apart = family()
        for ghost in apart:
            ghost.consume(stream, warmup)
        assert [(g.hits, g.accesses) for g in together] == [
            (g.hits, g.accesses) for g in apart
        ]

    def test_trackers_with_different_histories_train_apart(self):
        # Same grain, different starting trackers: no shared column.
        stream = SETUP.trace_records("Q2").addresses.tolist()
        cut = len(stream) // 2

        def ghost():
            return GhostBiModal(
                1 << 20, set_size=2048, big_block_size=512,
                big_ways=2, small_ways=16,
            )

        warm, cold = ghost(), ghost()
        warm.consume(stream[:cut])
        GhostPass(stream[cut:]).drive([warm, cold])
        warm_alone, cold_alone = ghost(), ghost()
        warm_alone.consume(stream[:cut])
        warm_alone.consume(stream[cut:])
        cold_alone.consume(stream[cut:])
        assert (warm.hits, warm.accesses) == (warm_alone.hits, warm_alone.accesses)
        assert (cold.hits, cold.accesses) == (cold_alone.hits, cold_alone.accesses)

    def test_a_used_twin_is_walked_not_copied(self):
        # Only fresh twins share a walk; one with history runs its own.
        stream = SETUP.trace_records("Q7").addresses.tolist()
        cut = len(stream) // 2
        fresh = GhostCache(1 << 20, 4, 512)
        used = GhostBiModal(
            1 << 20, set_size=2048, big_block_size=512, big_ways=4, small_ways=0
        )
        used.consume(stream[:cut])
        GhostPass(stream[cut:]).drive([fresh, used])
        assert (fresh.hits, fresh.accesses) == _reference_lru(
            stream[cut:], 1 << 20, 4, 512
        )
        assert (used.hits, used.accesses) == _reference_lru(stream, 1 << 20, 4, 512)

    @pytest.mark.parametrize("warmup", ["1", "2", "n", "n+1"])
    def test_warmup_at_the_stream_edges(self, warmup):
        # A reset before the first record leaves an empty first segment;
        # one at the last record leaves a single measured record.
        stream = SETUP.trace_records("Q2").addresses.tolist()[:3000]
        n = len(stream)
        warmup = {"1": 1, "2": 2, "n": n, "n+1": n + 1}[warmup]
        lru = GhostCache(1 << 19, 4, 256)
        bimodal = GhostBiModal(
            1 << 19, set_size=4096, big_block_size=1024, big_ways=3, small_ways=16
        )
        GhostPass(stream, warmup).drive([lru, bimodal])
        assert (lru.hits, lru.accesses) == _reference_lru(
            stream, 1 << 19, 4, 256, warmup
        )
        assert (bimodal.hits, bimodal.accesses) == _reference_bimodal(
            stream, 1 << 19, 4096, 1024, 3, 16, warmup
        )

    def test_a_ghost_twice_is_rejected(self):
        ghost = GhostCache(1 << 20, 4, 64)
        with pytest.raises(ValueError, match="only once"):
            GhostPass([0, 64]).drive([ghost, ghost])
