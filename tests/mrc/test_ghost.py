"""Ghost caches vs the reference timing structures (exactness pins).

GhostCache claims to be an algorithmic restatement of set-associative
LRU, not an approximation — these tests pin the hit/access integers
against :class:`repro.sram.cache.SetAssociativeCache` on real mix
traces, plus the GhostBiModal Y == 0 degeneracy and the warm-up
counter contract the dse driver relies on.
"""

import pytest

from repro.bimodal.sets import allowed_states
from repro.harness.runner import ExperimentSetup
from repro.mrc.ghost import AdaptiveGhost, GhostBiModal, GhostCache
from repro.sram.cache import SetAssociativeCache

SETUP = ExperimentSetup(num_cores=4, accesses_per_core=1500)


@pytest.fixture(scope="module")
def stream():
    return SETUP.trace_records("Q2").addresses.tolist()


def _reference_counts(stream, capacity, associativity, block_size):
    cache = SetAssociativeCache(capacity, associativity, block_size, policy="lru")
    for address in stream:
        cache.access(address)
    return cache.accesses.hits, cache.accesses.total


class TestGhostCacheExactness:
    @pytest.mark.parametrize("block_size", [64, 256, 1024])
    def test_matches_reference_lru_across_block_sizes(self, stream, block_size):
        capacity = SETUP.system.dram_cache.capacity
        ghost = GhostCache(capacity, 8, block_size)
        ghost.consume(stream)
        assert (ghost.hits, ghost.accesses) == _reference_counts(
            stream, capacity, 8, block_size
        )

    @pytest.mark.parametrize("associativity", [1, 4, 16])
    def test_matches_reference_lru_across_associativities(
        self, stream, associativity
    ):
        capacity = 1 << 20  # small enough to force evictions
        ghost = GhostCache(capacity, associativity, 64)
        ghost.consume(stream)
        assert (ghost.hits, ghost.accesses) == _reference_counts(
            stream, capacity, associativity, 64
        )

    def test_access_and_consume_agree(self, stream):
        one_by_one = GhostCache(1 << 20, 4, 64)
        for address in stream:
            one_by_one.access(address)
        batched = GhostCache(1 << 20, 4, 64)
        batched.consume(stream)
        assert (one_by_one.hits, one_by_one.accesses) == (
            batched.hits,
            batched.accesses,
        )

    def test_miss_rate_matches_reference_division(self, stream):
        # The Figure 1 rewire requires misses/total bit-for-bit.
        capacity = SETUP.system.dram_cache.capacity
        ghost = GhostCache(capacity, 8, 512)
        ghost.consume(stream)
        reference = SetAssociativeCache(capacity, 8, 512, policy="lru")
        for address in stream:
            reference.access(address)
        assert ghost.miss_rate == reference.accesses.miss_rate


class TestWarmup:
    def test_counters_restart_at_warmup_record(self, stream):
        warmup = len(stream) // 2
        ghost = GhostCache(1 << 20, 4, 64)
        ghost.consume(stream, warmup)
        # The warmup-th record is the first measured one.
        assert ghost.accesses == len(stream) - warmup + 1
        assert 0 <= ghost.hits <= ghost.accesses

    def test_warmup_keeps_contents(self, stream):
        # Warm contents must survive the counter reset: a warmed ghost
        # cannot measure fewer hits than a cold one over the same tail.
        warmup = len(stream) // 2
        warmed = GhostCache(1 << 22, 8, 64)
        warmed.consume(stream, warmup)
        cold = GhostCache(1 << 22, 8, 64)
        cold.consume(stream[warmup - 1:])
        assert warmed.accesses == cold.accesses
        assert warmed.hits >= cold.hits

    def test_zero_warmup_counts_everything(self, stream):
        ghost = GhostCache(1 << 20, 4, 64)
        ghost.consume(stream, 0)
        assert ghost.accesses == len(stream)


class TestGhostBiModal:
    def test_y_zero_degenerates_to_big_block_lru(self, stream):
        # With no small ways every fill is a 512 B block: the bi-modal
        # set is plain X-way LRU at the big-block grain.
        capacity = 1 << 20
        bimodal = GhostBiModal(
            capacity, set_size=2048, big_block_size=512, big_ways=4, small_ways=0
        )
        bimodal.consume(stream)
        plain = GhostCache(capacity, 4, 512)
        plain.consume(stream)
        assert (bimodal.hits, bimodal.accesses) == (plain.hits, plain.accesses)

    def test_disallowed_state_rejected(self):
        with pytest.raises(ValueError, match="not an allowed state"):
            GhostBiModal(
                1 << 20, set_size=2048, big_block_size=512, big_ways=4, small_ways=1
            )

    def test_warmup_contract_matches_ghost_cache(self, stream):
        warmup = len(stream) // 2
        ghost = GhostBiModal(
            1 << 20, set_size=2048, big_block_size=512, big_ways=2, small_ways=16
        )
        ghost.consume(stream, warmup)
        assert ghost.accesses == len(stream) - warmup + 1


class TestCallContinuity:
    """Two ``consume`` calls must equal one call over the joined stream.

    Tracker state and LRU contents carry across calls; the shared-column
    pass must pick them up rather than restart from a fresh tracker.
    """

    @pytest.mark.parametrize("state", [(4, 0), (3, 8), (2, 16)])
    def test_bimodal_split_stream(self, stream, state):
        x, y = state
        cut = len(stream) // 3
        whole = GhostBiModal(
            1 << 20, set_size=2048, big_block_size=512, big_ways=x, small_ways=y
        )
        whole.consume(stream)
        split = GhostBiModal(
            1 << 20, set_size=2048, big_block_size=512, big_ways=x, small_ways=y
        )
        split.consume(stream[:cut])
        split.consume(stream[cut:])
        assert (split.hits, split.accesses) == (whole.hits, whole.accesses)

    def test_adaptive_split_stream(self, stream):
        cut = len(stream) // 3
        whole = AdaptiveGhost(1 << 20, set_size=2048, big_block_size=512)
        whole.consume(stream)
        split = AdaptiveGhost(1 << 20, set_size=2048, big_block_size=512)
        split.consume(stream[:cut])
        split.consume(stream[cut:])
        assert {s: (g.hits, g.accesses) for s, g in split.ghosts.items()} == {
            s: (g.hits, g.accesses) for s, g in whole.ghosts.items()
        }
        assert split.best_state == whole.best_state

    def test_adaptive_split_stream_with_warmup(self, stream):
        # A reset inside the second call keeps what the first call
        # trained: the counts equal one call resetting at that record.
        cut = len(stream) // 3
        warmup = len(stream) // 4
        whole = AdaptiveGhost(1 << 20, set_size=2048, big_block_size=512)
        whole.consume(stream, cut + warmup)
        split = AdaptiveGhost(1 << 20, set_size=2048, big_block_size=512)
        split.consume(stream[:cut])
        split.consume(stream[cut:], warmup)
        assert {s: (g.hits, g.accesses) for s, g in split.ghosts.items()} == {
            s: (g.hits, g.accesses) for s, g in whole.ghosts.items()
        }


class TestAdaptiveGhost:
    def test_reports_the_best_fixed_state(self, stream):
        adaptive = AdaptiveGhost(1 << 20, set_size=2048, big_block_size=512)
        adaptive.consume(stream)
        rates = {s: g.hit_rate for s, g in adaptive.ghosts.items()}
        assert adaptive.hit_rate == max(rates.values())
        assert adaptive.best_state in allowed_states(2048, 512)
        assert rates[adaptive.best_state] == adaptive.hit_rate

    def test_covers_every_allowed_state(self):
        adaptive = AdaptiveGhost(1 << 20, set_size=2048, big_block_size=512)
        assert set(adaptive.ghosts) == set(allowed_states(2048, 512))


class TestValidation:
    def test_non_power_of_two_capacity_rejected(self):
        with pytest.raises(ValueError, match="powers of two"):
            GhostCache(3 << 20, 8, 64)

    def test_capacity_below_one_set_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            GhostCache(1 << 10, 8, 512)

    def test_bad_associativity_rejected(self):
        with pytest.raises(ValueError, match="associativity"):
            GhostCache(1 << 20, 0, 64)

    def test_non_pow2_set_count_rounds_down_and_flags(self):
        # Loh-Hill's 29 ways: 1 MiB / (64 B * 29) = 565 sets -> 512.
        ghost = GhostCache(1 << 20, 29, 64)
        assert ghost.approximate
        assert ghost.num_sets == 512

    def test_empty_ghost_rates_are_zero(self):
        ghost = GhostCache(1 << 20, 8, 64)
        assert ghost.hit_rate == 0.0
        assert ghost.miss_rate == 0.0
