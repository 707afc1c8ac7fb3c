import gc

import pytest
from hypothesis import given, settings, strategies as st

from nvwear import (CacheConfig, CacheState, ConfigError, MappingTable,
                    block_write_sd, decompose_address)

from nvwear.cache import AccessOutcome
from nvwear.metrics import population_sd
from nvwear.reference import replay_against_reference

from helpers import random_trace, replay_both, seeded, small_cfg


class TestCacheConfig:
    def test_default_geometry(self):
        cfg = CacheConfig()
        assert cfg.num_sets == 4096
        assert cfg.num_colors == 64
        assert cfg.sets_per_color == 64

    def test_small_geometry(self):
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        assert cfg.num_colors == 4
        assert cfg.num_sets == 16
        assert cfg.sets_per_color == 4

    @pytest.mark.parametrize("kwargs", [
        dict(cache_size_bytes=3 * 1024 * 1024),          # not a power of two
        dict(associativity=0),
        dict(block_size_bytes=48),
        dict(page_size_bytes=2 * 4 * 1024 * 1024),       # page > cache
        dict(block_size_bytes=8192, page_size_bytes=4096),
        dict(hit_read_latency=-1),
        dict(core_frequency_hz=0),
        dict(cache_size_bytes=(1 << 25) * 64, associativity=64),  # 2^25 blocks, 2^19 sets
        dict(cache_size_bytes=1 << 30, associativity=1),  # 2^24 blocks, 2^24 sets
    ])
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ConfigError):
            CacheConfig(**kwargs)

    def test_accepts_exactly_2_24_blocks(self):
        assert CacheConfig(cache_size_bytes=(1 << 24) * 64).num_sets == 1 << 20
        assert CacheConfig(cache_size_bytes=(1 << 24) * 128,
                           block_size_bytes=128).num_sets == 1 << 20

    def test_accepts_exactly_2_20_sets(self):
        assert CacheConfig(cache_size_bytes=(1 << 20) * 64, associativity=1).num_sets == 1 << 20
        with pytest.raises(ConfigError, match="2\\^20 sets"):
            CacheConfig(cache_size_bytes=(1 << 21) * 64, associativity=1)

    def test_rejects_zero_colors(self):
        # page * associativity exceeds the cache
        with pytest.raises(ConfigError):
            CacheConfig(cache_size_bytes=4096, associativity=4,
                        block_size_bytes=64, page_size_bytes=4096)


class TestDecompose:
    def test_zero_address(self):
        cfg = CacheConfig()
        assert decompose_address(0, cfg, MappingTable(64)) == (0, 0)

    def test_page_one_lands_in_second_color(self):
        cfg = CacheConfig()
        set_index, tag = decompose_address(cfg.page_size_bytes, cfg, MappingTable(64))
        assert set_index == 1 * cfg.sets_per_color + 0
        assert tag == 0

    def test_block_offset_picks_set_within_color(self):
        cfg = CacheConfig()
        addr = 3 * cfg.block_size_bytes + 5  # unaligned within block 3
        set_index, tag = decompose_address(addr, cfg, MappingTable(64))
        assert set_index == 3
        assert tag == 0

    def test_tag_excludes_region_bits(self):
        cfg = small_cfg(colors=4, sets_per_color=4)
        mapping = MappingTable(4)
        addr = 5 * cfg.page_size_bytes  # page 5 -> region 1, tag 1
        before = decompose_address(addr, cfg, mapping)
        mapping.swap(1, 3)
        after = decompose_address(addr, cfg, mapping)
        assert before[1] == after[1] == 1          # tag never moves
        assert before[0] // cfg.sets_per_color == 1
        assert after[0] // cfg.sets_per_color == 3  # set follows the color

    def test_rejects_wrong_map_size(self):
        cfg = small_cfg(colors=4)
        with pytest.raises(ConfigError):
            decompose_address(0, cfg, MappingTable(8))


class TestAccess:
    def test_cold_read_miss_fills(self):
        cache = CacheState(small_cfg())
        out = cache.access(0, 1, False)
        assert not out.hit and not out.evicted_dirty
        assert cache.write_counts[0][0] == 1  # fill programs the cells

    def test_cold_fill_not_counted_when_fills_off(self):
        cache = CacheState(small_cfg(), count_fills=False)
        cache.access(0, 1, False)
        assert cache.write_counts[0] == [0, 0]
        cache.access(0, 2, True)  # write miss still programs the block
        assert sorted(cache.write_counts[0]) == [0, 1]

    def test_write_then_write_hits_and_counts_two(self):
        cache = CacheState(small_cfg())
        first = cache.access(3, 7, True)
        second = cache.access(3, 7, True)
        assert not first.hit and second.hit
        assert cache.write_counts[3][0] == 2  # fill + write hit

    def test_latencies(self):
        # the engine prices each access by which shared outcome it returns and
        # by its own is_write; TestCycleAccounting in test_engine.py checks the
        # latency values
        cache = CacheState(small_cfg(assoc=1))
        hit, clean_miss, dirty_miss = cache.outcomes
        assert cache.access(0, 1, False) is clean_miss
        assert cache.access(0, 1, False) is hit
        assert cache.access(0, 1, True) is hit
        assert cache.access(0, 2, False) is dirty_miss

    def test_outcomes_are_immutable(self):
        cache = CacheState(small_cfg(assoc=1))
        outcomes = [cache.access(0, 1, True), cache.access(0, 2, False),
                    cache.access(0, 2, False), cache.access(0, 2, True),
                    cache.access(0, 3, False)]
        assert [(o.hit, o.evicted_dirty) for o in outcomes] == [
            (False, False), (False, True), (True, False), (True, False),
            (False, True)]
        for out in outcomes:
            with pytest.raises(AttributeError):
                out.hit = not out.hit
        assert not cache.access(0, 4, False).hit

    def test_lru_evicts_oldest_and_reports_dirty(self):
        # 2-way set: fill A dirty, fill B, then C must evict A
        cfg = small_cfg(assoc=2)
        cache = CacheState(cfg)
        cache.access(0, ord("A"), True)
        cache.access(0, ord("B"), False)
        out = cache.access(0, ord("C"), False)
        assert not out.hit and out.evicted_dirty
        assert cache.lru_order(0) == [ord("B"), ord("C")]
        # same sequence through the brute-force reference model
        page = cfg.page_size_bytes
        stride = cfg.num_colors * page  # same set, different tags
        trace = [(0 * stride, True), (1 * stride, False), (2 * stride, False)]
        ours, refs, _, _ = replay_both(cfg, trace)
        assert ours == refs == [(False, False), (False, False), (False, True)]

    def test_hit_promotes_to_mru(self):
        cfg = small_cfg(assoc=2)
        cache = CacheState(cfg)
        cache.access(0, 1, False)
        cache.access(0, 2, False)
        cache.access(0, 1, False)        # 1 becomes MRU again
        out = cache.access(0, 3, False)  # so 2 is the victim
        assert not out.hit
        assert cache.lru_order(0) == [1, 3]

    def test_evicted_dirty_implies_fill(self):
        rng = seeded(42)
        cfg = small_cfg(assoc=2)
        cache = CacheState(cfg)
        mapping = MappingTable(cfg.num_colors)
        for addr, is_write in random_trace(rng, 4000, 16, cfg.page_size_bytes,
                                           cfg.block_size_bytes):
            s, t = decompose_address(addr, cfg, mapping)
            out = cache.access(s, t, is_write)
            assert not (out.evicted_dirty and out.hit)

    def test_write_count_sum_matches_event_counts(self):
        for count_fills in (True, False):
            rng = seeded(13)
            cfg = small_cfg()
            cache = CacheState(cfg, count_fills=count_fills)
            mapping = MappingTable(cfg.num_colors)
            fills = write_miss_fills = write_hits = 0
            for addr, is_write in random_trace(rng, 5000, 16, cfg.page_size_bytes,
                                               cfg.block_size_bytes):
                s, t = decompose_address(addr, cfg, mapping)
                out = cache.access(s, t, is_write)
                fills += not out.hit
                write_miss_fills += is_write and not out.hit
                write_hits += is_write and out.hit
            total = sum(sum(row) for row in cache.write_counts)
            assert 0 < write_miss_fills < fills and write_hits > 0
            if count_fills:
                assert total == fills + write_hits
            else:
                assert total == write_miss_fills + write_hits


class TestSixteenWays:
    """The default geometry: 16 ways, so the dirty bytes of ways 8..15 count."""

    def test_flush_writes_back_every_dirty_way(self):
        cache = CacheState(CacheConfig())
        for tag in range(16):
            cache.access(0, tag, True)
        assert cache.flush_color(0) == 16
        assert cache.flush_color(0) == 0

    def test_each_victim_reports_its_own_ways_dirty_byte(self):
        cache = CacheState(CacheConfig())
        # ways 8..15 dirty when even, ways 0..7 dirty when odd: no way agrees
        # with the way eight below or above it
        dirty = [w % 2 != w // 8 for w in range(16)]
        for way in range(16):
            cache.access(0, way, dirty[way])
        for way in range(8):  # ways 8..15 become the least recently used
            assert cache.access(0, way, False).hit
        victims = [*range(8, 16), *range(8)]
        evicted = [cache.access(0, 100 + i, False).evicted_dirty for i in range(16)]
        assert evicted == [dirty[w] for w in victims]
        assert evicted[0]  # way 8 was dirty
        assert cache.flush_color(0) == 0  # the clean fills left no dirty byte


class TestFlush:
    def test_flush_empty_color(self):
        cache = CacheState(small_cfg())
        assert cache.flush_color(0) == 0
        for s in range(4):
            assert cache.lru_order(s) == []

    def test_flush_counts_only_dirty(self):
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        cache = CacheState(cfg)
        # color 0 spans sets 0..3: 3 dirty blocks, 5 clean ones
        dirty = [(0, 10), (1, 11), (2, 12)]
        clean = [(0, 20), (1, 21), (2, 22), (3, 23), (3, 24)]
        for s, t in dirty:
            cache.access(s, t, True)
        for s, t in clean:
            cache.access(s, t, False)
        before = [row[:] for row in cache.write_counts]
        assert cache.flush_color(0) == 3
        for s in range(4):
            assert cache.lru_order(s) == []
        assert cache.write_counts == before  # flushing never touches wear

    def test_flush_then_reaccess_misses(self):
        cfg = small_cfg()
        cache = CacheState(cfg)
        cache.access(0, 5, True)
        assert cache.access(0, 5, False).hit
        cache.flush_color(0)
        assert not cache.access(0, 5, False).hit

    def test_double_flush_returns_zero(self):
        cfg = small_cfg()
        cache = CacheState(cfg)
        for s in range(cfg.sets_per_color):
            cache.access(s, 9, True)
        assert cache.flush_color(0) == cfg.sets_per_color
        assert cache.flush_color(0) == 0

    def test_flush_rejects_bad_color(self):
        cache = CacheState(small_cfg(colors=4))
        with pytest.raises(ValueError):
            cache.flush_color(4)


class TestMaxBlockWrites:
    def test_fresh_cache(self):
        assert CacheState(small_cfg()).max_block_writes() == 0

    def test_single_hot_block(self):
        cache = CacheState(small_cfg())
        for _ in range(7):
            cache.access(2, 1, True)  # 1 fill + 6 write hits
        assert cache.max_block_writes() == 7

    def test_roundrobin_touches_every_block_twice(self):
        from nvwear import GeneratorSpec, generate
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        # 4 pages -> one page per region; every block resident, no evictions
        spec = GeneratorSpec(kind="roundrobin", num_events=2 * 4 * 4,
                             write_fraction=1.0, page_count=4)
        cache = CacheState(cfg)
        mapping = MappingTable(4)
        fills = write_hits = 0
        for ev in generate(spec, cfg):
            s, t = decompose_address(ev.addr, cfg, mapping)
            out = cache.access(s, t, ev.is_write)
            fills += not out.hit
            write_hits += out.hit and ev.is_write
        touched = [c for row in cache.write_counts for c in row if c > 0]
        assert len(touched) == 16 and set(touched) == {2}
        assert cache.max_block_writes() == 2
        assert fills == write_hits == 16
        assert sum(touched) == fills + write_hits


class TestDifferentialSmall:
    def test_traces_match_reference(self):
        rng = seeded(2024)
        for _ in range(60):
            colors = rng.choice((2, 4))
            spc = rng.choice((2, 4))
            assoc = rng.choice((1, 2, 4))
            cfg = small_cfg(colors=colors, sets_per_color=spc, assoc=assoc)
            count_fills = bool(rng.getrandbits(1))
            trace = random_trace(rng, rng.randint(50, 600), colors * 4,
                                 cfg.page_size_bytes, cfg.block_size_bytes)
            ours, refs, cache, ref = replay_both(cfg, trace, count_fills)
            assert ours == refs
            assert cache.write_counts == ref.write_count_matrix()

    def test_remaps_and_flushes_match_reference(self):
        rng = seeded(99)
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        blocks = cfg.page_size_bytes // cfg.block_size_bytes

        def schedule():
            for _ in range(4000):
                roll = rng.random()
                if roll < 0.02:
                    yield "remap", rng.randrange(4), rng.randrange(4)
                elif roll < 0.04:
                    yield "flush", rng.randrange(4)
                else:
                    yield ("access", rng.randrange(16) * cfg.page_size_bytes
                           + rng.randrange(blocks) * cfg.block_size_bytes,
                           bool(rng.getrandbits(1)))

        failure, outcomes, _, ref = replay_against_reference(cfg, schedule())
        assert failure is None
        assert ref.flush_writebacks > 0 and len(outcomes) > 3800


@st.composite
def _schedules(draw):
    """A small geometry, a fill-counting mode and a schedule of accesses,
    flushes and remaps for replay_against_reference."""
    colors, spc, assoc = (draw(st.sampled_from((1, 2, 4))) for _ in range(3))
    cfg = small_cfg(colors=colors, sets_per_color=spc, assoc=assoc)
    blocks = 4 * colors * spc  # four pages per region
    color = st.integers(0, colors - 1)
    op = st.one_of(
        st.tuples(st.just("access"),
                  st.integers(0, blocks - 1).map(lambda b: b * cfg.block_size_bytes),
                  st.booleans()),
        st.tuples(st.just("flush"), color),
        st.tuples(st.just("remap"), color, color))
    return cfg, draw(st.booleans()), draw(st.lists(op, max_size=120))


class TestFlatWriteCounters:
    """The counters live in one flat list; write_counts copies them out by set."""

    def test_write_counts_is_a_snapshot_of_the_reference_matrix(self):
        rng = seeded(31)
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=4)
        trace = random_trace(rng, 3000, 32, cfg.page_size_bytes, cfg.block_size_bytes)
        _, _, cache, ref = replay_both(cfg, trace)
        rows = cache.write_counts
        assert rows == ref.write_count_matrix()
        peak = cache.max_block_writes()
        for row in rows:
            row[0] += 10 * peak
        assert cache.max_block_writes() == peak
        assert cache.write_counts == ref.write_count_matrix()

    @settings(max_examples=150, deadline=None)
    @given(case=_schedules())
    def test_wear_summary_equals_the_rows_summary(self, case):
        cfg, count_fills, ops = case
        failure, _, cache, _ = replay_against_reference(cfg, ops, count_fills)
        assert failure is None
        rows = cache.write_counts
        assert len(rows) == cfg.num_sets
        assert cache.max_block_writes() == max(map(max, rows))
        assert block_write_sd(cache).hex() == population_sd(rows).hex()

    def test_default_cache_object_budget(self):
        cfg = CacheConfig()
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            cache = CacheState(cfg)
            created = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert cache.max_block_writes() == 0
        assert created <= 2 * cfg.num_sets + 16


class TestDifferentialHarnessFails:
    """replay_against_reference must report a divergence when production
    misbehaves; production is patched, the reference never is."""

    SCHEDULE = [("access", 0, True), ("access", 64, False), ("flush", 0),
                ("access", 0, False)]

    def test_names_the_first_differing_access(self, monkeypatch):
        real_access, calls = CacheState.access, []

        def flip_second_hit(self, set_index, tag, is_write):
            out = real_access(self, set_index, tag, is_write)
            calls.append(out)
            return AccessOutcome(not out.hit, out.evicted_dirty) if len(calls) == 2 else out

        monkeypatch.setattr(CacheState, "access", flip_second_hit)
        failure, outcomes, _, _ = replay_against_reference(small_cfg(), self.SCHEDULE)
        assert failure == "op 1: access(64, False) gave (True, False), reference (False, False)"
        assert len(outcomes) == 2

    def test_names_a_differing_flush(self, monkeypatch):
        real_flush = CacheState.flush_color
        monkeypatch.setattr(CacheState, "flush_color",
                            lambda self, color: real_flush(self, color) + 1)
        failure, _, _, _ = replay_against_reference(small_cfg(), self.SCHEDULE)
        assert failure == "op 2: flush(0,) gave 2, reference 1"

    def test_reports_differing_write_counts(self, monkeypatch):
        real_access = CacheState.access

        def count_one_more(self, set_index, tag, is_write):
            self._writes[set_index << self._way_bits] += 1
            return real_access(self, set_index, tag, is_write)

        monkeypatch.setattr(CacheState, "access", count_one_more)
        failure, outcomes, _, _ = replay_against_reference(small_cfg(), self.SCHEDULE)
        assert failure == "write count matrices differ"
        assert len(outcomes) == 3
