import pytest

from nvwear import CacheConfig, CacheState, ConfigError, MappingTable, decompose_address

from helpers import seeded, small_cfg


class TestNumColors:
    def test_reference_llc_has_64_colors(self):
        cfg = CacheConfig(cache_size_bytes=4 * 1024 * 1024, associativity=16,
                          page_size_bytes=4096)
        assert cfg.num_colors == 64
        assert cfg.num_sets == 4096

    def test_single_color_identity_case(self):
        cfg = CacheConfig(cache_size_bytes=4096 * 16, associativity=16,
                          page_size_bytes=4096)
        assert cfg.num_colors == 1

    def test_two_mib_eight_way(self):
        cfg = CacheConfig(cache_size_bytes=2 * 1024 * 1024, associativity=8,
                          page_size_bytes=4096)
        assert cfg.num_colors == 64


class TestSwap:
    def test_identity_swap_0_3(self):
        mapping = MappingTable(6)
        mapping.swap(0, 3)
        assert mapping.color_of == [3, 1, 2, 0, 4, 5]

    def test_self_swap_is_noop(self):
        mapping = MappingTable(4)
        for c in range(4):
            mapping.swap(c, c)
            assert mapping.color_of == [0, 1, 2, 3]
        mapping.swap(1, 3)  # and on a permuted table
        for c in range(4):
            mapping.swap(c, c)
            assert mapping.color_of == [0, 3, 2, 1]

    def test_swap_twice_restores_identity(self):
        mapping = MappingTable(4)
        mapping.swap(0, 3)
        mapping.swap(0, 3)
        assert mapping.color_of == [0, 1, 2, 3]
        assert mapping.is_consistent()

    def test_needs_at_least_one_color(self):
        with pytest.raises(ConfigError, match="at least one color"):
            MappingTable(0)

    @pytest.mark.parametrize("corrupt", [
        lambda m: m.color_of.__setitem__(0, 1),    # not a permutation
    ], ids=["color_of"])
    def test_corrupted_table_is_inconsistent(self, corrupt):
        mapping = MappingTable(4)
        corrupt(mapping)
        assert not mapping.is_consistent()

    def test_out_of_range_swap(self):
        mapping = MappingTable(4)
        with pytest.raises(ValueError):
            mapping.swap(0, 4)
        with pytest.raises(ValueError):
            mapping.swap(-1, 0)


class TestApplyRemap:
    def _loaded_cache(self):
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        cache = CacheState(cfg)
        # 2 dirty blocks in color 0, 3 dirty in color 1, 1 clean in color 2
        cache.access(0, 1, True)
        cache.access(1, 1, True)
        cache.access(4, 1, True)
        cache.access(5, 1, True)
        cache.access(6, 1, True)
        cache.access(8, 1, False)
        return cfg, cache

    def test_empty_swap_list(self):
        cfg, cache = self._loaded_cache()
        mapping = MappingTable(4)
        assert mapping.apply_remap(cache, []) == 0
        assert mapping.color_of == [0, 1, 2, 3]
        assert cache.lru_order(0) == [1]

    def test_one_swap_flushes_both_colors(self):
        cfg, cache = self._loaded_cache()
        mapping = MappingTable(4)
        assert mapping.apply_remap(cache, [(0, 1)]) == 5
        for s in range(8):  # both flushed colors empty
            assert cache.lru_order(s) == []
        assert cache.lru_order(8) == [1]  # untouched color keeps its block

    def test_self_pair_never_flushes(self):
        cfg, cache = self._loaded_cache()
        mapping = MappingTable(4)
        assert mapping.apply_remap(cache, [(0, 0)]) == 0
        assert cache.lru_order(0) == [1]
        assert mapping.color_of == [0, 1, 2, 3]

    def test_unswapped_colors_keep_their_regions(self):
        mapping = MappingTable(8)
        before = dict(enumerate(mapping.color_of))
        cfg = small_cfg(colors=8, sets_per_color=2, assoc=1)
        mapping.apply_remap(CacheState(cfg), [(1, 5), (2, 2)])
        touched = {1, 5}
        for region, color in before.items():
            if color not in touched:
                assert mapping.color_of[region] == color

    def test_remapped_addresses_land_in_new_color(self):
        cfg = small_cfg(colors=4, sets_per_color=4)
        cache = CacheState(cfg)
        mapping = MappingTable(4)
        mapping.apply_remap(cache, [(0, 2), (1, 3)])
        for page in range(16):
            addr = page * cfg.page_size_bytes
            set_index, _ = decompose_address(addr, cfg, mapping)
            region = page % 4
            assert set_index // cfg.sets_per_color == mapping.color_of[region]


class TestBijectivityFuzz:
    def test_random_swaps_preserve_permutation(self):
        rng = seeded(5)
        n = 16
        mapping = MappingTable(n)
        cfg = small_cfg(colors=n, sets_per_color=2, assoc=1)
        cache = CacheState(cfg)
        for step in range(10_000):
            if rng.random() < 0.1:
                pairs = [(rng.randrange(n), rng.randrange(n))
                         for _ in range(rng.randint(1, 4))]
                mapping.apply_remap(cache, pairs)
            else:
                mapping.swap(rng.randrange(n), rng.randrange(n))
            assert mapping.is_consistent()
        assert sorted(mapping.color_of) == list(range(n))
