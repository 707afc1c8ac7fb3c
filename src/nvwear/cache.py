"""Set-associative write-back cache model with per-block write counting."""

from dataclasses import dataclass, field

from .errors import ConfigError


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of the simulated last-level cache.

    Sizes must be powers of two with block <= page <= cache size, and the
    color count (cache / (page * associativity)) must come out >= 1.
    Latencies are whole core cycles; the defaults model a 4MB 16-way
    non-volatile LLC behind a 2GHz core.
    """

    cache_size_bytes: int = 4 * 1024 * 1024
    associativity: int = 16
    block_size_bytes: int = 64
    page_size_bytes: int = 4096
    hit_read_latency: int = 2
    hit_write_latency: int = 12
    miss_penalty: int = 160
    core_frequency_hz: int = 2_000_000_000

    # derived geometry, filled in post-init
    num_sets: int = field(init=False, repr=False, default=0)
    num_colors: int = field(init=False, repr=False, default=0)
    sets_per_color: int = field(init=False, repr=False, default=0)

    def __post_init__(self):
        for name in ("cache_size_bytes", "associativity", "block_size_bytes",
                     "page_size_bytes"):
            v = getattr(self, name)
            if v < 1 or v & (v - 1):
                raise ConfigError(f"must be a positive power of two, got {v}", name)
        if not self.block_size_bytes <= self.page_size_bytes <= self.cache_size_bytes:
            raise ConfigError("need block_size_bytes <= page_size_bytes <= cache_size_bytes")
        for name in ("hit_read_latency", "hit_write_latency", "miss_penalty"):
            if getattr(self, name) < 0:
                raise ConfigError("must be non-negative", name)
        if self.core_frequency_hz <= 0:
            raise ConfigError("must be positive", "core_frequency_hz")
        num_colors = self.cache_size_bytes // (self.page_size_bytes * self.associativity)
        if num_colors < 1:
            raise ConfigError(
                "geometry yields zero colors: cache must hold at least "
                "page_size * associativity bytes")
        object.__setattr__(self, "num_colors", num_colors)
        object.__setattr__(self, "num_sets",
                           self.cache_size_bytes // (self.block_size_bytes * self.associativity))
        object.__setattr__(self, "sets_per_color",
                           self.page_size_bytes // self.block_size_bytes)
        # with power-of-two sizes this always closes exactly
        assert self.num_sets == self.num_colors * self.sets_per_color


# eq=False: callers tell the shared outcomes apart by identity, and two hold equal values
@dataclass(frozen=True, slots=True, eq=False)
class AccessOutcome:
    hit: bool
    evicted_dirty: bool


def decompose_address(addr, cfg, mapping):
    """Split a physical address into (set_index, tag) through the color map.

    The page number's low bits select a memory region, the mapping table turns
    the region into a cache color, and the block offset inside the page picks
    the set within that color. The tag keeps only the address bits above the
    region bits, so remapping a region never changes any block's tag.
    """
    if len(mapping.color_of) != cfg.num_colors:
        raise ConfigError(
            f"mapping table has {len(mapping.color_of)} entries, cache has "
            f"{cfg.num_colors} colors")
    page = addr // cfg.page_size_bytes
    region = page % cfg.num_colors
    color = mapping.color_of[region]
    within = (addr % cfg.page_size_bytes) // cfg.block_size_bytes
    return color * cfg.sets_per_color + within, page // cfg.num_colors


class CacheState:
    """Tags, dirty bits, LRU order, and write counters of every block.

    LRU per set; misses allocate (write-allocate) into the lowest-index
    invalid way, else evict the least recently used block. ``count_fills``
    selects whether installing a block on a miss programs its cells (the
    default) or only demand writes do; write hits always count. The caller
    counts hits, misses and programmed blocks from the returned outcomes.

    Each set lists its valid blocks' tags most recently used first and by
    way, and keeps their dirty bits in one int. Only ``flush_color``
    invalidates, and it empties whole sets, so the valid ways of a set are
    always ``0 .. len(tags) - 1`` and the lowest invalid way is ``len(tags)``.
    """

    def __init__(self, cfg: CacheConfig, count_fills: bool = True):
        self.cfg = cfg
        self.count_fills = count_fills
        n, a = cfg.num_sets, cfg.associativity
        self._lru = [[] for _ in range(n)]
        self._tags = [[] for _ in range(n)]
        self._dirty = [0] * n
        self.write_counts = [[0] * a for _ in range(n)]
        # every access returns one of these: read hit, write hit, clean, dirty miss
        self.outcomes = (AccessOutcome(True, False), AccessOutcome(True, False),
                         AccessOutcome(False, False), AccessOutcome(False, True))

    def access(self, set_index, tag, is_write) -> AccessOutcome:
        """One demand access. Hits promote to MRU; misses fill and may evict."""
        lru = self._lru[set_index]
        if tag in lru:
            if lru[0] != tag:
                lru.remove(tag)
                lru.insert(0, tag)
            if is_write:
                way = self._tags[set_index].index(tag)
                self._dirty[set_index] |= 1 << way
                self.write_counts[set_index][way] += 1
                return self.outcomes[1]
            return self.outcomes[0]

        tags = self._tags[set_index]
        if len(tags) < self.cfg.associativity:  # fill the lowest invalid way
            way = len(tags)
            tags.append(tag)
            evicted_dirty = 0
        else:  # evict the least recently used block
            way = tags.index(lru.pop())
            tags[way] = tag
            evicted_dirty = self._dirty[set_index] >> way & 1
            self._dirty[set_index] &= ~(1 << way)
        lru.insert(0, tag)
        if is_write:
            self._dirty[set_index] |= 1 << way
        if is_write or self.count_fills:
            self.write_counts[set_index][way] += 1
        return self.outcomes[2 + evicted_dirty]  # the clean or the dirty miss

    def flush_color(self, color):
        """Invalidate every block of one color; returns dirty blocks written back.

        Write counters are not touched: flushing moves data, it does not
        program cache cells.
        """
        cfg = self.cfg
        if not 0 <= color < cfg.num_colors:
            raise ValueError(f"color {color} out of range (cache has {cfg.num_colors})")
        spc = cfg.sets_per_color
        writebacks = 0
        for s in range(color * spc, (color + 1) * spc):
            # invalid ways are never dirty, so every set bit is a valid block
            writebacks += self._dirty[s].bit_count()
            self._dirty[s] = 0
            self._lru[s].clear()
            self._tags[s].clear()
        return writebacks

    def max_block_writes(self):
        return max(map(max, self.write_counts))

    def lru_order(self, set_index):
        """Tags of the set's valid blocks, least recently used first."""
        return self._lru[set_index][::-1]
