"""Naive mirror of the cache model, used as a differential oracle.

``ReferenceSimulator`` is deliberately simple and slow: linear tag scans, an
explicit least-recent-first list per set, plain div/mod address math, and a
linear inverse lookup for the region map. It shares no machinery with the
production model so that any disagreement between the two flags a bug;
``replay_against_reference`` drives both side by side to find one.
"""

from .cache import CacheState, decompose_address
from .coloring import MappingTable


class _Slot:
    __slots__ = ("tag", "valid", "dirty", "writes")

    def __init__(self):
        self.tag = None
        self.valid = False
        self.dirty = False
        self.writes = 0


class ReferenceSimulator:
    def __init__(self, cfg, count_fills=True):
        self.block_bytes = cfg.block_size_bytes
        self.page_bytes = cfg.page_size_bytes
        self.assoc = cfg.associativity
        self.n_colors = cfg.cache_size_bytes // (cfg.page_size_bytes * cfg.associativity)
        self.sets_per_color = cfg.page_size_bytes // cfg.block_size_bytes
        self.n_sets = self.n_colors * self.sets_per_color
        self.count_fills = count_fills
        self.read_hit_latency = cfg.hit_read_latency
        self.write_hit_latency = cfg.hit_write_latency
        self.miss_latency = cfg.miss_penalty + cfg.hit_write_latency
        self.color_of = list(range(self.n_colors))
        self.slots = [[_Slot() for _ in range(self.assoc)] for _ in range(self.n_sets)]
        self.order = [[] for _ in range(self.n_sets)]  # valid ways, least recent first
        self.writebacks = 0
        self.flush_writebacks = 0

    def locate(self, addr):
        page = addr // self.page_bytes
        region = page % self.n_colors
        color = self.color_of[region]
        block_in_page = (addr - page * self.page_bytes) // self.block_bytes
        return color * self.sets_per_color + block_in_page, page // self.n_colors

    def access_addr(self, addr, is_write):
        """Returns (hit, evicted_dirty) after replaying one access."""
        set_index, tag = self.locate(addr)
        slots = self.slots[set_index]
        order = self.order[set_index]
        for way in range(self.assoc):
            slot = slots[way]
            if slot.valid and slot.tag == tag:
                order.remove(way)
                order.append(way)
                if is_write:
                    slot.dirty = True
                    slot.writes += 1
                return True, False
        victim = None
        for way in range(self.assoc):
            if not slots[way].valid:
                victim = way
                break
        evicted_dirty = False
        if victim is None:
            victim = order.pop(0)
            evicted_dirty = slots[victim].dirty
            if evicted_dirty:
                self.writebacks += 1
        slot = slots[victim]
        slot.tag = tag
        slot.valid = True
        slot.dirty = is_write
        if is_write or self.count_fills:
            slot.writes += 1
        if victim in order:
            order.remove(victim)
        order.append(victim)
        return False, evicted_dirty

    def flush_color(self, color):
        writebacks = 0
        first = color * self.sets_per_color
        for set_index in range(first, first + self.sets_per_color):
            for slot in self.slots[set_index]:
                if slot.valid and slot.dirty:
                    writebacks += 1
                slot.tag = None
                slot.valid = False
                slot.dirty = False
            self.order[set_index] = []
        self.flush_writebacks += writebacks
        return writebacks

    def remap(self, c1, c2):
        """Swap two colors' regions and flush both; no-op when c1 == c2."""
        if c1 == c2:
            return 0
        r1 = self.color_of.index(c1)
        r2 = self.color_of.index(c2)
        self.color_of[r1], self.color_of[r2] = c2, c1
        return self.flush_color(c1) + self.flush_color(c2)

    def write_count_matrix(self):
        return [[slot.writes for slot in row] for row in self.slots]

    def max_block_writes(self):
        return max(max(slot.writes for slot in row) for row in self.slots)


def replay_against_reference(cfg, ops, count_fills=True):
    """Replay one schedule of operations through the production model
    (``CacheState`` behind a ``MappingTable``) and a ``ReferenceSimulator``.

    ``ops`` yields ``("access", addr, is_write)``, ``("flush", color)`` and
    ``("remap", c1, c2)``. Returns ``(failure, outcomes, cache, ref)``, where
    ``outcomes`` pairs each access's ``(hit, evicted_dirty)`` with the
    reference's and ``failure`` is None, or names the first differing op
    (replay stops there) or differing final write-count matrices.
    """
    cache = CacheState(cfg, count_fills=count_fills)
    mapping = MappingTable(cfg.num_colors)
    ref = ReferenceSimulator(cfg, count_fills=count_fills)
    outcomes = []
    for index, (op, *args) in enumerate(ops):
        if op == "access":
            out = cache.access(*decompose_address(args[0], cfg, mapping), args[1])
            got, want = (out.hit, out.evicted_dirty), ref.access_addr(*args)
            outcomes.append((got, want))
        elif op == "flush":
            got, want = cache.flush_color(*args), ref.flush_color(*args)
        else:
            got, want = mapping.apply_remap(cache, [args]), ref.remap(*args)
        if got != want:
            failure = f"op {index}: {op}{tuple(args)} gave {got}, reference {want}"
            return failure, outcomes, cache, ref
    if cache.write_counts != ref.write_count_matrix():
        return "write count matrices differ", outcomes, cache, ref
    return None, outcomes, cache, ref
