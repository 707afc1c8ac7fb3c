"""Region-to-color mapping layer: the software knob that moves write traffic."""

from .errors import ConfigError


class MappingTable:
    """Bijection between memory regions and cache colors, identity at start:
    ``color_of[region]`` is the region's color."""

    def __init__(self, num_colors):
        if num_colors < 1:
            raise ConfigError("mapping table needs at least one color")
        self.color_of = list(range(num_colors))

    def swap(self, c1, c2):
        """Exchange the regions mapped to colors c1 and c2; c1 == c2 is a no-op."""
        n = len(self.color_of)
        if not (0 <= c1 < n and 0 <= c2 < n):
            raise ValueError(f"swap({c1}, {c2}) out of range for {n} colors")
        r1, r2 = self.color_of.index(c1), self.color_of.index(c2)
        self.color_of[r1], self.color_of[r2] = c2, c1

    def apply_remap(self, cache, swaps):
        """Apply swaps in order, flushing both colors of every effective pair.

        Dirty blocks in a flushed color become memory writebacks; clean ones
        are simply dropped. Returns the total writeback count. Pairs with
        c1 == c2 change nothing and flush nothing.
        """
        writebacks = 0
        for c1, c2 in swaps:
            self.swap(c1, c2)
            if c1 != c2:
                writebacks += cache.flush_color(c1)
                writebacks += cache.flush_color(c2)
        return writebacks

    def is_consistent(self):
        """True when color_of is a permutation of the colors."""
        return sorted(self.color_of) == list(range(len(self.color_of)))
