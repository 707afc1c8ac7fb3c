"""Shared fixtures-in-spirit: tiny cache geometries and differential replay."""

import random

from nvwear import CacheConfig
from nvwear.reference import replay_against_reference


def small_cfg(colors=4, sets_per_color=4, assoc=2, block=64, **kwargs):
    page = block * sets_per_color
    return CacheConfig(cache_size_bytes=colors * page * assoc,
                       associativity=assoc, block_size_bytes=block,
                       page_size_bytes=page, **kwargs)


def random_trace(rng, length, pages, page_bytes, block_bytes, write_bias=0.5):
    """(addr, is_write) pairs over block-aligned addresses."""
    blocks = page_bytes // block_bytes
    return [(rng.randrange(pages) * page_bytes + rng.randrange(blocks) * block_bytes,
             rng.random() < write_bias)
            for _ in range(length)]


def replay_both(cfg, trace, count_fills=True):
    """Run one access trace through the production model and the naive
    reference; returns (outcomes, ref_outcomes, cache, ref)."""
    _, pairs, cache, ref = replay_against_reference(
        cfg, (("access", addr, is_write) for addr, is_write in trace), count_fills)
    return [ours for ours, _ in pairs], [theirs for _, theirs in pairs], cache, ref


def seeded(seed):
    return random.Random(seed)
