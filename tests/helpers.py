"""Shared fixtures-in-spirit: tiny cache geometries, differential replay, the
benchmark's own modules and the whole-run comparison against the oracle."""

import dataclasses
import importlib.util
import random
from pathlib import Path

import pytest

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


def perfbench(name):
    """perfbench/<name>.py, imported by its path as a fresh module."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_matches_reference_run(sim, reference):
    """A finished ``Simulator`` against the (stats, decisions, audit) of
    ``oracles.reference_run`` on the same stream: the same RunStats, the
    block-write SD to rounding, the same decision log, sdw to rounding, and
    the same mapping audit."""
    stats, decisions, audit = reference
    assert dataclasses.asdict(sim.result()) == {
        **stats, "block_write_sd": pytest.approx(stats["block_write_sd"])}
    assert [(d.interval, d.cycle, d.ran, d.swaps, d.sdw, d.n_higher, d.writebacks)
            for d in sim.decisions] == [
        (*head, pytest.approx(sdw), n_higher, writebacks)
        for *head, sdw, n_higher, writebacks in decisions]
    assert sim.mapping_audit == audit
