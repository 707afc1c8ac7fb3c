"""Shared fixtures-in-spirit: tiny cache geometries, differential replay, the
benchmark's workloads and the whole-run comparison against the oracle."""

import dataclasses
import random

import pytest

from nvwear import CacheConfig, build_config, generate, write_trace
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


# The benchmark's three workloads, copied from perfbench/run.py: the generator
# overrides, the technique's overrides, and whether the stream is replayed
# through a text trace.
BENCH_WORKLOADS = {
    "zipf-miss": ({"workload_kind": "zipf", "pages": 4096, "zipf_s": 1.0,
                   "write_fraction": 0.3}, {"policy": "swl"}, False),
    "hotset-remap": ({"workload_kind": "hotset", "pages": 64, "write_fraction": 1.0},
                     {"policy": "swl", "k": 10_000, "min_gap_cycles": 0}, False),
    "trace-replay": ({"workload_kind": "uniform", "pages": 256, "write_fraction": 0.5},
                     {"policy": "xor"}, True),
}


def bench_source(name, events, seed, tmp_path):
    """The ``build_config`` overrides of benchmark workload ``name``'s stream.
    A replayed workload's stream is written, as the benchmark does, to a text
    trace named replay.trace under ``tmp_path``, and the overrides name it."""
    generator, _, replay = BENCH_WORKLOADS[name]
    source = {**generator, "events": events, "seed": seed}
    if not replay:
        return source
    path = str(tmp_path / "replay.trace")
    write_trace(path, generate(build_config(None, source, policy=False).workload))
    return {"trace": path}


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
