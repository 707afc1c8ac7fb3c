"""Shared fixtures-in-spirit: tiny cache geometries and configs, differential
replay, the benchmark's own modules and the whole-run comparison against the oracle."""

import dataclasses
import importlib.util
import random
from pathlib import Path

import pytest

from nvwear import CacheConfig, run_experiment
from nvwear.policy import PolicySettings
from nvwear.reference import replay_against_reference

from oracles import reference_run


def small_cfg(colors=4, sets_per_color=4, assoc=2, block=64, **kwargs):
    page = block * sets_per_color
    return CacheConfig(cache_size_bytes=colors * page * assoc,
                       associativity=assoc, block_size_bytes=block,
                       page_size_bytes=page, **kwargs)


# a 4-color cache: 2 KiB, 2 ways, 64 B blocks, 256 B pages
SMALL_CACHE = "\n[cache]\nsize_bytes = 2K\nassociativity = 2\nblock_bytes = 64\npage_bytes = 256\n"


def small_ini(policy="swl", extra_policy="",
              workload="kind = hotset\nevents = 20000\nwrite_fraction = 1.0\n"
                       "hotset_fraction = 0.25\npages = 4\nseed = 5\n"):
    """Config text of SMALL_CACHE under a policy that may act at every 1000th write."""
    return (f"{SMALL_CACHE}\n[policy]\nkind = {policy}\nk_writes = 1000\nmin_gap_cycles = 0\n"
            f"{extra_policy}\n[workload]\n{workload}")


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


def assert_matches_reference_run(run, reference):
    """A finished run's (stats, decisions, audit) against the first three values
    of ``oracles.reference_run`` on the same stream: the same RunStats, the
    block-write SD to rounding, the same decision log, sdw to rounding, and
    the same mapping audit."""
    (stats, decisions, audit), (ref_stats, ref_decisions, ref_audit, _) = run, reference
    assert dataclasses.asdict(stats) == {
        **ref_stats, "block_write_sd": pytest.approx(ref_stats["block_write_sd"])}
    assert [(d.interval, d.cycle, d.ran, d.swaps, d.sdw, d.n_higher, d.writebacks)
            for d in decisions] == [
        (*head, pytest.approx(sdw), n_higher, writebacks)
        for *head, sdw, n_higher, writebacks in ref_decisions]
    assert audit == ref_audit


def check_run_against_reference(cfg, events):
    """``run_experiment(cfg)``, the chunked path of nvwear run and compare, against
    ``reference_run`` over ``events`` (the stream ``cfg`` names) with the policy
    settings the run resolved; returns the reference's (stats, decisions, audit)."""
    report = run_experiment(cfg)
    policy = cfg.make_policy()  # static has no settings, and reference_run reads none
    params = {f.name: getattr(policy, f.name, None) for f in dataclasses.fields(PolicySettings)}
    reference = reference_run(cfg.cache, cfg.policy_kind, params, events, cfg.count_fills)
    assert_matches_reference_run((report.stats, report.decisions, report.mapping_audit),
                                 reference)
    return reference[:3]
