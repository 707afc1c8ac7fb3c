"""The whole-run oracle at length: Simulator against reference_run over the
zipf-miss entry of helpers.BENCH_WORKLOADS (zipf over 4096 pages, s = 1,
write fraction 0.3, seed 5, swl on the default 64 colors x 64 sets x 16 ways)
at 3M events, ten times the horizon of
tests/test_engine.py::TestWholeRunAtBenchmarkGeometry.

    python -m pytest -q tests/long_whole_run.py

Tier-1 does not collect this file (its name does not start with test_); it
takes about 7 s. Each side draws the deterministic stream itself, so
the 3M events are never held in memory at once.
"""

from nvwear import Simulator, build_config, generate

from helpers import BENCH_WORKLOADS, assert_matches_reference_run
from oracles import reference_run

EVENTS = 3_000_000


def test_zipf_run_matches_reference_run_at_3m_events():
    generator, technique, _ = BENCH_WORKLOADS["zipf-miss"]
    cfg = build_config(None, {**generator, "events": EVENTS, "seed": 5, **technique})
    cache = cfg.cache
    assert (cache.num_colors, cache.sets_per_color, cache.associativity) == (64, 64, 16)
    sim = Simulator(cache, cfg.make_policy(), count_fills=cfg.count_fills)
    sim.run(generate(cfg.workload))
    params = dict(beta=cfg.beta, swap_limit=16,  # the default: a quarter of the colors
                  k_writes=cfg.k_writes, min_gap_cycles=cfg.min_gap_cycles,
                  swap_limit_mode=cfg.swap_limit_mode)
    reference = reference_run(cache, cfg.policy_kind, params,
                              generate(cfg.workload), cfg.count_fills)
    stats, decisions, _ = reference
    assert stats["reads"] + stats["writes"] == EVENTS
    # fourteen executions, each of which swapped
    assert [bool(swaps) for _, _, _, swaps, *_ in decisions] == [True] * 14
    assert_matches_reference_run(sim, reference)
