"""The whole-run oracle at length: run_experiment against reference_run over
the zipf-miss entry of perfbench/run.py's WORKLOADS (zipf over 4096 pages,
s = 1, write fraction 0.3, seed 5, swl on the default 64 colors x 64 sets x 16
ways) at 3M events, ten times the horizon of
tests/test_engine.py::TestWholeRunAtBenchmarkGeometry.

    python -m pytest -q tests/long_whole_run.py

Tier-1 does not collect this file (its name does not start with test_); it
took 13-15 s on CPython 3.11.7 with 2 vCPUs. Each side draws the deterministic stream itself, so
the 3M events are never held in memory at once.
"""

from nvwear import build_config, generate

from helpers import check_run_against_reference, perfbench

EVENTS = 3_000_000


def test_zipf_run_matches_reference_run_at_3m_events():
    workload = perfbench("run").WORKLOADS["zipf-miss"]
    cfg = build_config(None, {**workload.generator, "events": EVENTS, "seed": 5,
                              **workload.technique})
    cache = cfg.cache
    assert (cache.num_colors, cache.sets_per_color, cache.associativity) == (64, 64, 16)
    stats, decisions, _ = check_run_against_reference(cfg, generate(cfg.workload, cache))
    assert stats["reads"] + stats["writes"] == EVENTS
    # fourteen executions, each of which swapped
    assert [bool(swaps) for _, _, _, swaps, *_ in decisions] == [True] * 14
