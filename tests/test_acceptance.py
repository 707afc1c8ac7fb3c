"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line once its assertions hold (run with -s or -rA to see them)."""

import csv

import pytest

from nvwear import (CacheConfig, CacheState, MappingTable, PolicyState,
                    GeneratorSpec, RunStats, compare_experiments, energy_joules,
                    ExperimentConfig)
from nvwear.cli import main

from helpers import random_trace, replay_both, seeded, small_cfg
from oracles import plan_remap_oracle


def _passed(text):
    print(f"PASS {text}")


def _desk_cache():
    """256KiB, 4-way, 64B blocks, 4KiB pages -> 16 colors x 64 sets."""
    return CacheConfig(cache_size_bytes=256 * 1024, associativity=4,
                       block_size_bytes=64, page_size_bytes=4096)


def _experiment(cache, policy, workload, **policy_kw):
    return ExperimentConfig(cache=cache, policy_kind=policy,
                            workload=workload, out_dir="unused", **policy_kw)


def _static_and_swl(cache, workload):
    """The static and swl (K=10k) reports of one replay of the workload."""
    comparison = compare_experiments(_experiment(cache, "static", workload),
                                     _experiment(cache, "swl", workload,
                                                 k_writes=10_000))
    return comparison.baseline, comparison.technique


def test_c01_oracle_equivalence_on_randomized_traces():
    rng = seeded(10_001)
    cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
    traces = 0
    events_total = 0
    for case in range(1000):
        length = 10_000 if case % 100 == 0 else rng.randint(100, 1200)
        trace = random_trace(rng, length, pages=rng.choice((8, 16, 32)),
                             page_bytes=cfg.page_size_bytes,
                             block_bytes=cfg.block_size_bytes)
        count_fills = case % 2 == 0
        ours, refs, cache, ref = replay_both(cfg, trace, count_fills)
        assert ours == refs, f"hit/miss sequence diverged in case {case}"
        assert cache.write_counts == ref.write_count_matrix(), \
            f"write counters diverged in case {case}"
        our_writebacks = sum(1 for _, dirty in ours if dirty)
        assert our_writebacks == ref.writebacks, \
            f"writeback counts diverged in case {case}"
        traces += 1
        events_total += length
    assert traces >= 1000
    _passed(f"criterion 1: {traces} randomized traces ({events_total} events) "
            f"identical between optimized and naive simulators")


def test_c02_plan_remap_matches_straight_line_transcription():
    rng = seeded(20_002)
    checked = 0
    for _ in range(10_000):
        n = rng.choice((2, 4, 8, 16, 32))
        spread = rng.choice((3, 25, 400))
        last = [rng.randrange(spread) for _ in range(n)]
        cumulative = [rng.randrange(2000) for _ in range(n)]
        beta = rng.choice((0.0, 2.5, 75.0, 250.0))
        limit = rng.randint(1, n // 2)
        for mode in ("min", "max"):
            ps = PolicyState(n, beta=beta, swap_limit=limit,
                             swap_limit_mode=mode)
            ps.n_write_last_interval[:] = last
            ps.n_write_global[:] = cumulative
            decision = ps.plan_remap()
            ran, swaps, sdw, n_higher = plan_remap_oracle(
                last, cumulative, beta, limit, mode)
            assert decision.ran == ran
            assert decision.swaps == swaps
            assert decision.n_higher == n_higher
            assert decision.sdw == pytest.approx(sdw, rel=1e-9, abs=1e-9)
            # the window restarts at zero; the lifetime counts are untouched
            assert ps.n_write_last_interval == [0] * n
            assert ps.n_write_global == cumulative
            checked += 1
    _passed(f"criterion 2: plan_remap equals the independent transcription on "
            f"{checked} decisions (both swap-limit modes)")


def test_c03_reference_geometry_has_64_colors_4096_sets():
    cfg = CacheConfig(cache_size_bytes=4 * 1024 * 1024, associativity=16,
                      block_size_bytes=64, page_size_bytes=4096)
    assert cfg.num_colors == 64
    assert cfg.num_sets == 4096
    _passed("criterion 3: 4MiB/4KiB-page/16-way cache has exactly 64 colors "
            "and 4096 sets")


def test_c04_uniform_roundrobin_is_a_noop_for_swl():
    cache = _desk_cache()
    workload = GeneratorSpec(kind="roundrobin", num_events=600_000,
                             write_fraction=1.0, page_count=64, seed=4)
    static, swl = _static_and_swl(cache, workload)
    assert swl.decisions, "expected the policy to execute at least once"
    assert all(len(d.swaps) == 0 for d in swl.decisions)
    assert swl.stats.remap_runs == 0
    ratio = static.stats.max_block_writes / swl.stats.max_block_writes
    assert ratio == pytest.approx(1.0, abs=0.01)
    _passed(f"criterion 4: round-robin workload produced 0 swaps over "
            f"{len(swl.decisions)} intervals, relative lifetime {ratio}")


def test_c05_hotset_skew_gives_lifetime_benefit():
    cache = _desk_cache()
    workload = GeneratorSpec(kind="hotset", num_events=1_000_000,
                             write_fraction=1.0, hotset_fraction=1 / 16,
                             hotset_probability=0.9, page_count=16, seed=7)
    static, swl = _static_and_swl(cache, workload)
    assert swl.stats.max_block_writes < static.stats.max_block_writes
    ratio = static.stats.max_block_writes / swl.stats.max_block_writes
    assert ratio >= 1.5
    _passed(f"criterion 5: hot-region workload relative lifetime "
            f"{ratio:.2f} >= 1.5 ({swl.stats.remap_runs} remap runs)")


def test_c06_skew_trend_mirrors_write_variation():
    cache = _desk_cache()
    sds = []
    lifetimes = []
    for s in (0.0, 1.0, 2.0):
        workload = GeneratorSpec(kind="zipf", zipf_exponent=s,
                                 num_events=600_000, write_fraction=1.0,
                                 page_count=64, seed=11)
        static, swl = _static_and_swl(cache, workload)
        sds.append(static.stats.block_write_sd)
        lifetimes.append(static.stats.max_block_writes
                         / swl.stats.max_block_writes)
    assert sds[0] < sds[1] < sds[2], f"block-write SD not increasing: {sds}"
    assert lifetimes[0] <= lifetimes[1] <= lifetimes[2], \
        f"relative lifetime not non-decreasing: {lifetimes}"
    _passed(f"criterion 6: static SD {[round(v, 1) for v in sds]} strictly "
            f"increasing; relative lifetime "
            f"{[round(v, 2) for v in lifetimes]} non-decreasing")


def test_c07_mapping_stays_bijective_under_fuzz():
    rng = seeded(70_007)
    n = 16
    mapping = MappingTable(n)
    cache = CacheState(small_cfg(colors=n, sets_per_color=2, assoc=1))
    ops = 100_000
    for step in range(ops):
        if rng.random() < 0.05:
            pairs = [(rng.randrange(n), rng.randrange(n))
                     for _ in range(rng.randint(1, 3))]
            mapping.apply_remap(cache, pairs)
        else:
            mapping.swap(rng.randrange(n), rng.randrange(n))
        assert sorted(mapping.color_of) == list(range(n))
    _passed(f"criterion 7: mapping table bijective through {ops} random "
            f"swap/remap operations")


def test_c08_energy_spot_values():
    freq = 2_000_000_000
    idle_second = energy_joules(RunStats(cycles=freq), frequency_hz=freq)
    assert idle_second == pytest.approx(2.415, rel=1e-9)
    for fld in ("misses", "writebacks", "flush_writebacks"):
        previous = 0.0
        for k in range(1, 101):
            e = energy_joules(RunStats(**{fld: k}), frequency_hz=freq)
            assert e - previous == pytest.approx(70e-9, rel=1e-9)
            previous = e
    _passed("criterion 8: idle second costs 2.415 J and every memory access "
            "adds exactly 70 nJ (to 1 part in 1e9)")


def test_c09_trigger_semantics():
    k = 1000

    def fed(state, writes):
        for _ in range(writes):
            state.observe_write(0)
        return state

    # K writes with the gap already satisfied -> run
    ps = fed(PolicyState(4, k_writes=k), k)
    assert ps.check_trigger(4_000_000) is True

    # K writes inside the gap -> deferred, counter restarted
    ps = fed(PolicyState(4, k_writes=k), k)
    assert ps.check_trigger(1_000_000) is False
    assert ps.deferred is True
    assert ps.writes_since_check == 0

    # after the deferral, another K writes with the gap satisfied -> run
    fed(ps, k - 1)
    assert ps.check_trigger(3_500_000) is False   # not yet K again
    fed(ps, 1)
    assert ps.check_trigger(3_500_001) is True
    assert ps.deferred is False
    _passed("criterion 9: trigger fires on K writes + 3M-cycle gap, defers "
            "and re-arms exactly as specified")


def test_c10_repeat_runs_produce_identical_csv(tmp_path):
    config = tmp_path / "cfg.ini"
    config.write_text(
        "[cache]\nsize_bytes = 256K\nassociativity = 4\nblock_bytes = 64\n"
        "page_bytes = 4K\n"
        "[policy]\nkind = swl\nk_writes = 2000\nmin_gap_cycles = 100000\n"
        "[workload]\nkind = hotset\nevents = 60000\nwrite_fraction = 1.0\n"
        "hotset_fraction = 0.0625\npages = 16\nseed = 3\n")
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", str(config), "--out", str(out1)]) == 0
    assert main(["run", "--config", str(config), "--out", str(out2)]) == 0
    names = ("report.csv", "decisions.csv", "mapping_audit.csv", "plot.csv",
             "summary.md")
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), \
            f"{name} differed between identical runs"
    with open(out1 / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][rows[0].index("remapRuns")] != "0"
    _passed("criterion 10: identical config+seed reproduced byte-identical "
            "report files")
