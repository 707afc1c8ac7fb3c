import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from nvwear import (ExperimentConfig, GeneratorSpec, ReferenceSimulator, Simulator,
                    TraceEvent, TraceFormatError, build_config, build_policy,
                    compare_experiments, generate, run_experiment, write_trace)
from nvwear import experiment
from nvwear.workload import MAX_ADDRESS

from helpers import (assert_matches_reference_run, check_run_against_reference,
                     perfbench, seeded, small_cfg)
from oracles import reference_run


def run_sim(cfg, events, policy_kind="static", count_fills=True, **policy_kw):
    policy = build_policy(policy_kind, cfg.num_colors, **policy_kw)
    sim = Simulator(cfg, policy, count_fills=count_fills)
    sim.run(events)
    return sim, sim.result()


class TestCycleAccounting:
    def test_no_events_no_cycles(self):
        _, stats = run_sim(small_cfg(), [])
        assert stats.cycles == 0
        assert stats.instructions == 0

    def test_hand_summed_trace(self):
        # W a @5: 5 instr + (160 + 12); R a @10: 5 instr + 2 read hit
        cfg = small_cfg()
        events = [TraceEvent(True, 0, 5), TraceEvent(False, 0, 10)]
        _, stats = run_sim(cfg, events)
        assert stats.cycles == 5 + 172 + 5 + 2 == 184
        assert stats.instructions == 10

    def test_write_hit_costs_ten_more_than_read_hit(self):
        cfg = small_cfg()
        warm = [TraceEvent(True, 0, 5)]
        _, read = run_sim(cfg, warm + [TraceEvent(False, 0, 10)])
        _, write = run_sim(cfg, warm + [TraceEvent(True, 0, 10)])
        assert write.cycles - read.cycles == 10

    def test_read_hit_plus_gap_is_seven_cycles(self):
        cfg = small_cfg()
        baseline = run_sim(cfg, [TraceEvent(True, 0, 5)])[1].cycles
        total = run_sim(cfg, [TraceEvent(True, 0, 5),
                              TraceEvent(False, 0, 10)])[1].cycles
        assert total - baseline == 7

    @pytest.mark.parametrize("kind", ["static", "swl"])
    def test_decreasing_icount_within_one_run_raises(self, kind):
        events = [TraceEvent(True, 0, 5), TraceEvent(False, 64, 9),
                  TraceEvent(True, 0, 8)]
        with pytest.raises(ValueError, match=r"instruction count decreased \(9 -> 8\)"):
            run_sim(small_cfg(), events, kind, k_writes=1, min_gap_cycles=0)

    def test_decreasing_icount_across_run_calls_raises(self):
        sim = Simulator(small_cfg(), build_policy("static", 4))
        sim.run([TraceEvent(True, 0, 5), TraceEvent(True, 0, 12)])
        with pytest.raises(ValueError, match=r"instruction count decreased \(12 -> 11\)"):
            sim.run([TraceEvent(False, 0, 11)])

    def test_negative_first_icount_raises(self):
        with pytest.raises(ValueError, match=r"instruction count decreased \(0 -> -1\)"):
            run_sim(small_cfg(), [TraceEvent(True, 0, -1)])


class TestStatsBookkeeping:
    def _events(self, n=5000, seed=3):
        spec = GeneratorSpec(kind="uniform", num_events=n, page_count=32,
                             seed=seed)
        return list(generate(spec, small_cfg()))

    def test_demand_counts_split(self):
        cfg = small_cfg()
        events = self._events()
        _, s = run_sim(cfg, events)
        assert s.reads + s.writes == len(events)
        assert s.misses == s.fills
        assert s.misses <= s.reads + s.writes
        assert s.block_write_events == s.fills + s.write_hits

    def test_demand_counts_identical_across_policies(self):
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        events = self._events(8000)
        kw = dict(k_writes=500, min_gap_cycles=0)
        _, static = run_sim(cfg, events)
        _, swl = run_sim(cfg, events, "swl", beta=0.0, **kw)
        _, xor = run_sim(cfg, events, "xor", **kw)
        assert static.reads == swl.reads == xor.reads
        assert static.writes == swl.writes == xor.writes
        assert swl.flush_writebacks > 0 or swl.remap_runs == 0

    def test_static_never_flushes_or_remaps(self):
        cfg = small_cfg()
        sim, stats = run_sim(cfg, self._events())
        assert stats.flush_writebacks == 0
        assert stats.remap_runs == 0
        assert sim.decisions == []
        assert sim.mapping.color_of == list(range(cfg.num_colors))

    def test_count_fills_off_shrinks_write_counts(self):
        cfg = small_cfg()
        events = self._events()
        _, on = run_sim(cfg, events, count_fills=True)
        _, off = run_sim(cfg, events, count_fills=False)
        assert off.block_write_events < on.block_write_events
        assert off.max_block_writes <= on.max_block_writes

    @pytest.mark.parametrize("count_fills", [True, False])
    def test_policy_ledger_is_the_cache_counters_by_color(self, count_fills):
        # every write the cache counts on a block is one write in the policy's
        # lifetime count of that block's (physical) color, remaps or not
        cfg = small_cfg(colors=16, sets_per_color=4, assoc=2)
        spec = GeneratorSpec(kind="zipf", num_events=5000, page_count=64, seed=3)
        sim, stats = run_sim(cfg, generate(spec, cfg), "swl", count_fills=count_fills,
                             k_writes=300, min_gap_cycles=0, beta=0.0)
        rows, spc = sim.cache.write_counts, cfg.sets_per_color
        by_color = [sum(map(sum, rows[c * spc:(c + 1) * spc]))
                    for c in range(cfg.num_colors)]
        assert stats.remap_runs > 0
        assert sim.policy.n_write_global == by_color


class TestPolicyIntegration:
    def test_uniform_roundrobin_never_swaps(self):
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        spec = GeneratorSpec(kind="roundrobin", num_events=20_000,
                             write_fraction=1.0, page_count=8)
        sim, stats = run_sim(cfg, generate(spec, cfg), "swl", k_writes=400,
                             min_gap_cycles=0)
        assert len(sim.decisions) > 10
        assert all(len(d.swaps) == 0 for d in sim.decisions)
        assert all(d.sdw == 0.0 for d in sim.decisions)
        assert stats.remap_runs == 0

    def test_hotset_swl_beats_static(self):
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        spec = GeneratorSpec(kind="hotset", num_events=40_000,
                             write_fraction=1.0, hotset_fraction=0.25,
                             hotset_probability=0.9, page_count=4, seed=6)
        _, static = run_sim(cfg, generate(spec, cfg))
        _, swl = run_sim(cfg, generate(spec, cfg), "swl", k_writes=1000,
                         min_gap_cycles=1000, swap_limit=1)
        assert swl.remap_runs > 0
        assert swl.max_block_writes < static.max_block_writes

    def test_single_region_wear_spreads_over_colors(self):
        # every write lands in one region: static wears one color, swl several
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        spec = GeneratorSpec(kind="uniform", num_events=20_000,
                             write_fraction=1.0, page_count=1, seed=9)

        def color_totals(sim):
            totals = [0] * cfg.num_colors
            for s, row in enumerate(sim.cache.write_counts):
                totals[s // cfg.sets_per_color] += sum(row)
            return totals

        static_sim = Simulator(cfg, build_policy("static", cfg.num_colors))
        static_sim.run(generate(spec, cfg))
        swl_sim = Simulator(cfg, build_policy("swl", cfg.num_colors,
                                              k_writes=1000, min_gap_cycles=0,
                                              swap_limit=1))
        swl_sim.run(generate(spec, cfg))

        static_totals = color_totals(static_sim)
        swl_totals = color_totals(swl_sim)
        assert sum(static_totals) == sum(swl_totals)
        assert max(static_totals) == sum(static_totals)  # all in one color
        assert sum(1 for t in swl_totals if t > 0) >= 2
        assert max(swl_totals) < max(static_totals)

    def test_decision_log_matches_mapping_audit(self):
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        spec = GeneratorSpec(kind="hotset", num_events=30_000,
                             write_fraction=1.0, hotset_fraction=0.25,
                             page_count=4, seed=2)
        sim, _ = run_sim(cfg, generate(spec, cfg), "swl", k_writes=1000,
                         min_gap_cycles=0, swap_limit=1)
        remap_intervals = {d.interval for d in sim.decisions
                           if len(d.swaps) > 0 and
                           any(c1 != c2 for c1, c2 in d.swaps)}
        audit_intervals = {row[0] for row in sim.mapping_audit} - {0}
        assert audit_intervals.issuperset(remap_intervals)
        # audit rows for interval 0 describe the identity mapping
        initial = [(r, c) for i, r, c in sim.mapping_audit if i == 0]
        assert initial == [(r, r) for r in range(cfg.num_colors)]
        assert sim.mapping.is_consistent()

    def test_xor_policy_flushes_whole_cache(self):
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        spec = GeneratorSpec(kind="uniform", num_events=20_000,
                             write_fraction=1.0, page_count=8, seed=5)
        sim, stats = run_sim(cfg, generate(spec, cfg), "xor", k_writes=2000,
                             min_gap_cycles=0)
        assert stats.remap_runs == len(sim.decisions) > 0
        assert stats.flush_writebacks > 0
        assert all(len(d.swaps) == cfg.num_colors // 2
                   for d in sim.decisions)

    def test_xor_at_two_colors_swaps_only_at_its_first_execution(self):
        # the register walks 1..N-1, which is {1}: once there it stays, so each
        # later execution runs, and counts in remap_runs, with no swap or flush
        cfg = small_cfg(colors=2, sets_per_color=4, assoc=2)
        spec = GeneratorSpec(kind="uniform", num_events=300, write_fraction=1.0,
                             page_count=8, seed=5)
        sim, stats = run_sim(cfg, generate(spec, cfg), "xor", k_writes=100,
                             min_gap_cycles=0)
        assert [(d.ran, d.swaps) for d in sim.decisions] == [
            (True, [(0, 1)]), (True, []), (True, [])]
        assert [d.writebacks > 0 for d in sim.decisions] == [True, False, False]
        assert stats.remap_runs == 3
        assert sim.mapping_audit == [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]

    def test_trigger_respects_cycle_gap(self):
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        spec = GeneratorSpec(kind="hotset", num_events=30_000,
                             write_fraction=1.0, hotset_fraction=0.25,
                             page_count=4, seed=2)
        gap = 50_000
        sim, _ = run_sim(cfg, generate(spec, cfg), "swl", k_writes=100,
                         min_gap_cycles=gap)
        cycles = [d.cycle for d in sim.decisions]
        assert len(cycles) >= 2
        assert all(b - a >= gap for a, b in zip(cycles, cycles[1:]))


def _recording(policy, log):
    """Make the engine's calls to ``policy`` append to ``log``: the number of
    writes counted so far at each ``poll``, and ``note_write`` for each
    ``note_write`` call."""
    poll = policy.poll

    def recorded_poll(now_cycle):
        log.append(sum(policy.n_write_global))
        return poll(now_cycle)

    policy.poll = recorded_poll
    policy.note_write = lambda color: log.append("note_write")
    return policy


class TestPolicyContract:
    """The engine keeps the write window: it adds each counted write to the
    policy's counts itself and polls only at the K-th."""

    def _events(self):
        spec = GeneratorSpec(kind="uniform", num_events=6000, write_fraction=0.4,
                             page_count=32, seed=4)
        return list(generate(spec, small_cfg()))

    @pytest.mark.parametrize("count_fills", [True, False])
    def test_poll_runs_exactly_at_each_k_th_counted_write(self, count_fills):
        cfg = small_cfg()
        polled_at = []
        policy = _recording(build_policy("swl", cfg.num_colors, k_writes=50,
                                         min_gap_cycles=20_000, beta=0.0), polled_at)
        events = self._events()
        sim = Simulator(cfg, policy, count_fills=count_fills)
        sim.run(events)
        s = sim.result()
        assert 0 < s.write_hits < s.writes < len(events)  # a mixed stream
        assert s.block_write_events == (s.fills + s.write_hits if count_fills
                                        else s.writes)
        assert polled_at == list(range(50, s.block_write_events + 1, 50))
        assert 0 < len(sim.decisions) < len(polled_at)  # the gap defers some

    def test_static_run_never_polls(self):
        cfg = small_cfg()
        calls = []
        policy = build_policy("static", cfg.num_colors)
        policy.poll = lambda now_cycle: calls.append("poll")
        policy.note_write = lambda color: calls.append("note_write")
        sim = Simulator(cfg, policy)
        sim.run(self._events())
        assert sim.result().block_write_events > 0
        assert calls == []

    @pytest.mark.parametrize("count_fills", [True, False])
    @pytest.mark.parametrize("min_gap", [0, 10**15], ids=["polls-run", "polls-defer"])
    def test_counts_equal_an_observe_write_replay(self, count_fills, min_gap):
        cfg = small_cfg()
        # beta is never reached, so no decision remaps and colors stay put
        kw = dict(k_writes=37, min_gap_cycles=min_gap, beta=1e9)
        events = self._events()
        policy = build_policy("swl", cfg.num_colors, **kw)
        sim = Simulator(cfg, policy, count_fills=count_fills)
        for lo in range(0, len(events), 1000):  # the count resumes across calls
            sim.run(events[lo:lo + 1000])
        stats = sim.result()
        assert bool(sim.decisions) == (min_gap == 0)
        assert not any(d.ran for d in sim.decisions)
        replay = build_policy("swl", cfg.num_colors, **kw)
        ref = ReferenceSimulator(cfg, count_fills=count_fills)
        for ev in events:
            set_index, _ = ref.locate(ev.addr)
            hit, _ = ref.access_addr(ev.addr, ev.is_write)
            programmed = ev.is_write or (count_fills and not hit)
            if programmed and replay.observe_write(set_index // cfg.sets_per_color):
                replay.poll(0)
        assert sum(replay.n_write_global) == stats.block_write_events
        for name in ("n_write_last_interval", "n_write_global", "writes_since_check"):
            assert getattr(policy, name) == getattr(replay, name)


class TestDeterminismAndOracle:
    def test_same_events_same_result(self):
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        spec = GeneratorSpec(kind="zipf", num_events=15_000, page_count=16,
                             seed=12)
        a, a_stats = run_sim(cfg, generate(spec, cfg), "swl", k_writes=500, min_gap_cycles=0)
        b, b_stats = run_sim(cfg, generate(spec, cfg), "swl", k_writes=500, min_gap_cycles=0)
        assert a_stats == b_stats
        assert a.decisions == b.decisions
        assert a.mapping.color_of == b.mapping.color_of

    def test_static_run_matches_reference_counts(self):
        cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
        spec = GeneratorSpec(kind="uniform", num_events=10_000, page_count=16,
                             seed=21)
        stats, _, _ = check_run_against_reference(
            ExperimentConfig(cache=cfg, policy_kind="static", workload=spec),
            generate(spec, cfg))
        assert stats["reads"] + stats["writes"] == spec.num_events


class TestWholeRunAgainstReference:
    """Simulator.run against reference_run: statistics, decision log and
    mapping audit of whole runs through every policy."""

    @settings(max_examples=120, deadline=None)
    @given(kind=st.sampled_from(["swl", "xor", "static"]), count_fills=st.booleans(),
           colors=st.sampled_from([2, 4, 8]), sets_per_color=st.sampled_from([2, 4]),
           assoc=st.sampled_from([1, 2, 4]), k=st.integers(1, 40),
           min_gap=st.sampled_from([0, 1, 300, 2000]),
           beta=st.sampled_from([0.0, 0.5, 2.0, 6.0]),
           mode=st.sampled_from(["min", "max"]), n_events=st.integers(0, 400),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_run_matches_reference_run(self, kind, count_fills, colors, sets_per_color,
                                       assoc, k, min_gap, beta, mode, n_events, seed,
                                       data):
        cfg = small_cfg(colors=colors, sets_per_color=sets_per_color, assoc=assoc)
        params = dict(beta=beta, swap_limit=data.draw(st.integers(1, colors // 2)),
                      k_writes=k, min_gap_cycles=min_gap, swap_limit_mode=mode)
        rng = seeded(seed)
        page, pages = cfg.page_size_bytes, 3 * colors
        icount, events = 0, []
        for _ in range(n_events):
            icount += rng.choice((0, 1, 1, 2, 7))  # repeats and gaps
            # a few hot pages, so colors wear unevenly and sets fill up
            page_no = rng.randrange(2) if rng.random() < 0.6 else rng.randrange(pages)
            events.append(TraceEvent(rng.random() < 0.6,
                                     page_no * page + rng.randrange(page), icount))
        sim = Simulator(cfg, build_policy(kind, colors, **params), count_fills=count_fills)
        sim.run(events)
        assert_matches_reference_run((sim.result(), sim.decisions, sim.mapping_audit),
                                     reference_run(cfg, kind, params, events, count_fills))


BENCH = perfbench("run")


class TestWholeRunAtBenchmarkGeometry:
    """run_experiment against reference_run on the default cache (64 colors of
    64 sets, 16 ways), over each benchmark workload's stream at seed 5 and
    300k events with the technique's settings: full 16-way sets, policy
    executions at a size the drawn runs above never reach, and the chunked
    feed of nvwear run and compare, ending in a partial chunk."""

    @pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
    def test_run_matches_reference_run(self, name, tmp_path):
        plan = BENCH.Plan(BENCH.WORKLOADS[name], 5, 300_000, str(tmp_path / "out"),
                          str(tmp_path / "replay.trace"))
        plan.prepare()
        cfg = build_config(None, plan.overrides(plan.workload.technique))
        cache = cfg.cache
        assert (cache.num_colors, cache.sets_per_color, cache.associativity) == (64, 64, 16)
        assert 300_000 % experiment.CHUNK  # so the feed ends in a partial chunk
        _, decisions, _ = check_run_against_reference(cfg, plan.events_prefix(300_000))
        assert decisions  # the technique acted


class TestInlineSplitAgainstReference:
    """The engine splits addresses inline; replay each event on the reference
    too, remapping it as the engine's decision log says, and compare."""

    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["swl", "xor", "static"]), count_fills=st.booleans(),
           colors=st.sampled_from([2, 4, 8]), k=st.integers(1, 12),
           seed=st.integers(0, 2**32 - 1))
    def test_one_event_runs_match_reference_through_remaps(self, kind, count_fills,
                                                           colors, k, seed):
        cfg = small_cfg(colors=colors, sets_per_color=4, assoc=2)
        rng = seeded(seed)
        page = cfg.page_size_bytes
        sim = Simulator(cfg, build_policy(kind, colors, k_writes=k, beta=0,
                                          min_gap_cycles=0), count_fills=count_fills)
        ref = ReferenceSimulator(cfg, count_fills=count_fills)
        misses = logged = 0
        for i in range(1, 301):
            # skewed toward page 0, any byte offset, some addresses near 2^48
            if rng.random() < 0.5:
                addr = rng.randrange(page)
            elif rng.random() < 0.9:
                addr = rng.randrange(4 * colors * page)
            else:
                addr = rng.randrange(MAX_ADDRESS + 1)
            ev = TraceEvent(rng.random() < 0.7, addr, 3 * i)
            sim.run([ev])
            hit, _ = ref.access_addr(ev.addr, ev.is_write)
            misses += not hit
            for decision in sim.decisions[logged:]:
                for c1, c2 in decision.swaps:
                    ref.remap(c1, c2)
            logged = len(sim.decisions)
        stats = sim.result()
        if kind == "xor":
            assert any(d.swaps for d in sim.decisions)
        assert stats.misses == misses
        assert stats.writebacks == ref.writebacks
        assert stats.flush_writebacks == ref.flush_writebacks
        assert sim.mapping.color_of == ref.color_of
        assert sim.cache.write_counts == ref.write_count_matrix()


def _run_split(cfg, events, splits, policy_kind, count_fills, **policy_kw):
    """One simulator fed ``events`` in pieces cut at the ``splits`` indices."""
    sim = Simulator(cfg, build_policy(policy_kind, cfg.num_colors, **policy_kw),
                    count_fills=count_fills)
    bounds = [0, *sorted(splits), len(events)]
    for lo, hi in zip(bounds, bounds[1:]):
        sim.run(events[lo:hi])
    return sim


def _assert_same_run(a, b):
    assert a.result() == b.result()
    # RemapDecision equality covers the engine's interval/cycle/writebacks stamps
    assert a.decisions == b.decisions
    assert a.mapping_audit == b.mapping_audit
    assert a.mapping.color_of == b.mapping.color_of


class TestResumableRun:
    CFG = small_cfg(colors=4, sets_per_color=4, assoc=2)

    def _events(self, n, seed, write_fraction=0.7):
        spec = GeneratorSpec(kind="hotset", num_events=n, write_fraction=write_fraction,
                             hotset_fraction=0.25, page_count=16, seed=seed)
        return list(generate(spec, self.CFG))

    @settings(max_examples=60, deadline=None)
    @given(kind=st.sampled_from(["static", "swl", "xor"]),
           count_fills=st.booleans(),
           min_gap=st.sampled_from([0, 3000]),
           k_writes=st.integers(1, 60),
           seed=st.integers(0, 1000),
           n=st.integers(0, 1500),
           data=st.data())
    def test_any_split_gives_the_one_call_result(self, kind, count_fills, min_gap,
                                                 k_writes, seed, n, data):
        events = self._events(n, seed)
        splits = data.draw(st.lists(st.integers(0, n), max_size=8))
        kw = {} if kind == "static" else dict(k_writes=k_writes, min_gap_cycles=min_gap,
                                              beta=0.0)
        whole = _run_split(self.CFG, events, [], kind, count_fills, **kw)
        pieces = _run_split(self.CFG, events, splits, kind, count_fills, **kw)
        _assert_same_run(whole, pieces)

    @pytest.mark.parametrize("kind", ["swl", "xor"])
    @pytest.mark.parametrize("min_gap", [0, 3000])
    @pytest.mark.parametrize("split", [[49], [50], [49, 50], [99]])
    def test_split_at_the_k_th_write(self, kind, min_gap, split):
        # all writes and fills not counted: event i is the (i + 1)-th counted
        # write, so index 49 is the 50th and a split at 49 falls just before it
        events = self._events(600, seed=4, write_fraction=1.0)
        kw = dict(k_writes=50, min_gap_cycles=min_gap, beta=0.0)
        whole = _run_split(self.CFG, events, [], kind, False, **kw)
        pieces = _run_split(self.CFG, events, split, kind, False, **kw)
        assert whole.decisions  # the policy acted, so the split was tested
        _assert_same_run(whole, pieces)


def _configs(tmp_path, n, source):
    cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
    spec = GeneratorSpec(kind="hotset", num_events=n, write_fraction=0.8,
                         hotset_fraction=0.25, page_count=16, seed=7)
    if source == "trace":
        path = str(tmp_path / "t.trace")
        write_trace(path, generate(spec, cfg))
        stream = dict(trace_path=path)
    else:
        stream = dict(workload=spec)
    base = ExperimentConfig(cache=cfg, policy_kind="static", out_dir="unused", **stream)
    tech = dataclasses.replace(base, policy_kind="swl", k_writes=100,
                               min_gap_cycles=0, beta=0.0)
    return base, tech


class TestOneStreamPerCompare:
    @pytest.mark.parametrize("source", ["generator", "trace"])
    @pytest.mark.parametrize("n", [0, 1, experiment.CHUNK - 1, experiment.CHUNK,
                                   experiment.CHUNK + 1])
    def test_compare_equals_two_runs(self, tmp_path, source, n):
        base, tech = _configs(tmp_path, n, source)
        comparison = compare_experiments(base, tech)
        assert comparison.baseline == run_experiment(base)
        assert comparison.technique == run_experiment(tech)
        assert comparison.baseline.stats.reads + comparison.baseline.stats.writes == n
        if n > experiment.CHUNK:
            assert comparison.technique.decisions  # the policy acted

    @pytest.mark.parametrize("source", ["generator", "trace"])
    def test_stream_produced_once_per_compare(self, tmp_path, monkeypatch, source):
        calls = {"generate": 0, "read_trace": 0}

        def counting(name):
            original = getattr(experiment, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(experiment, name, counting(name))
        base, tech = _configs(tmp_path, 3 * experiment.CHUNK, source)
        compare_experiments(base, tech)
        used = "read_trace" if source == "trace" else "generate"
        assert calls == {name: int(name == used) for name in calls}

    def test_malformed_trace_fails_once_naming_its_line(self, tmp_path, monkeypatch):
        base, tech = _configs(tmp_path, 2 * experiment.CHUNK, "trace")
        path = base.trace_path
        with open(path, "a") as fh:
            fh.write("X 0x40 99999999\n")
        lineno = 2 * experiment.CHUNK + 1
        parsed = []
        original = experiment.read_trace
        monkeypatch.setattr(experiment, "read_trace",
                            lambda p: parsed.append(p) or original(p))
        with pytest.raises(TraceFormatError, match=rf"t\.trace:{lineno}: unknown kind"):
            compare_experiments(base, tech)
        assert parsed == [path]
