import inspect
import statistics

import pytest

from nvwear import (CacheState, ConfigError, MappingTable, PolicyState,
                    StaticPolicy, SwapWearPolicy, XorRemapPolicy, build_policy)
from nvwear.metrics import population_sd
from nvwear.policy import PolicySettings, RemapDecision

from helpers import seeded, small_cfg
from oracles import plan_remap_oracle


class TestObserveWrite:
    def test_first_write(self):
        ps = PolicyState(4)
        ps.observe_write(3)
        assert ps.n_write_global[3] == 1
        assert ps.n_write_last_interval[3] == 1
        assert ps.writes_since_check == 1

    def test_accumulates_per_color(self):
        ps = PolicyState(4)
        for _ in range(5):
            ps.observe_write(0)
        assert ps.n_write_global[0] == 5

    def test_counts_total_writes(self):
        ps = PolicyState(4)
        for color in (0, 1, 0):
            ps.observe_write(color)
        assert ps.writes_since_check == 3


class TestStddev:
    def test_constant_vector(self):
        assert population_sd([2, 2, 2, 2]) == 0.0

    def test_single_hot_color(self):
        # mean 100, variance (300^2 + 3*100^2)/4 = 30000
        assert population_sd([400, 0, 0, 0]) == pytest.approx(
            173.20508075688772, rel=1e-12)

    def test_single_element(self):
        assert population_sd([5]) == 0.0

    def test_empty_vector_rejected(self):
        with pytest.raises(ValueError):
            population_sd([])

    def test_matches_pstdev_on_random_vectors(self):
        rng = seeded(31)
        for _ in range(300):
            vec = [rng.randrange(1000) for _ in range(rng.randint(1, 32))]
            assert population_sd(vec) == pytest.approx(statistics.pstdev(vec),
                                                           rel=1e-12, abs=1e-12)


class TestTrigger:
    def _state(self, k=1000, gap=3_000_000):
        return PolicyState(4, k_writes=k, min_gap_cycles=gap)

    def _feed(self, ps, writes):
        for _ in range(writes):
            ps.observe_write(0)

    def test_fires_when_k_and_gap_met(self):
        ps = self._state()
        self._feed(ps, 1000)
        assert ps.check_trigger(4_000_000) is True
        assert ps.writes_since_check == 0
        assert ps.deferred is False

    def test_defers_inside_gap(self):
        ps = self._state()
        self._feed(ps, 1000)
        assert ps.check_trigger(1_000_000) is False
        assert ps.deferred is True
        assert ps.writes_since_check == 0  # counter restarts on deferral

    def test_fires_after_deferral_with_another_k(self):
        ps = self._state()
        self._feed(ps, 1000)
        assert ps.check_trigger(1_000_000) is False
        self._feed(ps, 999)
        assert ps.check_trigger(5_000_000) is False  # another K not yet reached
        self._feed(ps, 1)
        assert ps.check_trigger(5_000_001) is True
        assert ps.deferred is False

    def test_below_k_never_fires(self):
        ps = self._state()
        self._feed(ps, 999)
        assert ps.check_trigger(10_000_000) is False
        assert ps.deferred is False

    def test_gap_measured_from_last_fire(self):
        ps = self._state()
        self._feed(ps, 1000)
        assert ps.check_trigger(3_000_000) is True
        self._feed(ps, 1000)
        assert ps.check_trigger(5_999_999) is False  # 2,999,999 since last run
        self._feed(ps, 1000)
        assert ps.check_trigger(6_000_000) is True


class TestPlanRemap:
    def test_worked_example(self):
        ps = PolicyState(4, beta=75, swap_limit=1, swap_limit_mode="min",
                         k_writes=1, min_gap_cycles=0)
        ps.n_write_last_interval[:] = [400, 0, 0, 0]
        ps.n_write_global[:] = [400, 50, 20, 10]
        decision = ps.plan_remap()
        assert decision.ran is True
        assert decision.sdw == pytest.approx(173.20508075688772, rel=1e-12)
        assert decision.n_higher == 1
        assert decision.swaps == [(0, 3)]

    def test_gate_skips_but_resets_interval(self):
        ps = PolicyState(4, beta=75)
        for color in range(4):
            for _ in range(10):
                ps.observe_write(color)
        globals_before = list(ps.n_write_global)
        decision = ps.plan_remap()
        assert decision.ran is False
        assert decision.swaps == []
        assert ps.n_write_last_interval == [0, 0, 0, 0]
        assert ps.n_write_global == globals_before

    def test_self_pair_possible_and_harmless(self):
        # hottest recent color is also the least worn: pair is (c, c)
        ps = PolicyState(4, beta=0, swap_limit=1)
        ps.n_write_last_interval[:] = [0, 0, 400, 0]
        ps.n_write_global[:] = [500, 600, 10, 700]
        decision = ps.plan_remap()
        assert decision.swaps == [(2, 2)]
        cfg = small_cfg(colors=4, sets_per_color=2, assoc=1)
        cache = CacheState(cfg)
        cache.access(2 * cfg.sets_per_color, 1, True)
        mapping = MappingTable(4)
        assert mapping.apply_remap(cache, decision.swaps) == 0
        assert mapping.color_of == [0, 1, 2, 3]
        assert cache.lru_order(2 * cfg.sets_per_color) == [1]

    def test_max_mode_caps_at_half_the_colors(self):
        ps = PolicyState(8, beta=0, swap_limit=4, swap_limit_mode="max")
        ps.n_write_last_interval[:] = [100, 90, 80, 70, 60, 50, 0, 0]
        ps.n_write_global[:] = list(range(8))
        decision = ps.plan_remap()
        assert decision.n_higher == 5
        assert len(decision.swaps) == 4  # max(5, 4) clipped to N/2

    def test_min_mode_uses_smaller_of_the_two(self):
        ps = PolicyState(8, beta=0, swap_limit=4, swap_limit_mode="min")
        ps.n_write_last_interval[:] = [800, 0, 0, 0, 0, 0, 0, 0]
        ps.n_write_global[:] = [800, 1, 2, 3, 4, 5, 6, 7]
        decision = ps.plan_remap()
        assert decision.n_higher == 1
        assert decision.swaps == [(0, 1)]

    def test_tie_break_is_ascending_color_index(self):
        ps = PolicyState(4, beta=0, swap_limit=2)
        ps.n_write_last_interval[:] = [50, 50, 50, 50]
        ps.n_write_global[:] = [7, 7, 7, 7]
        decision = ps.plan_remap()
        # all tied: L1 = L2 = [0, 1, 2, 3], n_higher = 0 -> min(0, 2) pairs
        assert decision.swaps == []
        ps.n_write_last_interval[:] = [50, 50, 0, 0]
        ps.n_write_global[:] = [7, 7, 7, 7]
        decision = ps.plan_remap()
        assert decision.swaps == [(0, 0), (1, 1)]

    def test_gate_holds_for_analytically_small_spread(self):
        # values confined to a window of width w have population SD <= w/2
        rng = seeded(88)
        for _ in range(400):
            n = rng.choice((2, 4, 8, 16))
            base = rng.randrange(10_000)
            width = rng.randrange(1, 100)
            ps = PolicyState(n, beta=width / 2 + 1)
            ps.n_write_last_interval[:] = [base + rng.randrange(width + 1)
                                           for _ in range(n)]
            ps.n_write_global[:] = [rng.randrange(10_000) for _ in range(n)]
            decision = ps.plan_remap()
            assert decision.ran is False
            assert decision.swaps == []

    def test_swap_count_bounds(self):
        rng = seeded(89)
        for _ in range(500):
            n = rng.choice((4, 8, 16))
            limit = rng.randint(1, n // 2)
            mode = rng.choice(("min", "max"))
            ps = PolicyState(n, beta=0.0, swap_limit=limit, swap_limit_mode=mode)
            ps.n_write_last_interval[:] = [rng.randrange(50) for _ in range(n)]
            ps.n_write_global[:] = [rng.randrange(50) for _ in range(n)]
            decision = ps.plan_remap()
            assert len(decision.swaps) <= n // 2
            if mode == "min":
                assert len(decision.swaps) <= min(decision.n_higher, limit)
            else:
                assert len(decision.swaps) <= max(decision.n_higher, limit)

    def test_differential_against_transcription(self):
        rng = seeded(404)
        for _ in range(1500):
            n = rng.choice((2, 4, 8, 16))
            last = [rng.randrange(0, rng.choice((3, 40, 500))) for _ in range(n)]
            cumulative = [rng.randrange(0, 2000) for _ in range(n)]
            beta = rng.choice((0.0, 5.0, 75.0, 300.0))
            limit = rng.randint(1, n // 2)
            mode = rng.choice(("min", "max"))
            ps = PolicyState(n, beta=beta, swap_limit=limit, swap_limit_mode=mode)
            ps.n_write_last_interval[:] = last
            ps.n_write_global[:] = cumulative
            decision = ps.plan_remap()
            ran, swaps, sdw, n_higher = plan_remap_oracle(last, cumulative,
                                                          beta, limit, mode)
            assert decision.ran == ran
            assert decision.swaps == swaps
            assert decision.n_higher == n_higher
            assert decision.sdw == pytest.approx(sdw, rel=1e-9, abs=1e-9)
            assert ps.n_write_last_interval == [0] * n
            assert ps.n_write_global == cumulative


class TestXorPolicy:
    def _run_policy(self, policy, writes, cycle):
        for _ in range(writes):
            policy.observe_write(0)
        return policy.poll(cycle)

    def test_register_starts_at_identity(self):
        policy = build_policy("xor", 4, k_writes=10, min_gap_cycles=0)
        assert policy.register == 0

    def test_first_interval_maps_region_to_xor_one(self):
        policy = build_policy("xor", 4, k_writes=10, min_gap_cycles=0)
        decision = self._run_policy(policy, 10, 100)
        assert decision.ran
        mapping = MappingTable(4)
        cfg = small_cfg(colors=4, sets_per_color=2, assoc=1)
        mapping.apply_remap(CacheState(cfg), decision.swaps)
        assert mapping.color_of == [1, 0, 3, 2]

    def test_register_sequence_revisits_colors(self):
        policy = build_policy("xor", 4, k_writes=10, min_gap_cycles=0)
        mapping = MappingTable(4)
        cfg = small_cfg(colors=4, sets_per_color=2, assoc=1)
        cache = CacheState(cfg)
        seen = []
        for cycle in (100, 200, 300, 400):
            decision = self._run_policy(policy, 10, cycle)
            mapping.apply_remap(cache, decision.swaps)
            seen.append(mapping.color_of[0])
        assert seen[:2] == [1, 2]  # region 0 visits color 1 then color 2
        assert policy.register != 0

    def test_whole_cache_flushed_each_interval(self):
        cfg = small_cfg(colors=4, sets_per_color=2, assoc=1)
        cache = CacheState(cfg)
        for s in range(cfg.num_sets):
            cache.access(s, 3, True)
        policy = build_policy("xor", 4, k_writes=1, min_gap_cycles=0)
        decision = self._run_policy(policy, 1, 50)
        mapping = MappingTable(4)
        assert mapping.apply_remap(cache, decision.swaps) == cfg.num_sets
        assert len(decision.swaps) == 2  # N/2 disjoint pairs
        covered = sorted(c for pair in decision.swaps for c in pair)
        assert covered == [0, 1, 2, 3]

    def test_same_trigger_cadence_as_swl(self):
        policy = build_policy("xor", 4, k_writes=100, min_gap_cycles=1000)
        assert self._run_policy(policy, 99, 5000) is None
        assert self._run_policy(policy, 1, 500) is None  # gap unmet: deferred
        assert self._run_policy(policy, 100, 6000) is not None


class TestStaticPolicy:
    def test_never_remaps(self):
        policy = StaticPolicy()
        assert policy.n_write_last_interval is None  # no window to count into
        for _ in range(10_000):
            assert policy.poll(10**9) is None


class TestValidation:
    def test_lambda_range(self):
        with pytest.raises(ConfigError):
            PolicyState(8, swap_limit=5)  # > N/2
        with pytest.raises(ConfigError):
            PolicyState(8, swap_limit=0)
        assert PolicyState(8).swap_limit == 2  # defaults to N/4

    def test_needs_two_colors(self):
        with pytest.raises(ConfigError):
            PolicyState(1)

    def test_rejects_bad_mode_and_thresholds(self):
        with pytest.raises(ConfigError):
            PolicyState(4, swap_limit_mode="median")
        with pytest.raises(ConfigError):
            PolicyState(4, beta=-1)
        with pytest.raises(ConfigError):
            PolicyState(4, beta=float("nan"))
        with pytest.raises(ConfigError):
            PolicyState(4, k_writes=0)

    def test_constructors_take_only_what_callers_set(self):
        # run state starts empty, and the engine stamps a decision after the fact
        settings = list(inspect.signature(PolicySettings).parameters)
        for cls in (PolicyState, XorRemapPolicy):
            assert list(inspect.signature(cls).parameters) == ["num_colors", *settings]
        assert list(inspect.signature(RemapDecision).parameters) == [
            "ran", "swaps", "sdw", "n_higher"]
        with pytest.raises(TypeError):
            PolicyState(4, deferred=True)
        with pytest.raises(TypeError):
            RemapDecision(True, interval=3)
        ps, decision = PolicyState(4), RemapDecision(True)
        assert (ps.writes_since_check, ps.last_run_cycle, ps.deferred) == (0, 0, False)
        assert (decision.interval, decision.cycle, decision.writebacks) == (0, 0, 0)

    def test_build_policy_kinds(self):
        assert isinstance(build_policy("static", 4), StaticPolicy)
        # every xor policy is a PolicyState too, so isinstance cannot tell them apart
        assert type(build_policy("swl", 4)) is SwapWearPolicy is PolicyState
        assert type(build_policy("xor", 4)) is XorRemapPolicy
        with pytest.raises(ConfigError):
            build_policy("rotate", 4)

    def test_xor_needs_a_power_of_two_color_count(self):
        with pytest.raises(ConfigError, match="power-of-two"):
            build_policy("xor", 6)
        assert type(build_policy("swl", 6)) is SwapWearPolicy
