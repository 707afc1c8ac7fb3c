import math
import statistics
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from nvwear import (CacheState, ConfigError, RunStats, block_write_sd,
                    energy_joules, mpki, relative_lifetime)
from nvwear.metrics import population_sd

from helpers import seeded, small_cfg

FREQ = 2_000_000_000


class TestEnergy:
    def test_reads_only_no_time(self):
        stats = RunStats(reads=10**6)
        assert energy_joules(stats, frequency_hz=FREQ) == pytest.approx(
            1.015e-3, rel=1e-9)

    def test_block_writes_priced_at_write_energy(self):
        stats = RunStats(block_write_events=1000)
        assert energy_joules(stats, frequency_hz=FREQ) == pytest.approx(
            1000 * 1.036e-9, rel=1e-9)

    def test_monotone_in_every_counter(self):
        base = RunStats(reads=10, writes=10, misses=3, fills=3, write_hits=4,
                        block_write_events=7, writebacks=2, flush_writebacks=1,
                        cycles=1000)
        e0 = energy_joules(base, frequency_hz=FREQ)
        for fld in ("reads", "block_write_events", "misses", "writebacks",
                    "flush_writebacks", "cycles"):
            bumped = replace(base, **{fld: getattr(base, fld) + 1})
            assert energy_joules(bumped, frequency_hz=FREQ) >= e0

    def test_constants_must_be_positive(self):
        with pytest.raises(ConfigError):
            energy_joules(RunStats(), frequency_hz=0)


class TestRelativeLifetime:
    def test_ratio(self):
        assert relative_lifetime(RunStats(max_block_writes=1000),
                                 RunStats(max_block_writes=250)) == 4.0

    def test_identical_runs(self):
        stats = RunStats(max_block_writes=123)
        assert relative_lifetime(stats, stats) == 1.0

    def test_zero_denominator(self):
        assert relative_lifetime(RunStats(max_block_writes=9),
                                 RunStats()) == math.inf
        assert relative_lifetime(RunStats(), RunStats()) is None


class TestMpki:
    def test_basic(self):
        assert mpki(500, 10**6) == 0.5

    def test_no_misses(self):
        assert mpki(0, 1000) == 0.0

    def test_doubling_instructions_halves(self):
        assert mpki(100, 2_000_000) == mpki(100, 1_000_000) / 2

    def test_zero_instructions_undefined(self):
        assert mpki(5, 0) is None

    def test_one_instruction(self):
        assert mpki(3, 1) == 3000.0


class TestBlockWriteSD:
    def test_uniform_counts_give_zero(self):
        cfg = small_cfg(colors=2, sets_per_color=2, assoc=2)
        cache = CacheState(cfg)
        for s in range(cfg.num_sets):
            for tag in (1, 2):
                cache.access(s, tag, True)
        assert block_write_sd(cache) == 0.0
        assert cache.max_block_writes() == 1

    def test_single_hot_block(self):
        # counts [4, 0, 0, 0]: mean 1, variance 3
        cfg = small_cfg(colors=2, sets_per_color=2, assoc=1)
        cache = CacheState(cfg)
        cache.access(0, 1, True)
        for _ in range(3):
            cache.access(0, 1, True)
        assert block_write_sd(cache) == pytest.approx(math.sqrt(3), rel=1e-12)

    def test_matches_pstdev(self):
        rng = seeded(77)
        cfg = small_cfg(colors=2, sets_per_color=4, assoc=2)
        cache = CacheState(cfg)
        for _ in range(500):
            cache.access(rng.randrange(cfg.num_sets), rng.randrange(4),
                         bool(rng.getrandbits(1)))
        flat = [c for row in cache.write_counts for c in row]
        assert block_write_sd(cache) == pytest.approx(statistics.pstdev(flat),
                                                      rel=1e-12)



def _sd_one_term_per_value(values):
    """An independent restatement of population_sd, written over a flat walk:
    one squared deviation per counter, summed by fsum, so every result must
    match it bit for bit."""
    n = len(values)
    mean = sum(values) / n
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n)


# small counts repeat many times; large ones test rounding
COUNTS = st.one_of(st.integers(0, 40), st.integers(2**20, 2**62))


class TestPopulationSD:
    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(COUNTS, min_size=1, max_size=384))
    def test_grouped_sum_equals_one_term_per_value(self, values):
        assert population_sd(values).hex() == _sd_one_term_per_value(values).hex()

    @pytest.mark.parametrize("value", [0, 7, 2**20 + 1, 2**61 + 3])
    def test_single_value_has_zero_spread(self, value):
        assert population_sd([value]) == 0.0 == _sd_one_term_per_value([value])

    def test_equal_values_have_zero_spread(self):
        assert population_sd([2, 2, 2, 2]) == 0.0

    def test_one_hot_value_among_four(self):
        # mean 100, variance (300^2 + 3 * 100^2) / 4 = 30000
        assert population_sd([400, 0, 0, 0]).hex() == "0x1.5a6900584fbe5p+7"

    def test_a_value_repeated_over_2_to_the_20_times(self):
        # one value fills 2^20 + 1024 counters, so its term repeats that often
        values = [3] * 1024 * 1025 + [2**21, 5, 3]
        assert population_sd(values).hex() == _sd_one_term_per_value(values).hex()

    # value, count pairs where a grouped sum that rounds each count x term
    # product (by fsum or sum) misses the last bit, and a plain sum of one
    # term per value misses more; only the exact sum gives these
    @pytest.mark.parametrize("groups, expected", [
        ([(799, 18), (32, 31), (844, 39), (887, 47)], "0x1.5b96217321c41p+8"),
        ([(506, 14), (264, 44)], "0x1.9e39f1efbc798p+6"),
        ([(759, 1), (687, 50), (65, 11)], "0x1.dca8daff1c9c4p+7"),
    ])
    def test_pinned_sums_that_rounded_products_miss(self, groups, expected):
        values = [value for value, count in groups for _ in range(count)]
        assert _sd_one_term_per_value(values).hex() == expected
        assert population_sd(values).hex() == expected

    def test_no_values_rejected(self):
        with pytest.raises(ValueError):
            population_sd([])
