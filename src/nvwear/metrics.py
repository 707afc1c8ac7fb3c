"""Lifetime, energy, and MPKI accounting over finished runs."""

import math
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat

from .errors import ConfigError


# Per-event and leakage energy of the cache and main memory (joules, watts).
READ_ENERGY_J = 1.015e-9
WRITE_ENERGY_J = 1.036e-9
CACHE_LEAKAGE_W = 2.235
MEM_ACCESS_ENERGY_J = 70e-9
MEM_LEAKAGE_W = 0.18


@dataclass
class RunStats:
    """Raw counters of one simulation run.

    ``block_write_events`` counts cell-programming events (fills under the
    default counting mode, plus write hits); ``writebacks`` are dirty
    evictions, kept separate from ``flush_writebacks`` caused by remaps.
    """

    reads: int = 0
    writes: int = 0
    misses: int = 0
    fills: int = 0
    write_hits: int = 0
    block_write_events: int = 0
    writebacks: int = 0
    flush_writebacks: int = 0
    cycles: int = 0
    instructions: int = 0
    max_block_writes: int = 0
    block_write_sd: float = 0.0
    remap_runs: int = 0


def relative_lifetime(baseline: RunStats, technique: RunStats):
    """Baseline max block writes over technique's; higher is better.

    Returns ``inf`` when the technique saw no block writes at all, and None
    when neither run did (0/0).
    """
    if technique.max_block_writes == 0:
        return math.inf if baseline.max_block_writes > 0 else None
    return baseline.max_block_writes / technique.max_block_writes


def energy_joules(stats: RunStats, frequency_hz):
    """Total cache + memory energy: per-event dynamic terms plus leakage
    integrated over the run's wall time (cycles / frequency)."""
    if frequency_hz <= 0:
        raise ConfigError("frequency_hz must be positive")
    seconds = stats.cycles / frequency_hz
    mem_accesses = stats.misses + stats.writebacks + stats.flush_writebacks
    return (stats.reads * READ_ENERGY_J
            + stats.block_write_events * WRITE_ENERGY_J
            + mem_accesses * MEM_ACCESS_ENERGY_J
            + (CACHE_LEAKAGE_W + MEM_LEAKAGE_W) * seconds)


def mpki(misses, instructions):
    """Misses per thousand instructions; None when no instructions ran."""
    if instructions <= 0:
        return None
    return misses * 1000.0 / instructions


def population_sd(values):
    """Population standard deviation of a sequence of integers. One
    ``Counter`` pass gives each distinct value's count, and from those the
    number of values, their exact sum, and the correctly rounded ``math.fsum``
    of their squared deviations, one term per value repeated by its count."""
    counts = Counter(values)
    n = sum(counts.values())
    if n < 1:
        raise ValueError("population SD needs at least one value")
    mean = sum(v * c for v, c in counts.items()) / n
    return math.sqrt(math.fsum(chain.from_iterable(
        repeat((v - mean) ** 2, c) for v, c in counts.items())) / n)


def block_write_sd(state):
    """Population SD of the write counters across every block in the cache."""
    return population_sd(state._writes)
