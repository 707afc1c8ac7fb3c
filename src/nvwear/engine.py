"""Simulation loop tying workload, cache, mapping, and policy together."""

import logging
from dataclasses import dataclass, field

from .cache import CacheState, decompose_address
from .coloring import MappingTable
from .metrics import RunStats, block_write_sd

log = logging.getLogger("nvwear.engine")


@dataclass
class RunResult:
    stats: RunStats
    decisions: list = field(default_factory=list)  # policy.RemapDecision
    mapping_audit: list = field(default_factory=list)  # (interval, region, color)
    mapping: MappingTable | None = None


class Simulator:
    """Replays one event stream against one cache and one wear policy.

    Timing model: 1 cycle per instruction between accesses plus the cache
    latency of each access (memory round trips included in the miss
    latency). Cell-programming events feed the policy at the granularity of
    the color that absorbed them; the policy's remap decisions come back as
    color swaps, which flush through the mapping table and are charged as
    memory writebacks.

    ``run`` may be called repeatedly: each call resumes where the last one
    stopped, so a stream fed in pieces gives the same result as one call.
    ``result()`` closes the run and summarises it.
    """

    def __init__(self, cfg, policy, count_fills=True):
        self.cfg = cfg
        self.policy = policy
        self.mapping = MappingTable(cfg.num_colors)
        self.cache = CacheState(cfg, count_fills=count_fills)
        self.decisions = []
        self.mapping_audit = [(0, region, color)
                              for region, color in enumerate(self.mapping.color_of)]
        self._counters = (0,) * 9  # the loop's counters, as run() unpacks them

    def run(self, events):
        """Replay events, continuing from the previous call."""
        cfg = self.cfg
        cache = self.cache
        mapping = self.mapping
        sets_per_color = cfg.sets_per_color
        count_fills = cache.count_fills
        # bound once per call, so instrumentation must patch them before run()
        decompose = decompose_address
        access = cache.access
        note_write = self.policy.note_write
        poll = self.policy.poll
        decisions = self.decisions
        audit = self.mapping_audit
        (cycles, last_icount, interval, reads, writes, misses, writebacks,
         flush_writebacks, remap_runs) = self._counters
        for is_write, addr, icount in events:
            delta = icount - last_icount
            last_icount = icount
            if delta > 0:
                cycles += delta
            set_index, tag = decompose(addr, cfg, mapping)
            outcome = access(set_index, tag, is_write)
            cycles += outcome.latency
            if is_write:
                writes += 1
            else:
                reads += 1
            if not outcome.hit:
                misses += 1
                if outcome.evicted_dirty:
                    writebacks += 1
                # a fill programs the block only when fills count
                if not (is_write or count_fills):
                    continue
            elif not is_write:
                continue
            if not note_write(set_index // sets_per_color):
                continue
            decision = poll(cycles)
            if decision is None:
                continue
            interval += 1
            flushed = mapping.apply_remap(cache, decision.swaps)
            flush_writebacks += flushed
            if decision.ran:
                remap_runs += 1
                if decision.swaps:
                    audit.extend((interval, region, color)
                                 for region, color in enumerate(mapping.color_of))
            decision.interval = interval
            decision.cycle = cycles
            decision.writebacks = flushed
            decisions.append(decision)
            log.debug("interval %d @%d cycles: sdw=%.3f swaps=%s writebacks=%d",
                      interval, cycles, decision.sdw, decision.swaps, flushed)
        self._counters = (cycles, last_icount, interval, reads, writes, misses,
                          writebacks, flush_writebacks, remap_runs)

    def result(self) -> RunResult:
        """Statistics, decision log and mapping audit of everything run so far."""
        cache = self.cache
        (cycles, last_icount, _, reads, writes, misses, writebacks,
         flush_writebacks, remap_runs) = self._counters
        stats = RunStats(
            reads=reads, writes=writes, misses=misses, fills=cache.n_fills,
            write_hits=cache.n_write_hits, block_write_events=cache.n_block_writes,
            writebacks=writebacks, flush_writebacks=flush_writebacks,
            cycles=cycles, instructions=last_icount,
            max_block_writes=cache.max_block_writes(),
            block_write_sd=block_write_sd(cache), remap_runs=remap_runs)
        return RunResult(stats=stats, decisions=self.decisions,
                         mapping_audit=self.mapping_audit, mapping=self.mapping)
