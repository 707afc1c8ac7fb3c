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
    """

    def __init__(self, cfg, policy, count_fills=True):
        self.cfg = cfg
        self.policy = policy
        self.mapping = MappingTable(cfg.num_colors)
        self.cache = CacheState(cfg, count_fills=count_fills)

    def run(self, events) -> RunResult:
        cfg = self.cfg
        cache = self.cache
        mapping = self.mapping
        policy = self.policy
        sets_per_color = cfg.sets_per_color
        count_fills = cache.count_fills
        # bound once per run, so instrumentation must patch them before run()
        decompose = decompose_address
        access = cache.access
        note_write = policy.note_write
        poll = policy.poll
        decisions = []
        audit = [(0, region, color) for region, color in enumerate(mapping.color_of)]

        cycles = 0
        last_icount = 0
        interval = 0
        reads = writes = misses = writebacks = flush_writebacks = remap_runs = 0
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

        stats = RunStats(
            reads=reads, writes=writes, misses=misses, fills=cache.n_fills,
            write_hits=cache.n_write_hits, block_write_events=cache.n_block_writes,
            writebacks=writebacks, flush_writebacks=flush_writebacks,
            cycles=cycles, instructions=last_icount,
            max_block_writes=cache.max_block_writes(),
            block_write_sd=block_write_sd(cache), remap_runs=remap_runs)
        return RunResult(stats=stats, decisions=decisions, mapping_audit=audit,
                         mapping=mapping)
