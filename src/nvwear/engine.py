"""Simulation loop tying workload, cache, mapping, and policy together."""

import logging

from .cache import CacheState
# run() splits addresses inline and no longer calls this, but
# perfbench/tracer.py looks the name up in vars(engine) to tally it; keep the
# binding until the tracer stops doing so
from .cache import decompose_address  # noqa: F401
from .coloring import MappingTable
from .metrics import RunStats, block_write_sd

log = logging.getLogger("nvwear.engine")


def _cycles(icount, read_hits, write_hits, misses, cfg):
    """The timing model: the instructions executed so far (icounts never
    decrease, so the gaps between accesses sum to the latest icount) plus the
    latency of every access. A miss pays the memory round trip plus the fill
    write."""
    return (icount + read_hits * cfg.hit_read_latency + write_hits * cfg.hit_write_latency
            + misses * (cfg.miss_penalty + cfg.hit_write_latency))


class Simulator:
    """Replays one event stream against one cache and one wear policy.

    Timing model: 1 cycle per instruction between accesses plus the cache
    latency of each access (memory round trips included in the miss
    latency). Icounts must never decrease: ``run`` raises ValueError on one
    that does, and a run that raised cannot be resumed. Cell-programming
    events feed the policy's write window at the granularity of the color
    that absorbed them, and every K-th of them polls the policy; its remap
    decisions come back as color swaps, which flush through the mapping table
    and are charged as memory writebacks.

    ``run`` may be called repeatedly: each call resumes where the last one
    stopped, so a stream fed in pieces gives the same result as one call.
    ``result()`` closes the run and returns its statistics; its decision log
    and mapping audit are ``decisions`` and ``mapping_audit``.
    """

    def __init__(self, cfg, policy, count_fills=True):
        self.cfg = cfg
        self.policy = policy
        self.mapping = MappingTable(cfg.num_colors)
        self.cache = CacheState(cfg, count_fills=count_fills)
        self.decisions = []
        self.mapping_audit = [(0, region, color)
                              for region, color in enumerate(self.mapping.color_of)]
        self._counters = (0,) * 6  # the loop's counters, as run() unpacks them

    def run(self, events):
        """Replay events, continuing from the previous call."""
        cfg = self.cfg
        cache = self.cache
        mapping = self.mapping
        policy = self.policy
        sets_per_color = cfg.sets_per_color
        count_fills = cache.count_fills
        # decompose_address with shifts and masks: every geometry field is a
        # power of two. MappingTable.swap edits color_of in place, so it stays
        # the live table for the whole call.
        color_of = mapping.color_of
        block_shift = cfg.block_size_bytes.bit_length() - 1
        page_shift = cfg.page_size_bytes.bit_length() - 1
        tag_shift = page_shift + cfg.num_colors.bit_length() - 1
        color_mask = cfg.num_colors - 1
        set_mask = sets_per_color - 1
        # bound once per call, so instrumentation must patch them before run()
        access = cache.access
        poll = policy.poll
        read_hit, write_hit, _, dirty_miss = cache.outcomes
        # The write window: each counted write goes to its color's window and
        # lifetime count, as observe_write would, and the policy is polled only
        # at the K-th; close_window empties the same list. A policy without a
        # window (static) is never counted or polled.
        window = policy.n_write_last_interval
        if window is not None:
            lifetime = policy.n_write_global
            k_writes = policy.k_writes
            counted = policy.writes_since_check
        decisions = self.decisions
        audit = self.mapping_audit
        # the access latencies are added to the icount from the outcome counts
        # (_cycles) when a cycle is needed
        (last_icount, read_hits, write_hits, read_misses, write_misses,
         writebacks) = self._counters
        for is_write, addr, icount in events:
            if icount < last_icount:
                raise ValueError(f"instruction count decreased "
                                 f"({last_icount} -> {icount})")
            last_icount = icount
            color = color_of[addr >> page_shift & color_mask]
            outcome = access(color * sets_per_color + (addr >> block_shift & set_mask),
                             addr >> tag_shift, is_write)
            if outcome is read_hit:
                read_hits += 1
                continue
            if outcome is write_hit:
                write_hits += 1
            else:
                if outcome is dirty_miss:
                    writebacks += 1
                if is_write:
                    write_misses += 1
                else:
                    read_misses += 1
                    # a fill programs the block only when fills count
                    if not count_fills:
                        continue
            if window is None:
                continue
            window[color] += 1
            lifetime[color] += 1
            counted += 1
            if counted < k_writes:
                continue
            policy.writes_since_check = counted
            cycles = _cycles(icount, read_hits, write_hits, read_misses + write_misses,
                             cfg)
            decision = poll(cycles)
            counted = policy.writes_since_check  # the poll restarts the count
            if decision is None:
                continue
            decision.interval = len(decisions) + 1
            decision.cycle = cycles
            decision.writebacks = mapping.apply_remap(cache, decision.swaps)
            if decision.swaps:  # a decision with swaps has run
                audit.extend((decision.interval, region, color)
                             for region, color in enumerate(mapping.color_of))
            decisions.append(decision)
            log.debug("interval %d @%d cycles: sdw=%.3f swaps=%s writebacks=%d",
                      decision.interval, cycles, decision.sdw, decision.swaps,
                      decision.writebacks)
        if window is not None:
            policy.writes_since_check = counted
        self._counters = (last_icount, read_hits, write_hits, read_misses,
                          write_misses, writebacks)

    def result(self) -> RunStats:
        """Statistics of everything run so far."""
        cache = self.cache
        (last_icount, read_hits, write_hits, read_misses, write_misses,
         writebacks) = self._counters
        misses = read_misses + write_misses
        # every miss fills; a read fill programs the block only when fills count
        block_writes = write_hits + write_misses + read_misses * cache.count_fills
        return RunStats(
            reads=read_hits + read_misses, writes=write_hits + write_misses,
            misses=misses, fills=misses, write_hits=write_hits,
            block_write_events=block_writes, writebacks=writebacks,
            flush_writebacks=sum(d.writebacks for d in self.decisions),
            cycles=_cycles(last_icount, read_hits, write_hits, misses, self.cfg),
            instructions=last_icount, max_block_writes=cache.max_block_writes(),
            block_write_sd=block_write_sd(cache),
            remap_runs=sum(d.ran for d in self.decisions))
