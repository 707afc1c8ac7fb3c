"""Output checks of the nvwear benchmark, counted instead of raised.

Checks are counted by kind, not by evaluation: a kind counts once in
``Checks.attempted`` however many compares evaluate it, and once in
``Checks.failed`` if any evaluation of it fails. Both counts are therefore
fixed by the set of kinds, not by how many compares fit in a run, so one
failing kind moves the pass ratio by the same amount on any host. A failed
evaluation records its message in ``Checks.failures``; the benchmark reports
the counts, so a wrong output shows up in the result line instead of stopping
the run.
"""

import csv
import hashlib
import os

from nvwear import CacheState, MappingTable, ReferenceSimulator, decompose_address

# compare outputs that must be byte-identical between repeats of one seed;
# summary.md carries a timestamp and is left out
DETERMINISTIC_FILES = ("report.csv", "plot.csv",
                       "baseline_decisions.csv", "technique_decisions.csv",
                       "baseline_mapping_audit.csv", "technique_mapping_audit.csv")


class Checks:
    def __init__(self):
        self.kinds = {}            # kind -> messages of its failed evaluations

    @property
    def attempted(self):
        return len(self.kinds)

    @property
    def failed(self):
        return sum(1 for messages in self.kinds.values() if messages)

    @property
    def failures(self):
        return [m for messages in self.kinds.values() for m in messages]

    def expect(self, kind, ok, message):
        messages = self.kinds.setdefault(kind, [])
        if not ok:
            messages.append(message)


def _final_mapping(report):
    """Apply the decision log's swaps, in order, to an identity table."""
    table = MappingTable(report.config.cache.num_colors)
    for decision in report.decisions:
        for c1, c2 in decision.swaps:
            table.swap(c1, c2)
    return table


def _last_audited_colors(report):
    last = report.mapping_audit[-1][0]
    return [color for interval, _, color in report.mapping_audit if interval == last]


def check_comparison(checks, comparison, events, out_dir):
    """Counter identities of both runs, the final mapping, and report.csv."""
    for role, rep in (("baseline", comparison.baseline),
                      ("technique", comparison.technique)):
        s = rep.stats
        checks.expect("events", s.reads + s.writes == events,
                      f"{role}: reads + writes = {s.reads + s.writes}, "
                      f"expected {events} events")
        checks.expect("fills", s.fills == s.misses,
                      f"{role}: fills {s.fills} != misses {s.misses}")
        checks.expect("block_writes",
                      s.block_write_events == s.write_hits + s.fills,
                      f"{role}: block writes {s.block_write_events} != write hits "
                      f"{s.write_hits} + fills {s.fills}")
        table = _final_mapping(rep)
        checks.expect("mapping", table.is_consistent()
                      and table.color_of == _last_audited_colors(rep),
                      f"{role}: replayed swaps do not give a consistent mapping "
                      f"equal to the last audit snapshot")
    base = comparison.baseline.stats
    checks.expect("static_no_remap",
                  base.remap_runs == 0 and base.flush_writebacks == 0,
                  f"static baseline: {base.remap_runs} remaps, "
                  f"{base.flush_writebacks} flush writebacks")
    with open(os.path.join(out_dir, "report.csv"), newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    reps = (comparison.baseline, comparison.technique)
    checks.expect(
        "report_csv", len(rows) == 2 and all(
            row["policy"] == rep.policy
            and row["maxBlockWrites"] == str(rep.stats.max_block_writes)
            and row["remapRuns"] == str(rep.stats.remap_runs)
            and row["flushWritebacks"] == str(rep.stats.flush_writebacks)
            for row, rep in zip(rows, reps)),
        "report.csv rows disagree with the in-memory run statistics")


def digest_outputs(out_dir):
    digests = {}
    for name in DETERMINISTIC_FILES:
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def check_repeat(checks, first, again):
    """A repeat of the same seed must rewrite every CSV body byte for byte."""
    differing = sorted(name for name in first if first[name] != again[name])
    checks.expect("repeat", not differing, f"repeat changed {', '.join(differing)}")


def check_oracle(checks, cfg, events):
    """Replay events through CacheState and ReferenceSimulator under the
    identity mapping, as tests/helpers.replay_both does; hit/evict outcomes
    and the final write-count matrices must match."""
    cache = CacheState(cfg, count_fills=True)
    mapping = MappingTable(cfg.num_colors)
    ref = ReferenceSimulator(cfg, count_fills=True)
    replayed = differing = 0
    for ev in events:
        set_index, tag = decompose_address(ev.addr, cfg, mapping)
        out = cache.access(set_index, tag, ev.is_write)
        if (out.hit, out.evicted_dirty) != ref.access_addr(ev.addr, ev.is_write):
            differing += 1
        replayed += 1
    checks.expect("oracle_outcomes", replayed > 0 and differing == 0,
                  f"oracle: {differing} of {replayed} access outcomes differ")
    checks.expect("oracle_matrix", cache.write_counts == ref.write_count_matrix(),
                  "oracle: write-count matrices differ")
