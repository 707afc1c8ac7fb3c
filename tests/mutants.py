"""Opt-in mutant gate: each row of MUTANTS plants one small bug in a copy of
src/nvwear, and the test node ids of the row must fail on it.

    python tests/mutants.py

src/ is copied to a temp directory once. Each mutant replaces the row's old
text once by its new text in that copy, runs the row's node ids with
pytest.main in a forked child that imports nvwear from the copy, and restores
the file. The parent imports pytest and hypothesis once and never nvwear, so
every child imports nvwear afresh. A row whose old text is not found exactly
once fails the run, so a refactor that moves the code must update the row.
Before any mutant, all named node ids run once on the unmutated copy and must
pass. Exit status 0 means every mutant was killed; 2, that the platform has
no os.fork.

This file is not collected by pytest (its name does not start with test_).
"""

import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def refused(*rows):  # the node ids of rows of tests/test_refusals.py's REFUSALS table
    return [f"tests/test_refusals.py::test_refused_with_exit_2_naming_the_source[{r}]"
            for r in rows]


# One row per mutant: a name, the file under src/nvwear, the exact old text,
# the new text, and the test node ids (relative to the repository root)
# expected to kill it.
MUTANTS = (
    ("engine: every hit counted as a read hit", "engine.py",
     "            if outcome is hit:\n                if not is_write:",
     "            if outcome is hit:\n                if True:",
     ["tests/test_engine.py::TestCycleAccounting::test_write_hit_costs_ten_more_than_read_hit",
      "tests/test_engine.py::TestStatsBookkeeping::test_demand_counts_split"]),
    ("engine: the last icount not kept between run calls", "engine.py",
     "        self._counters = (last_icount, read_hits,",
     "        self._counters = (0, read_hits,",
     ["tests/test_engine.py::TestCycleAccounting::test_decreasing_icount_across_run_calls_raises",
      "tests/test_engine.py::TestResumableRun::test_any_split_gives_the_one_call_result"]),
    ("engine: the K-write count reset per run call", "engine.py",
     "            counted = policy.writes_since_check\n        # the access",
     "            counted = 0\n        # the access",
     ["tests/test_engine.py::TestResumableRun::test_split_at_the_k_th_write",
      "tests/test_engine.py::TestResumableRun::test_any_split_gives_the_one_call_result"]),
    ("engine: a dirty eviction not counted as a writeback", "engine.py",
     "                    writebacks += 1",
     "                    writebacks += 0",
     ["tests/test_engine.py::TestDeterminismAndOracle::test_static_run_matches_reference_counts",
      "tests/test_engine.py::TestWholeRunAgainstReference::test_run_matches_reference_run"]),
    ("engine: read fills always counted", "engine.py",
     "                    if not count_fills:\n                        continue",
     "                    if False:\n                        continue",
     ["tests/test_engine.py::TestStatsBookkeeping::"
      "test_policy_ledger_is_the_cache_counters_by_color",
      "tests/test_engine.py::TestStatsBookkeeping::test_count_fills_off_shrinks_write_counts",
      "tests/test_engine.py::TestWholeRunAgainstReference::test_run_matches_reference_run"]),
    ("engine: the set bits permuted inside a color", "engine.py",
     "(addr >> block_shift & set_mask)",
     "((addr >> block_shift ^ 1) & set_mask)",
     ["tests/test_engine.py::TestWholeRunAgainstReference::test_run_matches_reference_run"]),
    ("engine: the region bits permuted", "engine.py",
     "color_of[addr >> page_shift & color_mask]",
     "color_of[(addr >> page_shift ^ 1) & color_mask]",
     ["tests/test_engine.py::TestWholeRunAgainstReference::test_run_matches_reference_run"]),
    ("experiment: the stream produced per config", "experiment.py",
     "    while chunk := list(islice(events, CHUNK)):\n        for sim in sims:\n"
     "            sim.run(chunk)",
     "    for sim in sims:\n        sim.run(read_trace(cfg.trace_path) if cfg.trace_path"
     " else generate(cfg.workload, cfg.cache))",
     ["tests/test_engine.py::TestOneStreamPerCompare::test_stream_produced_once_per_compare",
      "tests/test_engine.py::TestOneStreamPerCompare::"
      "test_malformed_trace_fails_once_naming_its_line"]),
    ("experiment: the last partial chunk is dropped", "experiment.py",
     "    while chunk := list(islice(events, CHUNK)):",
     "    while len(chunk := list(islice(events, CHUNK))) == CHUNK:",
     ["tests/test_engine.py::TestWholeRunAtBenchmarkGeometry::"
      "test_run_matches_reference_run[zipf-miss]",
      "tests/test_engine.py::TestWholeRunAtBenchmarkGeometry::"
      "test_run_matches_reference_run[trace-replay]"]),
    ("cache: the LRU MRU check inverted", "cache.py",
     "            if lru[0] != tag:",
     "            if lru[0] == tag:",
     ["tests/test_cache.py::TestAccess::test_hit_promotes_to_mru",
      "tests/test_cache.py::TestDifferentialSmall::test_traces_match_reference"]),
    ("cache: a write hit leaves the block clean", "cache.py",
     "                self._dirty[block] = 1\n",
     "",
     ["tests/test_cache.py::TestDifferentialSmall::test_traces_match_reference",
      "tests/test_acceptance.py::test_c01_oracle_equivalence_on_randomized_traces"]),
    ("cache: a full set evicts its most recently used block", "cache.py",
     "            way = tags.index(lru.pop())",
     "            way = tags.index(lru.pop(0))",
     ["tests/test_cache.py::TestAccess::test_lru_evicts_oldest_and_reports_dirty",
      "tests/test_cache.py::TestDifferentialSmall::test_traces_match_reference"]),
    ("cache: a full set reads an evicted way's dirty byte at way mod 8", "cache.py",
     "            evicted_dirty = self._dirty[block]",
     "            evicted_dirty = self._dirty[set_index << self._way_bits | way & 7]",
     # the small drawn geometries have at most 4 ways; the 16-way default sees it
     ["tests/test_cache.py::TestSixteenWays::test_each_victim_reports_its_own_ways_dirty_byte",
      "tests/test_engine.py::TestWholeRunAtBenchmarkGeometry::"
      "test_run_matches_reference_run[zipf-miss]"]),
    ("cache: a clean fill leaves the evicted block's dirty byte set", "cache.py",
     "        self._dirty[block] = is_write",
     "        if is_write:\n            self._dirty[block] = 1",
     ["tests/test_cache.py::TestSixteenWays::test_each_victim_reports_its_own_ways_dirty_byte",
      "tests/test_cache.py::TestDifferentialSmall::test_traces_match_reference"]),
    ("cache: flush_color keeps the dirty bits", "cache.py",
     "        self._dirty[lo:hi] = bytes(hi - lo)\n",
     "",
     ["tests/test_cache.py::TestFlush::test_double_flush_returns_zero",
      "tests/test_cache.py::TestDifferentialSmall::test_remaps_and_flushes_match_reference"]),
    ("cache: the block bound at 2^25 blocks", "cache.py",
     "self.block_size_bytes > 1 << 24:",
     "self.block_size_bytes > 1 << 25:",
     ["tests/test_cache.py::TestCacheConfig::test_rejects_bad_geometry"]),
    ("cache: the set bound at 2^21 sets", "cache.py",
     "self.num_sets > 1 << 20:",
     "self.num_sets > 1 << 21:",
     ["tests/test_cache.py::TestCacheConfig::test_accepts_exactly_2_20_sets"]),
    ("cache: num_sets not derived from the colors", "cache.py",
     "        return self.num_colors * self.sets_per_color",
     "        return self.cache_size_bytes // self.block_size_bytes",
     ["tests/test_coloring.py::TestNumColors::test_reference_llc_has_64_colors"]),
    ("coloring: swap looks up the first color's region twice", "coloring.py",
     "self.color_of.index(c1), self.color_of.index(c2)",
     "self.color_of.index(c1), self.color_of.index(c1)",
     ["tests/test_coloring.py::TestSwap::test_identity_swap_0_3"]),
    ("policy: the constructor takes the deferred flag", "policy.py",
     "    deferred: bool = field(default=False, init=False)",
     "    deferred: bool = False",
     ["tests/test_policy.py::TestValidation::test_constructors_take_only_what_callers_set"]),
    ("policy: the beta gate opens only above beta", "policy.py",
     "        if sdw < self.beta:",
     "        if sdw <= self.beta:",
     ["tests/test_acceptance.py::test_c02_plan_remap_matches_straight_line_transcription"]),
    ("policy: the min-gap trigger defers at the gap itself", "policy.py",
     "        if now_cycle - self.last_run_cycle < self.min_gap_cycles:",
     "        if now_cycle - self.last_run_cycle <= self.min_gap_cycles:",
     ["tests/test_policy.py::TestTrigger::test_gap_measured_from_last_fire"]),
    ("policy: min mode takes the larger pair count", "policy.py",
     "            n_swap = min(n_higher, self.swap_limit)",
     "            n_swap = max(n_higher, self.swap_limit)",
     ["tests/test_policy.py::TestPlanRemap::test_min_mode_uses_smaller_of_the_two",
      "tests/test_acceptance.py::test_c02_plan_remap_matches_straight_line_transcription"]),
    ("policy: hot colors tie-break by descending index", "policy.py",
     "        l1 = sorted(range(n), key=lambda c: (-last[c], c))",
     "        l1 = sorted(range(n), key=lambda c: (-last[c], -c))",
     ["tests/test_policy.py::TestPlanRemap::test_tie_break_is_ascending_color_index",
      "tests/test_acceptance.py::test_c02_plan_remap_matches_straight_line_transcription"]),
    ("policy: xor falls back to swl's plan", "policy.py",
     "    def plan_remap(self):\n",
     "    def _xor_plan(self):\n",
     ["tests/test_policy.py::TestXorPolicy::test_first_interval_maps_region_to_xor_one",
      "tests/test_engine.py::TestWholeRunAtBenchmarkGeometry::"
      "test_run_matches_reference_run[trace-replay]"]),
    ("policy: build_policy builds xor for swl", "policy.py",
     '(XorRemapPolicy if kind == "xor" else PolicyState)',
     '(XorRemapPolicy if kind != "static" else PolicyState)',
     ["tests/test_policy.py::TestValidation::test_build_policy_kinds",
      "tests/test_policy.py::TestValidation::test_xor_needs_a_power_of_two_color_count"]),
    ("experiment: make_policy drops the last policy setting", "experiment.py",
     "for f in fields(PolicySettings)}",
     "for f in fields(PolicySettings)[:-1]}",
     ["tests/test_cli.py::TestBuildConfig::test_every_policy_setting_reaches_the_policy"]),
    ("workload: _in_order skips the 2^48 test", "workload.py",
     "    return (max(addrs) <= MAX_ADDRESS and icounts[0] >= last_icount",
     "    return (icounts[0] >= last_icount",
     [*refused("trace-address-above-2^48"),
      "tests/test_workload.py::TestRoundTrip::test_writer_refuses_what_the_reader_refuses"]),
    ("workload: the bulk reader reads W as a read", "workload.py",
     'zip(map("W".__eq__, fields[::3]), addrs, icounts)',
     'zip(map("R".__eq__, fields[::3]), addrs, icounts)',
     ["tests/test_workload.py::TestReadTrace::test_basic_lines",
      "tests/test_workload.py::TestRoundTrip::test_write_then_read_is_identity"]),
    ("workload: the bulk reader yields TraceEvents", "workload.py",
     'yield from zip(map("W".__eq__, fields[::3]), addrs, icounts)',
     'yield from map(TraceEvent._make, zip(map("W".__eq__, fields[::3]), addrs, icounts))',
     ["tests/test_workload.py::TestExactTupleStreams::"
      "test_read_trace_on_bulk_and_per_line_batches"]),
    ("workload: the per-line reader yields TraceEvents", "workload.py",
     '        yield kind == "W", addr, icount',
     '        yield TraceEvent(kind == "W", addr, icount)',
     ["tests/test_workload.py::TestExactTupleStreams::"
      "test_read_trace_on_bulk_and_per_line_batches"]),
    ("workload: the public generate yields exact tuples", "workload.py",
     "    return _views(generate_tuples, spec, cache)",
     "    return generate_tuples(spec, cache)",
     ["tests/test_workload.py::TestGenerate::test_icount_advances_uniformly",
      "tests/test_workload.py::TestGenerate::test_write_fraction_extremes"]),
    ("workload: the views hand write_trace a fresh producer", "workload.py",
     "    views.source = source",
     "    views.source = producer(*args)",
     ["tests/test_workload.py::TestViewStreamsWriteFromTheirProducer::"
      "test_a_partly_read_stream_writes_the_rest"]),
    ("workload: the writer leaves its temp file after a failure", "workload.py",
     "            os.unlink(tmp)",
     "            pass",
     ["tests/test_cli.py::TestReplacing::test_failed_write_leaves_no_temp_file"]),
    ("workload: the writer renames over the old target without unlinking it", "workload.py",
     "        with suppress(FileNotFoundError):\n            os.unlink(real)\n",
     "",
     ["tests/test_cli.py::TestReplacing::test_rewrite_renames_onto_no_existing_file"]),
    ("workload: the writer's temp name grows with the target's name", "workload.py",
     'os.path.join(head, f"{name[:60]}.{os.getpid()}.tmp")',
     'f"{os.path.join(head, name)}.{os.getpid()}.tmp"',
     ["tests/test_cli.py::TestReplacing::"
      "test_a_trace_takes_any_name_its_directory_can_hold[255-ascii-bytes]"]),
    ("workload: a page count above 2^48 reaches the zipf overflow check", "workload.py",
     "        if not 1 <= self.page_count <= MAX_ADDRESS:",
     "        if not 1 <= self.page_count:",
     ["tests/test_workload.py::TestSpecValidation::"
      "test_refuses_more_pages_than_an_address_space_has_bytes"]),
    ("workload: a symlink's target is written in place", "workload.py",
     "    if os.path.exists(path) and not os.path.isfile(path):",
     "    if os.path.islink(path) or os.path.exists(path) and not os.path.isfile(path):",
     ["tests/test_workload.py::TestRoundTrip::"
      "test_a_trace_rewritten_through_a_symlink_keeps_its_bytes_and_the_link"]),
    ("workload: generated pages ignore the cache's page size", "workload.py",
     "    page_size = cache.page_size_bytes",
     "    page_size = 4096",
     ["tests/test_workload.py::TestStreamPinning::test_stream_matches_pinned_digest",
      "tests/test_golden.py::test_output_bytes_match_known_good"]),
    ("workload: the bulk reader does not advance the line number", "workload.py",
     "                    lineno += len(lines)\n                    yield from",
     "                    yield from",
     ["tests/test_workload.py::TestBatchParserEquivalence::test_error_at_a_batch_boundary"]),
    ("workload: the writer forgets the icount across batches", "workload.py",
     "            written += len(batch)\n            last_icount = icounts[-1]",
     "            written += len(batch)",
     ["tests/test_workload.py::TestRoundTrip::"
      "test_writer_refuses_an_icount_that_decreases_across_a_batch_edge"]),
    ("workload: the writer swaps R and W", "workload.py",
     "{'W' if is_write else 'R'}",
     "{'R' if is_write else 'W'}",
     ["tests/test_workload.py::TestRoundTrip::test_exact_line_format",
      "tests/test_workload.py::TestRoundTrip::test_gen_trace_bytes_are_pinned"]),
    ("workload: the per-line parser names the line before", "workload.py",
     'raise TraceFormatError(f"{path}:{lineno}: {exc}")',
     'raise TraceFormatError(f"{path}:{lineno - 1}: {exc}")',
     refused("trace-error-names-its-line", "trace-non-ascii-comment")),
    ("workload: the zipf table totals its weights in a separate sum pass", "workload.py",
     "    return [acc / sums[-1] for acc in sums]",
     "    total = sum(1.0 / (rank ** s) for rank in range(1, spec.page_count + 1))\n"
     "    return [acc / total for acc in sums]",
     # sum adds left to right up to CPython 3.11; the test patches in a compensated one
     ["tests/test_workload.py::TestZipfTable::"
      "test_a_compensated_sum_leaves_the_table_unchanged"]),
    ("experiment: _ratios(rep, baseline) with its arguments swapped", "experiment.py",
     "_ratios(baseline, rep)",
     "_ratios(rep, baseline)",
     ["tests/test_golden.py::test_output_bytes_match_known_good"]),
    ("experiment: relative performance inverted", "experiment.py",
     "            b.stats.cycles / t.stats.cycles if",
     "            t.stats.cycles / b.stats.cycles if",
     ["tests/test_golden.py::test_output_bytes_match_known_good"]),
    ("experiment: the INI reader accepts a key before any section", "experiment.py",
     '        elif name is None:\n            raise ConfigError(f"{path}:{n}: key {key!r} '
     'before any section")',
     "        elif name is None:\n            continue",
     refused("key-before-section")),
    ("experiment: the INI reader names the line after a value", "experiment.py",
     'values[name, key] = value, f"{path}:{n}: [{name}] {key}"',
     'values[name, key] = value, f"{path}:{n + 1}: [{name}] {key}"',
     refused("file-value-names-its-line")),
    ("experiment: gen-trace writes a stream for a trace config", "experiment.py",
     "        elif not policy:\n",
     "        elif False:\n",
     refused("gen-trace-of-a-trace-config")),
    ("cli: an OSError is printed without its file name", "cli.py",
     'print(f"error: {exc}", file=sys.stderr)',
     'print(f"error: {exc.strerror if isinstance(exc, OSError) else exc}", file=sys.stderr)',
     refused("no-config", "no-trace-file")),
    ("cli: selftest draws a negative seed's stream as its absolute value's", "cli.py",
     '("--seed", args.seed, 0)',
     '("--seed", abs(args.seed), 0)',
     refused("selftest-seed--1")),
    ("workload: a negative seed draws its absolute value's stream", "workload.py",
     "        if self.seed < 0:",
     "        if False:",
     refused("seed-negative", "seed-negative-flag")),
    ("workload: an infinite zipf weight passes the overflow check", "workload.py",
     'if float(self.page_count) ** self.zipf_exponent == float("inf"):',
     "if False:",
     refused("zipf-s-inf", "zipf-s-inf-flag")),
    ("workload: the writer makes the real path's directory, naming it", "workload.py",
     "    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)  # errors name path\n",
     "",
     refused("out-is-a-file", "trace-under-a-file")),
)


def _pytest(src, node_ids):
    """Pytest's exit status (minus the signal that ended it, if one did) on the
    node ids in a forked child importing nvwear from ``src``, its output in
    pytest.log. Hypothesis is imported before pytest could rewrite it, so that
    warning is not made an error."""
    sys.stdout.flush()
    pid = os.fork()
    if pid == 0:
        status = 3  # pytest's internal error, if pytest.main itself raises
        try:
            log = os.open("pytest.log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
            os.dup2(log, 1)
            os.dup2(log, 2)
            status = pytest.main([
                "-q", "-x", "-p", "no:cacheprovider", f"--rootdir={ROOT}",
                "-o", f"pythonpath={src}", "-W", "ignore::pytest.PytestAssertRewriteWarning",
                *(str(ROOT / node) for node in node_ids)])
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)  # never back into the parent's loop
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])


def main():
    if not hasattr(os, "fork"):
        print("tests/mutants.py runs each mutant in a forked child, and this "
              "platform has no os.fork", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # a mutant of the same size never loads a stale .pyc
    rows, failed = MUTANTS, []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="nvwear-mutants-") as workdir:
        # hypothesis puts its example database under the cwd it is imported
        # in, which must not be the repository; it is imported once, here
        os.chdir(workdir)
        import hypothesis  # noqa: F401
        for name, file, old, _, _ in rows:
            count = (ROOT / "src" / "nvwear" / file).read_text().count(old)
            if count != 1:
                failed.append(f"{name}: old text found {count} times in {file}")
        src = Path(workdir) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        nodes = sorted({node for row in rows for node in row[4]})
        if _pytest(src, nodes) != 0:
            log = Path("pytest.log").read_text()
            failed.append(f"unmutated source: the named tests do not pass\n{log}")
        if failed:
            print("\n".join(failed))
            return 1
        for name, file, old, new, node_ids in rows:
            t0 = time.perf_counter()
            target = src / "nvwear" / file
            text = target.read_text()
            target.write_text(text.replace(old, new, 1))
            status = _pytest(src, node_ids)
            target.write_text(text)
            # pytest exits 1 when a test failed; 0 is a survivor, anything else
            # (an internal or usage error, or a signal) does not count as a kill
            verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (exit {status})")
            print(f"{verdict:>10}  {time.perf_counter() - t0:5.1f} s  {name}", flush=True)
            if status != 1:
                failed.append(name)
    print(f"{len(rows) - len(failed)} of {len(rows)} mutants killed in "
          f"{time.perf_counter() - start:.1f} s")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
