"""nvwear benchmark: timed `compare` runs of a static baseline against a
wear-leveling technique on one workload.

Run from the repository root:

    python3 perfbench/run.py --workload zipf-miss --seed 1 --seconds 25 --trace 0

The benchmark is single-process and sequential. Each compare does what
``nvwear compare`` does through the public API: ``build_config`` for the
baseline and the technique, ``compare_experiments``, then
``write_comparison_report``. Every compare builds a fresh simulator, so the
modelled cache starts empty (cold) in every run; nothing is warmed into it.
Set-up (import, writing the replayed trace, a short warm-up compare) is
repeated and timed apart from the compares. Host times are scaled by a
calibration loop run beside them (see calibrate()). Outputs are checked
after each compare, outside its timing.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` untraced and traced compares alternate and the per-layer
metrics are reported, taken from spans recorded around calls into each
nvwear module (see tracer.py). The line before it is the run manifest.
perfbench/README.md explains the workloads, metrics and model caveats.
"""

import argparse
import json
import os
import platform
import random
import resource
import shutil
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from statistics import median
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "work"   # holds <workload>-seed<n>-trace<t>/ per run

EVENTS = 300_000          # accesses per compare, both policies replay all of them
WARMUP_EVENTS = 20_000    # prefix compared once per set-up repeat
ORACLE_EVENTS = 20_000    # prefix replayed against ReferenceSimulator
SETUP_REPEATS = 3
MIN_COMPARES = 3          # per timed phase, even when --seconds runs out first
MIN_TRACED = 2            # per kind (untraced, traced) in a --trace 1 run
CAL_REF_S = 0.22          # about calibrate() between compares on a 2-vCPU Xeon, CPython 3.11

CAVEATS = [
    "remap flush writebacks cost energy but zero cycles, so rel_perf is "
    "optimistic for swl and xor",
    "beta is an absolute write-count SD, so the swl gate rarely opens at small K",
    "the modelled cache starts cold in every compare; statistics include the "
    "cold misses",
    "the model is not validated against hardware and no error figure is "
    "given: ReferenceSimulator is a functional oracle of the cache only",
]


@dataclass(frozen=True)
class Workload:
    """One workload; its reason is its `why` in BENCHMARK.json."""

    generator: dict        # build_config overrides describing the access stream
    technique: dict        # build_config overrides of the compared policy
    replay: bool = False   # write the stream to a text trace and replay that


WORKLOADS = {
    "zipf-miss": Workload(
        generator={"workload_kind": "zipf", "pages": 4096, "zipf_s": 1.0,
                   "write_fraction": 0.3},
        technique={"policy": "swl"}),
    "hotset-remap": Workload(
        generator={"workload_kind": "hotset", "pages": 64, "write_fraction": 1.0},
        technique={"policy": "swl", "k": 10_000, "min_gap_cycles": 0}),
    "trace-replay": Workload(
        generator={"workload_kind": "uniform", "pages": 256, "write_fraction": 0.5},
        technique={"policy": "xor"}, replay=True),
}

END_TO_END = [("events_per_s", "events/s"), ("setup_s", "s"),
              ("peak_rss_mib", "MiB"), ("rel_lifetime", "ratio"),
              ("rel_perf", "ratio"), ("mpki_ratio", "ratio"),
              ("energy_ratio", "ratio"), ("checks_pass_ratio", "ratio")]

PER_LAYER = [
    ("workload.generate.events_per_s", "events/s"),
    ("workload.read_trace.events_per_s", "events/s"),
    ("workload.write_trace.events_per_s", "events/s"),
    ("cache.decompose.calls", "count"), ("cache.decompose.s", "s"),
    ("cache.access.calls", "count"), ("cache.access.s", "s"),
    ("cache.access.hit_ratio", "ratio"), ("cache.access.dirty_evictions", "count"),
    ("policy.note_write.calls", "count"), ("policy.note_write.s", "s"),
    ("policy.poll.s", "s"), ("policy.intervals", "count"),
    ("policy.gate_pass_ratio", "ratio"), ("policy.plan.s", "s"),
    ("coloring.apply_remap.calls", "count"), ("coloring.apply_remap.s", "s"),
    ("cache.flush_color.calls", "count"), ("coloring.flush_writebacks", "count"),
    ("engine.run.s", "s"), ("engine.self_s", "s"),
    ("metrics.summarize.s", "s"), ("experiment.build_config.s", "s"),
    ("experiment.write_report.s", "s"), ("trace.overhead_ratio", "ratio"),
]


@dataclass
class Plan:
    """One workload at one seed and length, with where its files go."""

    workload: Workload
    seed: int
    events: int
    out_dir: str
    trace_path: str | None = None
    spec: object = field(init=False)

    def __post_init__(self):
        from nvwear import build_config
        self.spec = build_config(None, self._stream()).workload

    def _stream(self):
        return {**self.workload.generator, "events": self.events, "seed": self.seed}

    def overrides(self, policy):
        source = ({"trace": self.trace_path} if self.workload.replay
                  else self._stream())
        return {**source, "out": self.out_dir, **policy}

    def prepare(self):
        """Write the trace a replay workload reads; no-op otherwise."""
        from nvwear import generate, write_trace
        if self.workload.replay:
            write_trace(self.trace_path, generate(self.spec))

    def events_prefix(self, n):
        from nvwear import generate, read_trace
        if self.workload.replay:
            return islice(read_trace(self.trace_path), n)
        return islice(generate(self.spec), n)


def _no_span(name):
    return nullcontext()


def compare_once(plan, span=_no_span):
    """What `nvwear compare` does, from config build to report files."""
    from nvwear import build_config, compare_experiments
    from nvwear.experiment import write_comparison_report
    with span("experiment.compare"):
        with span("experiment.build_config"):
            base_cfg = build_config(None, plan.overrides({"policy": "static"}))
        with span("experiment.build_config"):
            tech_cfg = build_config(None, plan.overrides(plan.workload.technique))
        comparison = compare_experiments(base_cfg, tech_cfg)
        with span("experiment.write_report"):
            write_comparison_report(comparison, plan.out_dir)
    return comparison


def setup_once(plan, warmup):
    plan.prepare()
    warmup.prepare()
    compare_once(warmup)


def calibrate():
    """Seconds taken by a fixed miniature LRU-cache simulation that never
    calls nvwear.

    The host's speed drifts by tens of percent over spells of seconds to
    minutes when other tenants load it. Host times are therefore scaled by
    CAL_REF_S over the mean of the loop times measured just before and just
    after them, which reports them at the speed of a host where the loop takes
    CAL_REF_S. The loop does the same kinds of work as the simulator (random
    draws, dict lookups, list reordering, small objects), so it slows with
    the same contention. A change to nvwear cannot move it, so a change moves
    the scaled times exactly as it moves the raw ones; the raw times are in
    the manifest. The loop is long enough (about a tenth of a compare) that a
    short stall during it does not skew the scale: in interleaved runs, a
    loop a third as long left host rates spread about twice as wide.
    """
    t0 = perf_counter()
    rng = random.Random(7)
    sets, ways = 1024, 8
    where = [{} for _ in range(sets)]
    recency = [list(range(ways)) for _ in range(sets)]
    tags = [[None] * ways for _ in range(sets)]
    latency = 0
    for _ in range(150_000):
        addr = rng.randrange(1 << 22) if rng.random() < 0.5 else rng.randrange(1 << 16)
        s, tag = (addr >> 6) % sets, addr >> 16
        way = where[s].get(tag)
        rec = recency[s]
        if way is None:
            way = rec[-1]
            if tags[s][way] is not None:
                del where[s][tags[s][way]]
            tags[s][way] = tag
            where[s][tag] = way
            outcome = _CalOutcome(False, 172)
        else:
            outcome = _CalOutcome(True, 2)
        if rec[0] != way:
            rec.remove(way)
            rec.insert(0, way)
        latency += outcome.latency
    return perf_counter() - t0


@dataclass(slots=True)
class _CalOutcome:
    hit: bool
    latency: int


class HostClock:
    """Wall times of calls, raw and scaled by the calibration loop around them."""

    def __init__(self):
        self.cal = calibrate()
        self.raw = []
        self.scaled = []

    def scale(self, seconds):
        """Scale a time taken just before the last calibration."""
        return seconds * CAL_REF_S / self.cal

    def time(self, fn, *args):
        t0 = perf_counter()
        result = fn(*args)
        wall = perf_counter() - t0
        cal = calibrate()
        self.raw.append(wall)
        self.scaled.append(wall * 2 * CAL_REF_S / (self.cal + cal))
        self.cal = cal
        return result


class Phase:
    """Timed compares of one plan, each checked after its timing ends."""

    def __init__(self, plan, checks):
        self.plan = plan
        self.checks = checks
        self.clock = HostClock()
        self.first = None
        self.digests = None

    def compare(self, span=_no_span):
        from checks import check_comparison, check_repeat, digest_outputs
        comparison = self.clock.time(compare_once, self.plan, span)
        check_comparison(self.checks, comparison, self.plan.events, self.plan.out_dir)
        digests = digest_outputs(self.plan.out_dir)
        if self.first is None:
            self.first, self.digests = comparison, digests
        else:
            check_repeat(self.checks, self.digests, digests)
        return comparison

    def events_per_s(self, indices=None):
        """Median rate of the given compares (all by default): accesses of
        both policies per scaled second."""
        scaled = self.clock.scaled
        if indices is None:
            indices = range(len(scaled))
        return median(2 * self.plan.events / scaled[i] for i in indices)


def _technique_params(cfg):
    return {"policy": cfg.policy_kind, "k_writes": cfg.k_writes, "beta": cfg.beta,
            "swap_limit": (cfg.swap_limit if cfg.swap_limit is not None
                           else cfg.cache.num_colors // 4),
            "swap_limit_mode": cfg.swap_limit_mode,
            "min_gap_cycles": cfg.min_gap_cycles, "count_fills": cfg.count_fills}


def _modelled(comparison):
    base, tech = comparison.baseline, comparison.technique
    return {
        "rel_lifetime": comparison.relative_lifetime,
        "rel_perf": comparison.relative_performance,
        "mpki_ratio": tech.mpki_value / base.mpki_value,
        "energy_ratio": tech.energy_j / base.energy_j,
        "mpki_delta": comparison.mpki_increase,
        "energy_saving_pct": comparison.energy_saving_pct,
    }


def _peak_rss_mib():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _traced_probe(rec, plan, path):
    """Write the plan's stream to a text trace and read it back, traced, so
    every workload reports all three workload-layer rates."""
    from nvwear import generate, read_trace, write_trace
    from tracer import timed_events
    gen, parse = rec.tallies["workload.generate"], rec.tallies["workload.read_trace"]
    rec.compare = "probe"
    calls, seconds = gen.calls, gen.s
    with rec.span("workload.write_trace") as record:
        write_trace(path, timed_events(generate(plan.spec), gen))
    record["events"] = gen.calls - calls
    record["generate_s"] = gen.s - seconds
    with rec.span("workload.read_trace"):
        for _ in timed_events(read_trace(path), parse):
            pass
    os.remove(path)


def _run_traced(plan, phase, seconds, work):
    from tracer import Recorder, instrumented, layer_metrics
    rec = Recorder()
    with instrumented(rec):
        _traced_probe(rec, plan, str(work / "probe.trace"))
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while len(traced) < MIN_TRACED or perf_counter() < deadline:
        plain.append(len(phase.clock.raw))
        phase.compare()
        rec.compare = len(phase.clock.raw)
        traced.append(rec.compare)
        with instrumented(rec):
            phase.compare(rec.span)
    rec.write_jsonl(work / "spans.jsonl")
    metrics = layer_metrics(rec, traced)
    metrics["trace.overhead_ratio"] = (phase.events_per_s(traced)
                                       / phase.events_per_s(plain))
    return metrics


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the timed phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if not (SRC / "nvwear" / "__init__.py").is_file():
        print(f"error: nvwear sources not found under {SRC}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import nvwear  # noqa: F401  (timed: the first import is part of set-up)
    import_s = perf_counter() - t0
    from checks import Checks, check_oracle

    wl = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    work = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = Plan(wl, args.seed, EVENTS, str(work / "out"), str(work / "replay.trace"))
    warmup = Plan(wl, args.seed, min(WARMUP_EVENTS, EVENTS),
                  str(work / "warmup"), str(work / "warmup.trace"))

    setup = HostClock()
    import_scaled = setup.scale(import_s)
    for _ in range(SETUP_REPEATS):
        setup.time(setup_once, plan, warmup)
    checks = Checks()
    phase = Phase(plan, checks)
    if args.trace:
        metrics = _run_traced(plan, phase, args.seconds, work)
        peak_rss = _peak_rss_mib()
    else:
        deadline = perf_counter() + args.seconds
        while len(phase.clock.raw) < MIN_COMPARES or perf_counter() < deadline:
            phase.compare()
        # read before the oracle below allocates its own cache mirror
        peak_rss = _peak_rss_mib()
    check_oracle(checks, phase.first.baseline.config.cache,
                 plan.events_prefix(min(ORACLE_EVENTS, EVENTS)))
    for path in (plan.trace_path, warmup.trace_path):
        if os.path.exists(path):
            os.remove(path)

    modelled = _modelled(phase.first)
    if not args.trace:
        metrics = {
            "events_per_s": phase.events_per_s(),
            "setup_s": import_scaled + median(setup.scaled),
            "peak_rss_mib": peak_rss,
            "rel_lifetime": modelled["rel_lifetime"],
            "rel_perf": modelled["rel_perf"],
            "mpki_ratio": modelled["mpki_ratio"],
            "energy_ratio": modelled["energy_ratio"],
            "checks_pass_ratio": (checks.attempted - checks.failed) / checks.attempted,
        }
    units = dict(PER_LAYER if args.trace else END_TO_END)
    result = {"correct": checks.failed == 0, "attempted": checks.attempted,
              "failed": checks.failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in units.items()}}
    tech = phase.first.technique
    manifest = {
        "workload": args.workload, "why": why, "seed": args.seed,
        "trace": args.trace, "events_per_compare": EVENTS,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(), "platform": platform.platform(),
        "generator": wl.generator, "replayed_from_trace": wl.replay,
        "technique": _technique_params(tech.config),
        "cache": {"bytes": tech.config.cache.cache_size_bytes,
                  "associativity": tech.config.cache.associativity,
                  "colors": tech.config.cache.num_colors,
                  "start": "cold (empty) in every compare"},
        "calibration_ref_s": CAL_REF_S,
        "import_s": import_s, "setup_repeats_s": setup.raw,
        "setup_repeats_scaled_s": setup.scaled,
        "compare_wall_s": phase.clock.raw, "compare_scaled_s": phase.clock.scaled,
        "raw_events_per_s": median(2 * EVENTS / w for w in phase.clock.raw),
        "peak_rss_mib": peak_rss,
        "modelled": modelled,
        "stats": {"baseline": vars(phase.first.baseline.stats),
                  "technique": vars(tech.stats)},
        "failures": checks.failures[:20], "caveats": CAVEATS,
    }
    with open(work / "manifest.json", "w", encoding="utf-8") as fh:
        json.dump({"manifest": manifest, "result": result}, fh, indent=1)
    print(json.dumps(manifest))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
