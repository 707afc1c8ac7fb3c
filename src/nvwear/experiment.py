"""Experiment configuration, orchestration, and report files.

Config files are INI-style ``key = value`` text with one section per
subsystem ([cache], [policy], [workload], [output]); command-line flags
override file values. Reports (a fixed-schema CSV, a per-interval decision
log, a mapping audit trail, tidy plot data, a markdown summary) are written
through ``workload.replacing``, like traces: a reader may briefly find no
report, but never half of one. Nothing is fsynced.
"""

import csv
import io
import logging
import os
import re
from dataclasses import dataclass, field, fields
from itertools import islice
from operator import attrgetter

from .cache import CacheConfig
from .engine import Simulator
from .errors import ConfigError
from .metrics import RunStats, energy_joules, mpki, relative_lifetime
from .policy import POLICY_KINDS, PolicySettings, build_policy, default_swap_limit
# exact tuples for the simulators, under the names of the per-event seams that
# perfbench/tracer.py, tests/test_bench_contract.py and TestOneStreamPerCompare patch
from .workload import (GENERATOR_KINDS, MAX_ADDRESS, GeneratorSpec, replacing,
                       generate_tuples as generate, read_trace_tuples as read_trace)

log = logging.getLogger("nvwear.experiment")

@dataclass
class ExperimentConfig(PolicySettings):
    cache: CacheConfig = field(default_factory=CacheConfig)
    policy_kind: str = "swl"
    count_fills: bool = True
    workload: GeneratorSpec | None = None
    trace_path: str | None = None
    out_dir: str = "out"

    def __post_init__(self):
        if (self.workload is None) == (self.trace_path is None):
            raise ConfigError("exactly one of a generator workload or a trace "
                              "path must be configured")
        if self.workload and self.workload.page_count * self.cache.page_size_bytes > MAX_ADDRESS:
            raise ConfigError("* page_size_bytes exceeds the 2^48 address space", "page_count")

    def make_policy(self):
        """A fresh policy for one run; building one validates the policy settings."""
        return build_policy(self.policy_kind, self.cache.num_colors,
                            **{f.name: getattr(self, f.name) for f in fields(PolicySettings)})


@dataclass
class ExperimentReport:
    """One finished run plus its derived metrics and logs."""

    policy: str
    workload: str
    seed: int | None
    stats: RunStats
    energy_j: float
    mpki_value: float | None
    decisions: list
    mapping_audit: list
    config: ExperimentConfig


@dataclass
class Comparison:
    baseline: ExperimentReport
    technique: ExperimentReport
    relative_lifetime: float | None
    relative_performance: float | None
    energy_saving_pct: float | None
    mpki_increase: float | None


_SIZE_RE = re.compile(r"^(\d+)\s*(?:([kKmMgG])(?:i?[bB])?|[bB])?$")
_SIZE_MULT = {None: 1, "k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}


def parse_size(text):
    """Integer byte counts, with optional binary K/M/G suffix (e.g. '4M')."""
    m = _SIZE_RE.match(str(text).strip())
    if not m:
        raise ConfigError(f"cannot parse size {text!r}")
    suffix = m.group(2)
    return int(m.group(1)) * _SIZE_MULT[suffix.lower() if suffix else None]


_BOOL_WORDS = {"on": True, "true": True, "yes": True, "1": True,
               "off": False, "false": False, "no": False, "0": False}


def parse_bool(text):
    try:
        return _BOOL_WORDS[str(text).strip().lower()]
    except KeyError:
        raise ConfigError(f"cannot parse boolean {text!r} (use on/off)") from None


def _one_of(*words):
    """A parser of a word setting that may be ignored (swap_limit_mode under
    static, the workload kind beside a trace, the policy kind by gen-trace),
    so its form is still checked."""
    def parse(text):
        if text not in words:
            raise ConfigError(f"{text!r} is not one of {'|'.join(words)}")
        return text
    return parse


# One row per setting: INI section and key, override key (the dest of the CLI
# flag built from the row; None for file-only settings), the dataclass the
# value goes to and its field, and the parser of the value, which checks its
# form whenever it is given. Defaults and ranges live only in the dataclasses,
# so a range is checked only when the run uses the value.
_SETTINGS = (
    ("cache", "size_bytes", None, CacheConfig, "cache_size_bytes", parse_size),
    ("cache", "associativity", None, CacheConfig, "associativity", int),
    ("cache", "block_bytes", None, CacheConfig, "block_size_bytes", parse_size),
    ("cache", "page_bytes", None, CacheConfig, "page_size_bytes", parse_size),
    ("cache", "read_hit_cycles", None, CacheConfig, "hit_read_latency", int),
    ("cache", "write_hit_cycles", None, CacheConfig, "hit_write_latency", int),
    ("cache", "miss_penalty_cycles", None, CacheConfig, "miss_penalty", int),
    ("cache", "frequency_hz", None, CacheConfig, "core_frequency_hz", int),
    ("policy", "kind", "policy", ExperimentConfig, "policy_kind", _one_of(*POLICY_KINDS)),
    ("policy", "beta", "beta", ExperimentConfig, "beta", float),
    ("policy", "lambda", "lambda", ExperimentConfig, "swap_limit", int),
    ("policy", "k_writes", "k", ExperimentConfig, "k_writes", int),
    ("policy", "min_gap_cycles", "min_gap_cycles", ExperimentConfig, "min_gap_cycles", int),
    ("policy", "swap_limit_mode", "swap_limit_mode", ExperimentConfig, "swap_limit_mode",
     _one_of("min", "max")),
    ("policy", "count_fills", "count_fills", ExperimentConfig, "count_fills", parse_bool),
    ("workload", "kind", "workload_kind", GeneratorSpec, "kind",
     _one_of(*GENERATOR_KINDS, "trace")),
    ("workload", "trace", "trace", ExperimentConfig, "trace_path", str),
    ("workload", "events", "events", GeneratorSpec, "num_events", int),
    ("workload", "write_fraction", "write_fraction", GeneratorSpec, "write_fraction", float),
    ("workload", "zipf_s", "zipf_s", GeneratorSpec, "zipf_exponent", float),
    ("workload", "hotset_fraction", "hotset_fraction", GeneratorSpec, "hotset_fraction", float),
    ("workload", "hotset_probability", "hotset_probability", GeneratorSpec,
     "hotset_probability", float),
    ("workload", "pages", "pages", GeneratorSpec, "page_count", int),
    ("workload", "seed", "seed", GeneratorSpec, "seed", int),
    ("workload", "instructions_per_access", "instructions_per_access", GeneratorSpec,
     "instructions_per_access", int),
    ("output", "dir", "out", ExperimentConfig, "out_dir", str),
)


def _read_ini(path):
    """{(section, key): (value, where)} of an INI file of ``[section]`` and
    ``key = value`` lines (split at the first ``=``), ``where`` reading
    ``path:line: [section] key``; a ``#`` or ``;`` at the start of a line or
    after a blank starts a comment. Values are literal and keys exact."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8-sig")  # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ConfigError(
            f"{path}:{line}: not UTF-8: byte 0x{data[exc.start]:02x}") from None
    known = {(section, key) for section, key, *_ in _SETTINGS}
    values, seen, name = {}, set(), None
    for n, line in enumerate(text.split("\n"), 1):
        line = re.split(r"(?:^|\s)[#;]", line, maxsplit=1)[0].strip()
        key, eq, value = (part.strip() for part in line.partition("="))
        if not line:
            continue
        if m := re.fullmatch(r"\[(.*)\]", line):
            name = m[1]
            if name in seen or name not in {section for section, _ in known}:
                raise ConfigError(f"{path}:{n}: {'repeated' if name in seen else 'unknown'}"
                                  f" section [{name}]")
            seen.add(name)
        elif not eq or not key:
            raise ConfigError(f"{path}:{n}: expected [section] or key = value, got {line!r}")
        elif name is None:
            raise ConfigError(f"{path}:{n}: key {key!r} before any section")
        elif (name, key) in values or (name, key) not in known:
            raise ConfigError(f"{path}:{n}: {'repeated' if (name, key) in values else 'unknown'}"
                              f" key {key!r} in [{name}]")
        else:
            values[name, key] = value, f"{path}:{n}: [{name}] {key}"
    return values


def build_config(path=None, overrides=None, policy=True) -> ExperimentConfig:
    """Assemble an ExperimentConfig from an optional INI file plus overrides
    keyed by the settings' override keys (a value of None is not given; any
    other value is parsed from its ``str``, as file text is). A setting given
    neither way keeps its dataclass default; an empty value or an undeclared
    override key is an error. An error about one setting's value names the
    file line and key, or the override key, that gave it. The policy is
    built, which range-checks its settings, only if ``policy`` is true.
    False is gen-trace's mode: no policy runs, and a trace workload is refused."""
    values = _read_ini(path) if path else {}
    overrides = overrides or {}
    unknown = set(overrides) - {row[2] for row in _SETTINGS}
    if unknown:
        raise ConfigError(f"unknown override key(s): {', '.join(sorted(unknown))}")
    given = {CacheConfig: {}, GeneratorSpec: {}, ExperimentConfig: {}}
    sources = {}  # field -> where its value came from
    for section, key, override_key, target, name, parse in _SETTINGS:
        value, source = overrides.get(override_key), f"override {override_key}"
        if value is None:
            value, source = values.get((section, key), (None, None))
        if value is None:
            continue
        sources[name] = source
        value = str(value)
        if not value.strip():
            raise ConfigError(f"{source}: empty value")
        try:
            given[target][name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from None

    try:
        cache = CacheConfig(**given[CacheConfig])
        own = given[ExperimentConfig]
        if own.get("trace_path") is None:
            if given[GeneratorSpec].get("kind") == "trace":
                raise ConfigError("'trace' requires a trace path", "kind")
            own["workload"] = GeneratorSpec(**given[GeneratorSpec])
        elif not policy:
            raise ConfigError("is set, but gen-trace needs a generator workload", "trace_path")
        cfg = ExperimentConfig(cache=cache, **own)
        if policy:
            cfg.make_policy()
        return cfg
    except ConfigError as exc:
        if exc.field in sources:
            raise ConfigError(f"{sources[exc.field]} {exc.reason}") from None
        raise ConfigError(f"{path}: {exc}") from None


# events handed to every simulator of a run or compare at a time: the stream
# is produced once and never held whole
CHUNK = 1024


def _run_all(cfgs):
    """Run each config on the stream of the first, fed to all in chunks."""
    cfg = cfgs[0]
    if cfg.trace_path is not None:
        events = read_trace(cfg.trace_path)
        label, seed = f"trace:{os.path.basename(cfg.trace_path)}", None
    else:
        if cfg.workload.page_count < cfg.cache.num_colors:
            log.warning("workload touches %d pages but the cache has %d colors; "
                        "some colors will never see traffic",
                        cfg.workload.page_count, cfg.cache.num_colors)
        events = generate(cfg.workload, cfg.cache)
        label, seed = cfg.workload.label(), cfg.workload.seed
    sims = [Simulator(c.cache, c.make_policy(), count_fills=c.count_fills) for c in cfgs]
    while chunk := list(islice(events, CHUNK)):
        for sim in sims:
            sim.run(chunk)
    reports = []
    for c, sim in zip(cfgs, sims):
        s = sim.result()
        reports.append(ExperimentReport(
            policy=c.policy_kind, workload=label, seed=seed, stats=s,
            energy_j=energy_joules(s, c.cache.core_frequency_hz),
            mpki_value=mpki(s.misses, s.instructions), decisions=sim.decisions,
            mapping_audit=sim.mapping_audit, config=c))
    return reports


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    return _run_all([cfg])[0]


def _ratios(baseline: ExperimentReport, technique: ExperimentReport):
    """Technique over baseline, in _RATIOS order: relative lifetime, relative
    performance, energy saving (%) and MPKI increase. Each is None where its
    denominator run gives no value, so a run against itself gives 1.0, 1.0,
    0.0, 0.0 or None."""
    b, t = baseline, technique
    return (relative_lifetime(b.stats, t.stats),
            b.stats.cycles / t.stats.cycles if t.stats.cycles > 0 else None,
            (b.energy_j - t.energy_j) / b.energy_j * 100.0 if b.energy_j > 0 else None,
            t.mpki_value - b.mpki_value
            if b.mpki_value is not None and t.mpki_value is not None else None)


def compare_experiments(baseline_cfg: ExperimentConfig,
                        technique_cfg: ExperimentConfig) -> Comparison:
    """Both runs replay one stream, produced (or parsed) once. Configs whose
    numbers would not be commensurable are refused."""
    b, t = baseline_cfg, technique_cfg
    if b.cache != t.cache:
        raise ConfigError("compare: cache configurations differ")
    if b.workload != t.workload or b.trace_path != t.trace_path:
        raise ConfigError("compare: workloads differ (same generator spec, "
                          "seed, and trace are required)")
    if b.count_fills != t.count_fills:
        raise ConfigError("compare: count_fills differs, write counts would "
                          "not be comparable")
    baseline, technique = _run_all([baseline_cfg, technique_cfg])
    return Comparison(baseline, technique, *_ratios(baseline, technique))


# Per-run metrics in report.csv column order: the report.csv column, the
# plot.csv metric, and the attribute path of the value in an ExperimentReport.
_METRICS = (
    ("maxBlockWrites", "max_block_writes", "stats.max_block_writes"),
    ("cycles", "cycles", "stats.cycles"),
    ("energyJ", "energy_j", "energy_j"),
    ("mpki", "mpki", "mpki_value"),
    ("remapRuns", "remap_runs", "stats.remap_runs"),
    ("flushWritebacks", "flush_writebacks", "stats.flush_writebacks"),
    ("blockWriteSD", "block_write_sd", "stats.block_write_sd"),
)

# The ratios of _ratios, in its order: the report.csv column, and the plot.csv
# metric, which is also the Comparison field.
_RATIOS = (
    ("relLifetime", "relative_lifetime"),
    ("relPerf", "relative_performance"),
    ("energyDeltaPct", "energy_saving_pct"),
    ("mpkiDelta", "mpki_increase"),
)


def _report_row(head, metrics, ratios):
    """A report.csv row: each ratio goes right after the metric it compares."""
    return [*head, *(x for pair in zip(metrics, ratios) for x in pair),
            *metrics[len(ratios):]]


REPORT_COLUMNS = _report_row(("policy", "seed", "workload"),
                             [c for c, _, _ in _METRICS], [c for c, _ in _RATIOS])


def _csv_text(columns, rows):
    """CSV with a header; None cells are written empty."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _config_lines(report: ExperimentReport):
    cfg, cache = report.config, report.config.cache
    lam = (default_swap_limit(cache.num_colors) if cfg.swap_limit is None
           else cfg.swap_limit)
    return [
        f"- cache: {cache.cache_size_bytes} B, {cache.associativity}-way, "
        f"{cache.block_size_bytes} B blocks, {cache.page_size_bytes} B pages "
        f"({cache.num_colors} colors x {cache.sets_per_color} sets)",
        f"- latencies: read hit {cache.hit_read_latency}, write hit "
        f"{cache.hit_write_latency}, miss {cache.miss_penalty} cycles "
        f"at {cache.core_frequency_hz} Hz",
        f"- policy: {cfg.policy_kind} (beta={cfg.beta:g}, lambda={lam}, "
        f"K={cfg.k_writes}, min_gap={cfg.min_gap_cycles} cycles, "
        f"mode={cfg.swap_limit_mode}, count_fills="
        f"{'on' if cfg.count_fills else 'off'})",
        f"- workload: {report.workload}",
    ]


def _fmt(value, suffix=""):
    if value is None:
        return "n/a"
    return f"{value}{suffix}" if isinstance(value, int) else f"{value:.6g}{suffix}"


def _write_reports(out_dir, runs, baseline=None):
    """Write report.csv, plot.csv, summary.md and a decision log and mapping
    audit per run. ``runs`` holds (role, report) pairs: a role prefixes the
    run's log and audit file names and its configuration heading. A ``baseline``
    fills each run's report.csv ratio cells with ``_ratios(baseline, run)``, and
    the last run's ratios add plot.csv rows and the summary's comparison section."""
    def write(name, text):
        with replacing(os.path.join(out_dir, name)) as fh:
            fh.write(text)

    rows, plot, lines = [], [], [
        f"# nvwear {'run' if baseline is None else 'comparison'} summary", ""]
    table = ["| policy | workload | " + " | ".join(c for c, _, _ in _METRICS) + " |",
             "|" + "---|" * (2 + len(_METRICS))]
    for role, rep in runs:
        ratios = (None,) * len(_RATIOS) if baseline is None else _ratios(baseline, rep)
        values = [attrgetter(path)(rep) for _, _, path in _METRICS]
        rows.append(_report_row((rep.policy, rep.seed, rep.workload), values, ratios))
        plot += [[name, rep.policy, rep.workload, value]
                 for (_, name, _), value in zip(_METRICS, values)]
        table.append(f"| {rep.policy} | {rep.workload} | "
                     f"{' | '.join(map(_fmt, values))} |")
        prefix = f"{role}_" if role else ""
        write(f"{prefix}decisions.csv", _csv_text(
            ["intervalIndex", "cycle", "sdw", "nHigher", "nColorToSwap", "swaps",
             "writebacks"],
            [[d.interval, d.cycle, d.sdw, d.n_higher, len(d.swaps),
              ";".join(f"{c1}:{c2}" for c1, c2 in d.swaps), d.writebacks]
             for d in rep.decisions]))
        write(f"{prefix}mapping_audit.csv",
              _csv_text(["interval", "region", "color"], rep.mapping_audit))
        lines += [f"## {role} configuration" if role else "## configuration",
                  *_config_lines(rep), ""]
    lines += ["## results", *table, ""]
    if baseline is not None:
        plot += [[name, rep.policy, rep.workload, value]  # the technique, run last
                 for (_, name), value in zip(_RATIOS, ratios)]
        lifetime, perf, saving, mpki_delta = ratios
        stats, decisions = rep.stats, rep.decisions
        swapped = sum(1 for d in decisions if d.swaps)
        lines += ["## comparison (technique vs baseline)",
                  f"- horizon: {stats.reads + stats.writes} events, "
                  f"{stats.instructions} instructions",
                  f"- technique decisions: {stats.remap_runs} run, "
                  f"{len(decisions) - stats.remap_runs} gated, {swapped} with swaps",
                  f"- relative lifetime: {_fmt(lifetime)}"]
        if swapped < 2:
            lines.append(f"- the relative lifetime rests on {swapped} remap"
                         f"{'' if swapped == 1 else 's'}; a longer run may move it")
        lines += [f"- relative performance: {_fmt(perf)} "
                  "(coarse proxy: additive timing model, no contention)",
                  "- remap flush writebacks cost energy but zero cycles, so relative "
                  "performance is optimistic for swl and xor",
                  f"- energy saving: {_fmt(saving, '%')}",
                  f"- MPKI increase: {_fmt(mpki_delta)}", ""]
    write("report.csv", _csv_text(REPORT_COLUMNS, rows))
    write("plot.csv", _csv_text(["metric", "policy", "workload", "value"], plot))
    write("summary.md", "\n".join(lines))


def write_run_report(report: ExperimentReport, out_dir):
    """Emit report.csv (ratio cells empty), decisions.csv, mapping_audit.csv,
    plot.csv and summary.md."""
    _write_reports(out_dir, [("", report)])


def write_comparison_report(comparison: Comparison, out_dir):
    """Emit the same files for both runs, with baseline_/technique_ decision
    logs and mapping audits; the baseline row holds its ratios against itself."""
    _write_reports(out_dir, [("baseline", comparison.baseline),
                             ("technique", comparison.technique)], comparison.baseline)
