"""Experiment configuration, orchestration, and report files.

Config files are INI-style ``key = value`` text with one section per
subsystem ([cache], [policy], [workload], [output]); command-line flags
override file values. Reports are written atomically: a fixed-schema CSV, a
per-interval decision log, a mapping audit trail, tidy plot data, and a
markdown summary.
"""

import configparser
import csv
import io
import logging
import os
import re
import tempfile
from dataclasses import dataclass, field
from datetime import datetime, timezone

from .cache import CacheConfig
from .engine import Simulator
from .errors import ConfigError
from .metrics import (EnergyConstants, RunStats, energy_joules, mpki,
                      relative_lifetime)
from .policy import (DEFAULT_BETA, DEFAULT_K_WRITES, DEFAULT_MIN_GAP_CYCLES,
                     POLICY_KINDS, build_policy, default_swap_limit)
from .workload import GeneratorSpec, generate, read_trace

log = logging.getLogger("nvwear.experiment")

REPORT_COLUMNS = ["policy", "seed", "workload", "maxBlockWrites", "relLifetime",
                  "cycles", "relPerf", "energyJ", "energyDeltaPct", "mpki",
                  "mpkiDelta", "remapRuns", "flushWritebacks", "blockWriteSD"]

DECISION_COLUMNS = ["intervalIndex", "cycle", "sdw", "nHigher", "nColorToSwap",
                    "swaps", "writebacks"]

AUDIT_COLUMNS = ["interval", "region", "color"]

PLOT_COLUMNS = ["metric", "policy", "workload", "value"]


@dataclass
class ExperimentConfig:
    cache: CacheConfig = field(default_factory=CacheConfig)
    policy_kind: str = "swl"
    beta: float = DEFAULT_BETA
    swap_limit: int | None = None
    k_writes: int = DEFAULT_K_WRITES
    min_gap_cycles: int = DEFAULT_MIN_GAP_CYCLES
    swap_limit_mode: str = "min"
    count_fills: bool = True
    workload: GeneratorSpec | None = None
    trace_path: str | None = None
    out_dir: str = "out"
    energy: EnergyConstants = field(default_factory=EnergyConstants)

    def __post_init__(self):
        if self.policy_kind not in POLICY_KINDS:
            raise ConfigError(f"unknown policy kind {self.policy_kind!r}")
        if (self.workload is None) == (self.trace_path is None):
            raise ConfigError("exactly one of a generator workload or a trace "
                              "path must be configured")

    def workload_label(self):
        if self.trace_path is not None:
            return f"trace:{os.path.basename(self.trace_path)}"
        return self.workload.label()

    def workload_seed(self):
        return None if self.workload is None else self.workload.seed


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


_SIZE_RE = re.compile(r"^(\d+)\s*([kKmMgG])?(i?[bB])?$")
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


# One row per setting: INI section and key, override key (a CLI flag's dest;
# None for file-only settings), the dataclass the value goes to and its field,
# and the parser of the value. Defaults live only in the dataclasses.
_SETTINGS = (
    ("cache", "size_bytes", None, CacheConfig, "cache_size_bytes", parse_size),
    ("cache", "associativity", None, CacheConfig, "associativity", int),
    ("cache", "block_bytes", None, CacheConfig, "block_size_bytes", parse_size),
    ("cache", "page_bytes", None, CacheConfig, "page_size_bytes", parse_size),
    ("cache", "read_hit_cycles", None, CacheConfig, "hit_read_latency", int),
    ("cache", "write_hit_cycles", None, CacheConfig, "hit_write_latency", int),
    ("cache", "miss_penalty_cycles", None, CacheConfig, "miss_penalty", int),
    ("cache", "frequency_hz", None, CacheConfig, "core_frequency_hz", int),
    ("policy", "kind", "policy", ExperimentConfig, "policy_kind", str),
    ("policy", "beta", "beta", ExperimentConfig, "beta", float),
    ("policy", "lambda", "lam", ExperimentConfig, "swap_limit", int),
    ("policy", "k_writes", "k", ExperimentConfig, "k_writes", int),
    ("policy", "min_gap_cycles", "min_gap_cycles", ExperimentConfig, "min_gap_cycles", int),
    ("policy", "swap_limit_mode", "swap_limit_mode", ExperimentConfig, "swap_limit_mode", str),
    ("policy", "count_fills", "count_fills", ExperimentConfig, "count_fills", parse_bool),
    ("workload", "kind", "workload_kind", GeneratorSpec, "kind", str),
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
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    known = {(section, key) for section, key, *_ in _SETTINGS}
    sections = {}
    for name in parser.sections():
        if name not in {section for section, _ in known}:
            raise ConfigError(f"{path}: unknown section [{name}]")
        body = dict(parser.items(name))
        unknown = {key for key in body if (name, key) not in known}
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) in [{name}]: "
                              f"{', '.join(sorted(unknown))}")
        sections[name] = body
    return sections


def build_config(path=None, overrides=None) -> ExperimentConfig:
    """Assemble an ExperimentConfig from an optional INI file plus overrides
    keyed by the settings' override keys (other keys and values of None are
    ignored). A setting given neither way keeps its dataclass default."""
    sections = _read_ini(path) if path else {}
    overrides = overrides or {}
    given = {CacheConfig: {}, GeneratorSpec: {}, ExperimentConfig: {}}
    for section, key, override_key, target, name, parse in _SETTINGS:
        value = overrides.get(override_key)
        source = f"override {override_key}"
        if value is None:
            value = sections.get(section, {}).get(key)
            source = f"{path}: [{section}] {key}"
        if value is None:
            continue
        try:
            given[target][name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{source}: {exc}") from None

    cache = CacheConfig(**given[CacheConfig])
    fields = given[ExperimentConfig]
    if fields.get("trace_path") is None:
        if given[GeneratorSpec].get("kind") == "trace":
            raise ConfigError("workload kind 'trace' requires a trace path")
        fields["workload"] = GeneratorSpec(
            **given[GeneratorSpec], page_size_bytes=cache.page_size_bytes,
            block_size_bytes=cache.block_size_bytes)
    return ExperimentConfig(cache=cache, **fields)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    if cfg.trace_path is not None:
        if not os.path.exists(cfg.trace_path):
            raise ConfigError(f"trace file not found: {cfg.trace_path}")
        events = read_trace(cfg.trace_path)
    else:
        if cfg.workload.page_count < cfg.cache.num_colors:
            log.warning("workload touches %d pages but the cache has %d colors; "
                        "some colors will never see traffic",
                        cfg.workload.page_count, cfg.cache.num_colors)
        events = generate(cfg.workload)
    policy = build_policy(cfg.policy_kind, cfg.cache.num_colors, beta=cfg.beta,
                          swap_limit=cfg.swap_limit, k_writes=cfg.k_writes,
                          min_gap_cycles=cfg.min_gap_cycles,
                          swap_limit_mode=cfg.swap_limit_mode)
    sim = Simulator(cfg.cache, policy, count_fills=cfg.count_fills)
    result = sim.run(events)
    stats = result.stats
    return ExperimentReport(
        policy=cfg.policy_kind,
        workload=cfg.workload_label(),
        seed=cfg.workload_seed(),
        stats=stats,
        energy_j=energy_joules(stats, cfg.energy, cfg.cache.core_frequency_hz),
        mpki_value=mpki(stats.misses, stats.instructions),
        decisions=result.decisions,
        mapping_audit=result.mapping_audit,
        config=cfg,
    )


def check_comparable(baseline: ExperimentConfig, technique: ExperimentConfig):
    """Refuse comparisons whose numbers would not be commensurable."""
    if baseline.cache != technique.cache:
        raise ConfigError("compare: cache configurations differ")
    if baseline.workload != technique.workload or \
            baseline.trace_path != technique.trace_path:
        raise ConfigError("compare: workloads differ (same generator spec, "
                          "seed, and trace are required)")
    if baseline.count_fills != technique.count_fills:
        raise ConfigError("compare: count_fills differs, write counts would "
                          "not be comparable")


def compare_experiments(baseline_cfg: ExperimentConfig,
                        technique_cfg: ExperimentConfig) -> Comparison:
    check_comparable(baseline_cfg, technique_cfg)
    baseline = run_experiment(baseline_cfg)
    technique = run_experiment(technique_cfg)
    rel_perf = (baseline.stats.cycles / technique.stats.cycles
                if technique.stats.cycles > 0 else None)
    saving = ((baseline.energy_j - technique.energy_j) / baseline.energy_j * 100.0
              if baseline.energy_j > 0 else None)
    delta_mpki = (technique.mpki_value - baseline.mpki_value
                  if baseline.mpki_value is not None
                  and technique.mpki_value is not None else None)
    return Comparison(
        baseline=baseline,
        technique=technique,
        relative_lifetime=relative_lifetime(baseline.stats, technique.stats),
        relative_performance=rel_perf,
        energy_saving_pct=saving,
        mpki_increase=delta_mpki,
    )


def _cell(value):
    if value is None:
        return ""
    return str(value)


def _report_row(report: ExperimentReport, *, rel_lifetime=None, rel_perf=None,
                energy_delta_pct=None, mpki_delta=None):
    s = report.stats
    return [report.policy, _cell(report.seed), report.workload,
            s.max_block_writes, _cell(rel_lifetime), s.cycles, _cell(rel_perf),
            report.energy_j, _cell(energy_delta_pct), _cell(report.mpki_value),
            _cell(mpki_delta), s.remap_runs, s.flush_writebacks,
            s.block_write_sd]


def _csv_text(columns, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buf.getvalue()


def _format_swaps(swaps):
    return ";".join(f"{c1}:{c2}" for c1, c2 in swaps)


def _decision_rows(report):
    return [[d.interval, d.cycle, d.sdw, d.n_higher, d.n_color_to_swap,
             _format_swaps(d.swaps), d.writebacks] for d in report.decisions]


def _plot_rows(report, extra=()):
    s = report.stats
    base = [("max_block_writes", s.max_block_writes), ("cycles", s.cycles),
            ("energy_j", report.energy_j), ("mpki", report.mpki_value),
            ("remap_runs", s.remap_runs),
            ("flush_writebacks", s.flush_writebacks),
            ("block_write_sd", s.block_write_sd)]
    rows = [[metric, report.policy, report.workload, _cell(value)]
            for metric, value in base]
    rows.extend([metric, report.policy, report.workload, _cell(value)]
                for metric, value in extra)
    return rows


def write_atomic(path, text):
    """Write text to path via a temp file + rename in the same directory."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _config_lines(cfg: ExperimentConfig):
    cache = cfg.cache
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
        f"- workload: {cfg.workload_label()}",
    ]


def _stats_table(reports):
    head = ("| policy | workload | maxBlockWrites | cycles | energyJ | mpki | "
            "remapRuns | flushWritebacks | blockWriteSD |")
    sep = "|" + "---|" * 9
    rows = [head, sep]
    for r in reports:
        s = r.stats
        mpki_text = "n/a" if r.mpki_value is None else f"{r.mpki_value:.6g}"
        rows.append(f"| {r.policy} | {r.workload} | {s.max_block_writes} | "
                    f"{s.cycles} | {r.energy_j:.6g} | {mpki_text} | "
                    f"{s.remap_runs} | {s.flush_writebacks} | "
                    f"{s.block_write_sd:.6g} |")
    return rows


def _fmt_opt(value, suffix=""):
    return "n/a" if value is None else f"{value:.6g}{suffix}"


def write_run_report(report: ExperimentReport, out_dir):
    """Emit report.csv, decisions.csv, mapping_audit.csv, plot.csv, summary.md."""
    write_atomic(os.path.join(out_dir, "report.csv"),
                 _csv_text(REPORT_COLUMNS, [_report_row(report)]))
    write_atomic(os.path.join(out_dir, "decisions.csv"),
                 _csv_text(DECISION_COLUMNS, _decision_rows(report)))
    write_atomic(os.path.join(out_dir, "mapping_audit.csv"),
                 _csv_text(AUDIT_COLUMNS, report.mapping_audit))
    write_atomic(os.path.join(out_dir, "plot.csv"),
                 _csv_text(PLOT_COLUMNS, _plot_rows(report)))
    lines = ["# nvwear run summary", "",
             f"generated: {datetime.now(timezone.utc).isoformat()}", "",
             "## configuration", *_config_lines(report.config), "",
             "## results", *_stats_table([report]), ""]
    write_atomic(os.path.join(out_dir, "summary.md"), "\n".join(lines))


def write_comparison_report(comparison: Comparison, out_dir):
    base, tech = comparison.baseline, comparison.technique
    s = base.stats
    rows = [
        # the baseline against itself: each identity value needs the
        # baseline's own denominator, like the technique's ratios do
        _report_row(base, rel_lifetime=1.0 if s.max_block_writes > 0 else None,
                    rel_perf=1.0 if s.cycles > 0 else None,
                    energy_delta_pct=0.0 if base.energy_j > 0 else None,
                    mpki_delta=0.0 if base.mpki_value is not None else None),
        _report_row(tech, rel_lifetime=comparison.relative_lifetime,
                    rel_perf=comparison.relative_performance,
                    energy_delta_pct=comparison.energy_saving_pct,
                    mpki_delta=comparison.mpki_increase),
    ]
    write_atomic(os.path.join(out_dir, "report.csv"),
                 _csv_text(REPORT_COLUMNS, rows))
    for role, rep in (("baseline", base), ("technique", tech)):
        write_atomic(os.path.join(out_dir, f"{role}_decisions.csv"),
                     _csv_text(DECISION_COLUMNS, _decision_rows(rep)))
        write_atomic(os.path.join(out_dir, f"{role}_mapping_audit.csv"),
                     _csv_text(AUDIT_COLUMNS, rep.mapping_audit))
    extra = [("relative_lifetime", comparison.relative_lifetime),
             ("relative_performance", comparison.relative_performance),
             ("energy_saving_pct", comparison.energy_saving_pct),
             ("mpki_increase", comparison.mpki_increase)]
    plot = _plot_rows(base) + _plot_rows(tech, extra=extra)
    write_atomic(os.path.join(out_dir, "plot.csv"),
                 _csv_text(PLOT_COLUMNS, plot))
    lines = ["# nvwear comparison summary", "",
             f"generated: {datetime.now(timezone.utc).isoformat()}", "",
             "## baseline configuration", *_config_lines(base.config), "",
             "## technique configuration", *_config_lines(tech.config), "",
             "## results", *_stats_table([base, tech]), "",
             "## comparison (technique vs baseline)",
             f"- relative lifetime: {_fmt_opt(comparison.relative_lifetime)}",
             f"- relative performance: {_fmt_opt(comparison.relative_performance)} "
             "(coarse proxy: additive timing model, no contention)",
             "- remap flush writebacks cost energy but zero cycles, so relative "
             "performance is optimistic for swl and xor",
             f"- energy saving: {_fmt_opt(comparison.energy_saving_pct, '%')}",
             f"- MPKI increase: {_fmt_opt(comparison.mpki_increase)}", ""]
    write_atomic(os.path.join(out_dir, "summary.md"), "\n".join(lines))
