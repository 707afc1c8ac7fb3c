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
                     POLICY_KINDS, build_policy)
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


_CACHE_KEYS = {"size_bytes", "associativity", "block_bytes", "page_bytes",
               "read_hit_cycles", "write_hit_cycles", "miss_penalty_cycles",
               "frequency_hz"}
_POLICY_KEYS = {"kind", "beta", "lambda", "k_writes", "min_gap_cycles",
                "swap_limit_mode", "count_fills"}
_WORKLOAD_KEYS = {"kind", "trace", "events", "write_fraction", "zipf_s",
                  "hotset_fraction", "hotset_probability", "pages", "seed",
                  "instructions_per_access"}
_OUTPUT_KEYS = {"dir"}
_SECTIONS = {"cache": _CACHE_KEYS, "policy": _POLICY_KEYS,
             "workload": _WORKLOAD_KEYS, "output": _OUTPUT_KEYS}


def _read_ini(path):
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None
    sections = {}
    for name in parser.sections():
        if name not in _SECTIONS:
            raise ConfigError(f"{path}: unknown section [{name}]")
        body = dict(parser.items(name))
        unknown = set(body) - _SECTIONS[name]
        if unknown:
            raise ConfigError(f"{path}: unknown key(s) in [{name}]: "
                              f"{', '.join(sorted(unknown))}")
        sections[name] = body
    return sections


def build_config(path=None, overrides=None) -> ExperimentConfig:
    """Assemble an ExperimentConfig from an optional INI file plus flag
    overrides (override values of None are ignored)."""
    sections = _read_ini(path) if path else {}
    ov = {k: v for k, v in (overrides or {}).items() if v is not None}

    c = sections.get("cache", {})
    cache = CacheConfig(
        cache_size_bytes=parse_size(c.get("size_bytes", 4 * 1024 * 1024)),
        associativity=int(c.get("associativity", 16)),
        block_size_bytes=parse_size(c.get("block_bytes", 64)),
        page_size_bytes=parse_size(c.get("page_bytes", 4096)),
        hit_read_latency=int(c.get("read_hit_cycles", 2)),
        hit_write_latency=int(c.get("write_hit_cycles", 12)),
        miss_penalty=int(c.get("miss_penalty_cycles", 160)),
        core_frequency_hz=int(c.get("frequency_hz", 2_000_000_000)),
    )

    p = sections.get("policy", {})
    policy_kind = ov.get("policy", p.get("kind", "swl"))
    beta = float(ov.get("beta", p.get("beta", DEFAULT_BETA)))
    lam = ov.get("lam", p.get("lambda"))
    swap_limit = None if lam is None else int(lam)
    k_writes = int(ov.get("k", p.get("k_writes", DEFAULT_K_WRITES)))
    min_gap = int(ov.get("min_gap_cycles",
                         p.get("min_gap_cycles", DEFAULT_MIN_GAP_CYCLES)))
    mode = ov.get("swap_limit_mode", p.get("swap_limit_mode", "min"))
    count_fills_raw = ov.get("count_fills", p.get("count_fills", "on"))
    count_fills = (count_fills_raw if isinstance(count_fills_raw, bool)
                   else parse_bool(count_fills_raw))

    w = sections.get("workload", {})
    trace_path = ov.get("trace", w.get("trace"))
    wkind = ov.get("workload_kind", w.get("kind", "uniform"))
    workload = None
    if trace_path is None and wkind != "trace":
        workload = GeneratorSpec(
            kind=wkind,
            num_events=int(ov.get("events", w.get("events", 100_000))),
            write_fraction=float(ov.get("write_fraction",
                                        w.get("write_fraction", 0.5))),
            zipf_exponent=float(ov.get("zipf_s", w.get("zipf_s", 1.0))),
            hotset_fraction=float(ov.get("hotset_fraction",
                                         w.get("hotset_fraction", 0.125))),
            hotset_probability=float(ov.get("hotset_probability",
                                            w.get("hotset_probability", 0.9))),
            page_count=int(ov.get("pages", w.get("pages", 256))),
            seed=int(ov.get("seed", w.get("seed", 1))),
            instructions_per_access=int(ov.get("instructions_per_access",
                                               w.get("instructions_per_access", 5))),
            page_size_bytes=cache.page_size_bytes,
            block_size_bytes=cache.block_size_bytes,
        )
    elif trace_path is None:
        raise ConfigError("workload kind 'trace' requires a trace path")

    out_dir = ov.get("out", sections.get("output", {}).get("dir", "out"))

    return ExperimentConfig(cache=cache, policy_kind=policy_kind, beta=beta,
                            swap_limit=swap_limit, k_writes=k_writes,
                            min_gap_cycles=min_gap, swap_limit_mode=mode,
                            count_fills=count_fills, workload=workload,
                            trace_path=trace_path, out_dir=out_dir)


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
    lines = [
        f"- cache: {cache.cache_size_bytes} B, {cache.associativity}-way, "
        f"{cache.block_size_bytes} B blocks, {cache.page_size_bytes} B pages "
        f"({cache.num_colors} colors x {cache.sets_per_color} sets)",
        f"- latencies: read hit {cache.hit_read_latency}, write hit "
        f"{cache.hit_write_latency}, miss {cache.miss_penalty} cycles "
        f"at {cache.core_frequency_hz} Hz",
        f"- policy: {cfg.policy_kind} (beta={cfg.beta:g}, "
        f"lambda={cfg.swap_limit if cfg.swap_limit is not None else cache.num_colors // 4}, "
        f"K={cfg.k_writes}, min_gap={cfg.min_gap_cycles} cycles, "
        f"mode={cfg.swap_limit_mode}, count_fills="
        f"{'on' if cfg.count_fills else 'off'})",
        f"- workload: {cfg.workload_label()}",
    ]
    return lines


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
