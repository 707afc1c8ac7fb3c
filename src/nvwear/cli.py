"""Command-line front end: run, compare, gen-trace, and selftest.

Diagnostics go to stderr at the level named by the NVWEAR_LOG environment
variable (debug, info, warning, error or critical, in any case; warning when
unset); ``run`` and ``compare`` put their reports in files only.
"""

import argparse
import logging
import os
import random
import sys

from .cache import CacheConfig
from .errors import ConfigError
from .experiment import (_SETTINGS, build_config, compare_experiments, run_experiment,
                         write_comparison_report, write_run_report)
from .reference import replay_against_reference
from .workload import GeneratorSpec, generate_tuples, write_trace

log = logging.getLogger("nvwear.cli")


def _add_setting_flags(parser, target=None):
    """One flag per setting with an override key (of ``target``'s settings if
    given): ``--<key>`` with dashes, except that workload_kind is ``--kind``.
    The value is kept as text; build_config parses it as it parses the file's."""
    for section, key, override_key, row_target, _, _ in _SETTINGS:
        if override_key and target in (None, row_target):
            flag = "kind" if override_key == "workload_kind" else override_key
            parser.add_argument(f"--{flag.replace('_', '-')}", dest=override_key,
                                help=f"overrides [{section}] {key}")


def _build_parser():
    # allow_abbrev=False, here and on each subcommand: a flag means exactly
    # the key its --help names, so --k is never taken for --kind
    parser = argparse.ArgumentParser(
        prog="nvwear", allow_abbrev=False,
        description="Trace-driven wear-leveling simulator for non-volatile "
                    "set-associative caches")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", allow_abbrev=False,
                           help="simulate one policy and write reports")
    p_run.add_argument("--config", help="INI config file")
    _add_setting_flags(p_run)

    p_cmp = sub.add_parser("compare", allow_abbrev=False,
                           help="run baseline and technique configs on the "
                                "same workload and report the four headline "
                                "metrics")
    p_cmp.add_argument("baseline_config", help="INI config of the baseline")
    p_cmp.add_argument("technique_config", help="INI config of the technique")
    p_cmp.add_argument("--out", help="output directory")

    p_gen = sub.add_parser("gen-trace", allow_abbrev=False,
                           help="write a synthetic trace file")
    p_gen.add_argument("path", help="output trace path")
    p_gen.add_argument("--config", help="INI config file for the workload")
    _add_setting_flags(p_gen, GeneratorSpec)

    p_self = sub.add_parser("selftest", allow_abbrev=False,
                            help="differential check of the cache model "
                                 "against a naive reference simulator")
    p_self.add_argument("--cases", type=int, default=100)
    p_self.add_argument("--ops", type=int, default=400,
                        help="operations per case")
    p_self.add_argument("--seed", type=int, default=0)
    return parser


def _settings(args):
    """The parsed flags that are settings: all but command, config and path."""
    return {k: v for k, v in vars(args).items() if k not in ("command", "config", "path")}


def _cmd_run(args):
    cfg = build_config(args.config, _settings(args))
    report = run_experiment(cfg)
    write_run_report(report, cfg.out_dir)
    log.info("wrote reports for %s to %s", report.policy, cfg.out_dir)
    return 0


def _cmd_compare(args):
    base_cfg = build_config(args.baseline_config, {"out": args.out})
    tech_cfg = build_config(args.technique_config, {"out": args.out})
    if base_cfg.out_dir != tech_cfg.out_dir:
        raise ConfigError(f"compare: {args.baseline_config} and {args.technique_config} "
                          f"name different [output] dirs ({base_cfg.out_dir!r}, "
                          f"{tech_cfg.out_dir!r}); give --out or make them agree")
    comparison = compare_experiments(base_cfg, tech_cfg)
    write_comparison_report(comparison, tech_cfg.out_dir)
    log.info("wrote comparison (%s vs %s) to %s", comparison.technique.policy,
             comparison.baseline.policy, tech_cfg.out_dir)
    return 0


def _cmd_gen_trace(args):
    cfg = build_config(args.config, _settings(args), policy=False)
    write_trace(args.path, generate_tuples(cfg.workload, cfg.cache))
    log.info("wrote %d events to %s", cfg.workload.num_events, args.path)
    return 0


def _selftest_case(rng, case_index, ops):
    """Drive the production model and the naive reference through one shared
    random schedule of accesses, flushes, and remap swaps."""
    colors = rng.choice((2, 4))
    sets_per_color = rng.choice((2, 4))
    assoc = rng.choice((1, 2, 4, 16))
    block = 64
    page = block * sets_per_color
    cfg = CacheConfig(cache_size_bytes=colors * page * assoc,
                      associativity=assoc, block_size_bytes=block,
                      page_size_bytes=page)
    count_fills = bool(rng.getrandbits(1))
    pages = colors * (assoc + rng.choice((2, 4)))  # every set can overfill

    def schedule():
        for _ in range(ops):
            roll = rng.random()
            if roll < 0.01:
                yield "flush", rng.randrange(colors)
            elif roll < 0.02:
                yield "remap", rng.randrange(colors), rng.randrange(colors)
            else:
                addr = rng.randrange(pages) * page + rng.randrange(sets_per_color) * block
                yield "access", addr, bool(rng.getrandbits(1))

    failure = replay_against_reference(cfg, schedule(), count_fills)[0]
    return None if failure is None else f"case {case_index}: {failure}"


def _cmd_selftest(args):
    for flag, value, least in (("--cases", args.cases, 1), ("--ops", args.ops, 1),
                               ("--seed", args.seed, 0)):
        if value < least:
            raise ConfigError(f"selftest {flag} must be >= {least}, got {value}")
    rng = random.Random(args.seed)
    for case_index in range(args.cases):
        failure = _selftest_case(rng, case_index, args.ops)
        if failure is not None:
            print(f"selftest FAILED: {failure}", file=sys.stderr)
            return 1
    print(f"selftest passed: {args.cases} cases x {args.ops} ops, production "
          f"and reference simulators agree")
    return 0


_LOG_LEVELS = ("debug", "info", "warning", "error", "critical")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "compare": _cmd_compare,
                "gen-trace": _cmd_gen_trace, "selftest": _cmd_selftest}
    try:
        level = os.environ.get("NVWEAR_LOG", "warning")
        if level.lower() not in _LOG_LEVELS:
            raise ConfigError(f"NVWEAR_LOG: {level!r} is not one of "
                              f"{'|'.join(_LOG_LEVELS)}")
        # basicConfig is a no-op once the root logger has a handler, so the
        # level is set on the package's logger, on every call
        logging.basicConfig(stream=sys.stderr,
                            format="%(levelname)s %(name)s: %(message)s")
        logging.getLogger("nvwear").setLevel(level.upper())
        return handlers[args.command](args)
    # ConfigError and TraceFormatError are ValueErrors
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
