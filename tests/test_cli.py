import argparse
import csv
import dataclasses
import hashlib
import inspect
import logging
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import nvwear
from nvwear import (CacheState, ConfigError, ExperimentConfig, GeneratorSpec, build_config,
                    read_trace, run_experiment)
from nvwear.cache import AccessOutcome
from nvwear.cli import _build_parser, main
from nvwear.experiment import _SETTINGS, compare_experiments, parse_bool, parse_size
from nvwear.workload import replacing, write_trace

from helpers import small_cfg, small_ini
# INI- and trace-grammar refusals folded into test_refusals.py keep their names,
# as folded(<its rows>)
from test_refusals import folded

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(path, text):
    path.write_text(text)
    return str(path)


def small_config(tmp_path, name="cfg.ini", **kwargs):
    return write_config(tmp_path / name, small_ini(**kwargs))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestParseHelpers:
    def test_sizes(self):
        assert parse_size("64") == 64
        assert parse_size("4K") == 4096
        assert parse_size("4M") == 4 * 1024 ** 2
        assert parse_size("1GiB") == 1024 ** 3
        assert parse_size("2kb") == 2048
        with pytest.raises(ConfigError):
            parse_size("4.5M")

    def test_sizes_with_byte_suffixes(self):
        assert [parse_size(t) for t in ("4KiB", "4B", "4 KiB")] == [4096, 4, 4096]
        for text in ("4iB", "4ib", "4Ki", "4i"):  # only K, M or G takes the i
            with pytest.raises(ConfigError):
                parse_size(text)

    def test_bools(self):
        assert parse_bool("on") and parse_bool("TRUE") and parse_bool("1")
        assert not parse_bool("off") and not parse_bool("no")
        with pytest.raises(ConfigError):
            parse_bool("maybe")


class TestBuildConfig:
    def test_defaults_without_file(self):
        cfg = build_config()
        assert cfg.cache.num_colors == 64
        assert cfg.policy_kind == "swl"
        assert cfg.workload.kind == "uniform"

    def test_file_values(self, tmp_path):
        path = small_config(tmp_path)
        cfg = build_config(path)
        assert cfg.cache.cache_size_bytes == 2048
        assert cfg.cache.num_colors == 4
        assert cfg.k_writes == 1000
        assert cfg.workload.kind == "hotset"
        assert cfg.cache.page_size_bytes == 256  # which the generated stream follows

    def test_overrides_beat_file(self, tmp_path):
        path = small_config(tmp_path)
        cfg = build_config(path, {"policy": "static", "seed": 99, "beta": 10.0})
        assert cfg.policy_kind == "static"
        assert cfg.workload.seed == 99
        assert cfg.beta == 10.0

    def test_every_policy_setting_reaches_the_policy(self):
        policy = build_config(None, {"policy": "swl", "beta": "1.5", "lambda": "3",
                                     "k": "77", "min_gap_cycles": "9",
                                     "swap_limit_mode": "max"}).make_policy()
        assert (policy.beta, policy.swap_limit, policy.k_writes, policy.min_gap_cycles,
                policy.swap_limit_mode) == (1.5, 3, 77, 9, "max")

    def test_lambda_flag_maps_to_swap_limit(self, tmp_path):
        path = small_config(tmp_path, extra_policy="lambda = 2\n")
        assert build_config(path).swap_limit == 2
        assert build_config(path, {"lambda": 1}).swap_limit == 1

    @pytest.mark.parametrize("sources", [{}, {"workload": GeneratorSpec(),
                                              "trace_path": "t.trace"}],
                             ids=["neither", "both"])
    def test_experiment_config_needs_exactly_one_source(self, sources):
        with pytest.raises(ConfigError, match="exactly one of a generator workload "
                                              "or a trace path"):
            ExperimentConfig(**sources)

    @pytest.mark.parametrize("key,value", [("events", 1.5), ("k", 2.9), ("pages", True),
                                           ("seed", 3.7)])
    def test_override_value_is_parsed_from_its_text(self, key, value):
        # int(1.5) would be 1; the text "1.5" is not an int
        with pytest.raises(ConfigError,
                           match=rf"^override {key}: invalid literal for int\(\)"):
            build_config(None, {key: value})

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="lamda"):
            build_config(None, {"lamda": 2})

    def test_every_flag_is_a_setting_and_every_setting_a_run_flag(self):
        subparsers = next(a for a in _build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction)).choices
        dests = {name: {a.dest for a in subparsers[name]._actions}
                 - {"help", "command", "config", "path"}
                 for name in ("run", "gen-trace")}
        override_keys = {row[2] for row in _SETTINGS} - {None}
        assert dests["gen-trace"] <= override_keys
        assert dests["run"] == override_keys


class TestSettingFlags:
    """Setting flags are built from _SETTINGS and their values parsed like the
    file's: the form always, the range only when the run uses the value."""

    def test_bool_flag_takes_the_file_words(self, tmp_path):
        workload = "kind = uniform\nevents = 5000\npages = 64\n"
        by_file = small_config(tmp_path, "yes.ini", extra_policy="count_fills = yes\n",
                               workload=workload)
        by_flag = small_config(tmp_path, "no.ini", extra_policy="count_fills = no\n",
                               workload=workload)
        for name, argv in (("file", ["--config", by_file]),
                           ("flag", ["--config", by_flag, "--count-fills", "yes"]),
                           ("no", ["--config", by_flag])):
            assert main(["run", *argv, "--out", str(tmp_path / name)]) == 0
        report = {name: (tmp_path / name / "report.csv").read_bytes()
                  for name in ("file", "flag", "no")}
        assert report["flag"] == report["file"] != report["no"]

    @pytest.mark.parametrize("command", ["run", "gen-trace"])
    def test_help_names_the_key_each_flag_overrides(self, command, capsys, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")  # no help line is wrapped mid-word
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        subparser = next(a for a in _build_parser()._actions
                         if isinstance(a, argparse._SubParsersAction)).choices[command]
        helps = {a.dest: a.help for a in subparser._actions}
        rows = [row for row in _SETTINGS if row[2]
                and (command == "run" or row[3] is GeneratorSpec)]
        for section, key, override_key, *_ in rows:
            assert helps[override_key] == f"overrides [{section}] {key}"
            assert helps[override_key] in text
        assert text.count("overrides [") == len(rows)


class TestIniLiterals:
    def test_percent_signs_are_literal(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["gen-trace", "my%20file.trace", "--events", "50"]) == 0
        cfg = write_config(tmp_path / "p.ini",
                           "[workload]\ntrace = my%20file.trace\n"
                           "[output]\ndir = out%x\n")
        assert main(["run", "--config", cfg]) == 0
        assert (tmp_path / "out%x" / "report.csv").exists()
        twice = write_config(tmp_path / "q.ini", "[workload]\nevents = 10\n"
                                                 "[output]\ndir = a%%b\n")
        assert main(["run", "--config", twice]) == 0
        assert (tmp_path / "a%%b" / "report.csv").exists()

    test_default_section_is_unknown = folded(**{
        "": "default-section", "[workload]\nkind = zipf\n": "default-then-workload",
        "[policy]\nkind = static\n": "default-then-policy"})


class TestIniGrammar:
    def test_comments_values_and_line_ends(self, tmp_path):
        # a comment starts at a line's start or after a blank; "=" after the
        # first is part of the value, and a CRLF line end is stripped
        cfg = write_config(tmp_path / "c.ini",
                           "; a comment\r\n  [workload]  # here too\r\n"
                           "events=10 ;\n\t# indented\n[output]\ndir = a#b;c=d\n")
        built = build_config(cfg)
        assert (built.workload.num_events, built.out_dir) == (10, "a#b;c=d")

    test_an_indented_line_is_an_ordinary_line = folded("indented-line")
    test_refusals_name_the_file_and_line = folded(**{
        "[workload]\nevents: 10\n-2: expected [section] or key = value, got 'events: 10'": "colon",
        "events = 10\n[workload]\n-1: key 'events' before any section": "key-before-section",
        "[workload]\nevents = 10\n# two\nevents = 20\n-4: repeated key 'events' in [workload]":
            "repeated-key",
        "[workload]\n[policy]\n\n[workload]\n-4: repeated section [workload]": "repeated-section",
        "[cache]\nSize_Bytes = 2M\n-2: unknown key 'Size_Bytes' in [cache]": "key-case",
        "[Policy]\nkind = static\n-1: unknown section [Policy]": "section-case",
        "[workload]\n= 10\n-2: expected [section] or key = value, got '= 10'": "no-key",
        "[workload]\nevents\n-2: expected [section] or key = value, got 'events'": "no-value"})


class TestIniEncoding:
    def test_leading_byte_order_mark_is_accepted(self, tmp_path):
        plain = small_config(tmp_path, "plain.ini")
        bom = tmp_path / "bom.ini"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        for cfg, out in ((plain, "a"), (str(bom), "b")):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        assert ((tmp_path / "a" / "report.csv").read_bytes()
                == (tmp_path / "b" / "report.csv").read_bytes())

    test_run_names_the_file_line_and_byte = folded("not-utf-8")
    test_compare_names_the_bad_technique_file = folded("not-utf-8-technique")


class TestReadmeConfig:
    def _block(self):
        return re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)

    def test_cli_block_commands_parse(self):
        block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(), re.S).group(1)
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.strip()]
        assert all(argv[0] == "nvwear" for argv in commands)
        assert {argv[1] for argv in commands} == {"run", "compare", "gen-trace", "selftest"}
        for argv in commands:
            _build_parser().parse_args(argv[1:])

    def test_block_names_every_setting_once(self):
        named, section = [], None
        for line in self._block().splitlines():
            if m := re.match(r"\[(\w+)\]", line):
                section = m.group(1)
            elif m := re.match(r"#?\s*(\w+)\s*=", line):
                named.append((section, m.group(1)))
        assert sorted(named) == sorted(row[:2] for row in _SETTINGS)

    def test_block_runs_and_shows_the_defaults(self, tmp_path):
        path = write_config(tmp_path / "readme.ini", self._block())
        assert main(["run", "--config", path, "--events", "2000",
                     "--out", str(tmp_path / "o")]) == 0
        cfg = build_config(path)
        assert cfg.swap_limit == 16  # the default for the 64 colors shown
        assert dataclasses.replace(cfg, swap_limit=None) == build_config()


class TestGenTrace:
    def test_writes_requested_events(self, tmp_path):
        out = tmp_path / "t.trace"
        assert main(["gen-trace", str(out), "--kind", "uniform",
                     "--events", "500", "--pages", "8", "--seed", "3"]) == 0
        events = list(read_trace(out))
        assert len(events) == 500

    def test_zero_events_empty_file(self, tmp_path):
        out = tmp_path / "empty.trace"
        assert main(["gen-trace", str(out), "--events", "0"]) == 0
        assert out.read_text() == ""

    def test_write_fraction_one_has_no_reads(self, tmp_path):
        out = tmp_path / "w.trace"
        assert main(["gen-trace", str(out), "--events", "300",
                     "--write-fraction", "1.0"]) == 0
        body = out.read_text()
        assert "R " not in body and body.count("W ") == 300

    def test_fixed_seed_stable_bytes(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        for out in (a, b):
            assert main(["gen-trace", str(out), "--events", "400",
                         "--seed", "11"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_makes_the_missing_directories(self, tmp_path):
        out = tmp_path / "a" / "b" / "t.trace"
        assert main(["gen-trace", str(out), "--events", "10"]) == 0
        assert len(list(read_trace(out))) == 10

    def test_to_dev_stdout_on_a_file_and_a_pipe(self, tmp_path):
        # a file behind /dev/stdout is replaced like any regular file; a
        # pipe is written in place
        argv = [sys.executable, "-m", "nvwear.cli", "gen-trace", "/dev/stdout",
                "--kind", "uniform", "--events", "5000", "--seed", "5"]
        env = {**os.environ, "PYTHONPATH": str(Path(nvwear.__file__).parents[1])}
        out = tmp_path / "out.trace"
        with open(out, "wb") as fh:
            subprocess.run(argv, stdout=fh, env=env, check=True)
        piped = subprocess.run(argv, stdout=subprocess.PIPE, env=env, check=True).stdout
        assert out.read_bytes() == piped
        assert hashlib.sha256(piped).hexdigest() == (
            "d37b408597d88cdded1b7b9a947a6ea7a286813d78facd6a17236b35af008873")
        assert [p.name for p in tmp_path.iterdir()] == ["out.trace"]

    @pytest.mark.parametrize("text", ["[policy]\nlambda = 99\n",
                                      "[cache]\nsize_bytes = 64K\n"])  # one color
    def test_policy_settings_are_not_range_checked(self, tmp_path, text):
        plain, out = tmp_path / "plain.trace", tmp_path / "out.trace"
        assert main(["gen-trace", str(plain), "--events", "300"]) == 0
        cfg = write_config(tmp_path / "p.ini", text)
        assert main(["gen-trace", str(out), "--config", cfg, "--events", "300"]) == 0
        assert out.read_bytes() == plain.read_bytes()


class TestConfigPathImports:
    def test_no_configparser_or_datetime_on_the_config_path(self, tmp_path):
        cfg = write_config(tmp_path / "c.ini", "[workload]\nevents = 10\n")
        code = ("import sys, nvwear, nvwear.cli\n"
                "nvwear.build_config(None, {'events': 10})\n"
                "assert 'configparser' not in sys.modules\n"
                "assert 'datetime' not in sys.modules\n"
                f"nvwear.build_config({str(cfg)!r})\n"
                "assert 'configparser' not in sys.modules\n")
        src = str(Path(nvwear.__file__).parents[1])
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": src})


class TestFlagsAreNotAbbreviated:
    @pytest.mark.parametrize("argv", [["gen-trace", "t", "--k", "0"],
                                      ["run", "--lam", "4"],
                                      ["run", "--write-frac", "0.5"],
                                      ["selftest", "--case", "3"]])
    def test_a_flag_prefix_is_refused(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestRun:
    def test_run_writes_reports(self, tmp_path):
        cfg = small_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        for name in ("report.csv", "decisions.csv", "mapping_audit.csv",
                     "plot.csv", "summary.md"):
            assert (out / name).exists()
        rows = read_csv(out / "report.csv")
        assert rows[0][:3] == ["policy", "seed", "workload"]
        assert rows[1][0] == "swl"
        assert rows[1][1] == "5"

    def test_fewer_pages_than_colors_warns(self, tmp_path, caplog):
        cfg = small_config(tmp_path, workload="kind = uniform\nevents = 100\npages = 2\n")
        with caplog.at_level(logging.WARNING, logger="nvwear"):
            run_experiment(build_config(cfg))
        assert caplog.messages == ["workload touches 2 pages but the cache has 4 colors; "
                                   "some colors will never see traffic"]

    def test_run_on_trace_file(self, tmp_path):
        trace = tmp_path / "t.trace"
        assert main(["gen-trace", str(trace), "--events", "2000",
                     "--pages", "8", "--kind", "zipf"]) == 0
        cfg = small_config(tmp_path, workload="kind = uniform\n")
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--trace", str(trace),
                     "--out", str(out), "--policy", "static"]) == 0
        rows = read_csv(out / "report.csv")
        assert rows[1][2] == "trace:t.trace"
        assert rows[1][1] == ""  # no generator seed for trace input

    @pytest.mark.parametrize("size,lam", [("128K", 1), ("4M", 16)])
    def test_summary_shows_default_lambda(self, tmp_path, size, lam):
        cfg = write_config(tmp_path / "c.ini", f"[cache]\nsize_bytes = {size}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--events", "200",
                     "--out", str(out)]) == 0
        assert f"lambda={lam}," in (out / "summary.md").read_text()

    def test_summary_shows_the_given_lambda_and_count_fills(self, tmp_path, monkeypatch,
                                                             caplog):
        # 4 pages on 4 colors: every color can see traffic, so nothing is warned
        monkeypatch.delenv("NVWEAR_LOG", raising=False)
        cfg, out = small_config(tmp_path), tmp_path / "o"
        assert main(["run", "--config", cfg, "--lambda", "2", "--count-fills", "off",
                     "--out", str(out)]) == 0
        assert ("- policy: swl (beta=75, lambda=2, K=1000, min_gap=0 cycles, mode=min, "
                "count_fills=off)\n") in (out / "summary.md").read_text()
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []

    test_malformed_trace_fails_nonzero = folded("trace-unknown-kind-in-a-run")
    test_non_ascii_trace_fails_with_line = folded("trace-non-ascii-in-a-run")
    test_digit_separator_in_trace_fails_with_line = folded("trace-separators-in-a-run")


class TestCompare:
    def test_static_vs_swl(self, tmp_path):
        base = small_config(tmp_path, "base.ini", policy="static")
        tech = small_config(tmp_path, "tech.ini", policy="swl")
        out = tmp_path / "cmp"
        assert main(["compare", base, tech, "--out", str(out)]) == 0
        rows = read_csv(out / "report.csv")
        assert len(rows) == 3
        header, base_row, tech_row = rows
        rel = tech_row[header.index("relLifetime")]
        assert float(rel) >= 1.0
        assert base_row[header.index("relLifetime")] == "1.0"
        for name in ("baseline_decisions.csv", "technique_decisions.csv",
                     "plot.csv", "summary.md"):
            assert (out / name).exists()

    def test_identical_configs_give_unit_ratios(self, tmp_path):
        base = small_config(tmp_path, "b.ini", policy="static")
        tech = small_config(tmp_path, "t.ini", policy="static")
        out = tmp_path / "cmp"
        assert main(["compare", base, tech, "--out", str(out)]) == 0
        header, _, tech_row = read_csv(out / "report.csv")
        assert float(tech_row[header.index("relLifetime")]) == 1.0
        assert float(tech_row[header.index("relPerf")]) == 1.0
        assert float(tech_row[header.index("energyDeltaPct")]) == 0.0
        assert float(tech_row[header.index("mpkiDelta")]) == 0.0


class TestCompareSummary:
    """summary.md says over how many events and remaps the lifetime ratio holds."""

    @pytest.mark.parametrize("beta, events, expected", [
        (12, 999, ["- horizon: 999 events, 4995 instructions",
                   "- technique decisions: 0 run, 0 gated, 0 with swaps",
                   "- relative lifetime: 1",
                   "- the relative lifetime rests on 0 remaps; a longer run may move it"]),
        (12, 1500, ["- horizon: 1500 events, 7500 instructions",
                    "- technique decisions: 0 run, 1 gated, 0 with swaps",
                    "- relative lifetime: 1",
                    "- the relative lifetime rests on 0 remaps; a longer run may move it"]),
        (0, 1500, ["- horizon: 1500 events, 7500 instructions",
                   "- technique decisions: 1 run, 0 gated, 1 with swaps",
                   "- relative lifetime: 0.901639",
                   "- the relative lifetime rests on 1 remap; a longer run may move it"]),
        (12, 20000, ["- horizon: 20000 events, 100000 instructions",
                     "- technique decisions: 10 run, 10 gated, 10 with swaps",
                     "- relative lifetime: 1.00451"]),
    ])
    def test_horizon_and_decision_lines(self, tmp_path, beta, events, expected):
        workload = (f"kind = uniform\nevents = {events}\nwrite_fraction = 1.0\n"
                    "pages = 16\nseed = 5\n")
        base = small_config(tmp_path, "b.ini", policy="static", workload=workload)
        tech = small_config(tmp_path, "t.ini", extra_policy=f"beta = {beta}\n",
                            workload=workload)
        out = tmp_path / "cmp"
        assert main(["compare", base, tech, "--out", str(out)]) == 0
        lines = (out / "summary.md").read_text().splitlines()
        start = lines.index("## comparison (technique vs baseline)") + 1
        end = next(i for i, line in enumerate(lines)
                   if line.startswith("- relative performance:"))
        assert lines[start:end] == expected


class TestCompareEdges:
    def test_empty_workload_reports_undefined_ratios(self):
        wl = GeneratorSpec(kind="uniform", num_events=0, page_count=4)
        base = ExperimentConfig(cache=small_cfg(), policy_kind="static",  # 2 KiB, 2 ways
                                workload=wl, out_dir="unused")
        cmp_ = compare_experiments(base, dataclasses.replace(base))
        assert cmp_.relative_lifetime is None
        assert cmp_.relative_performance is None
        assert cmp_.mpki_increase is None

    def test_empty_workload_leaves_both_rows_ratios_empty(self, tmp_path):
        workload = "kind = uniform\nevents = 0\npages = 4\n"
        base = small_config(tmp_path, "b.ini", policy="static", workload=workload)
        tech = small_config(tmp_path, "t.ini", policy="swl", workload=workload)
        out = tmp_path / "cmp"
        assert main(["compare", base, tech, "--out", str(out)]) == 0
        header, *rows = read_csv(out / "report.csv")
        assert [row[0] for row in rows] == ["static", "swl"]
        for row in rows:
            for column in ("relLifetime", "relPerf", "energyDeltaPct",
                           "mpkiDelta"):
                assert row[header.index(column)] == "", column


class TestReplacing:
    """Every output file goes through workload.replacing: all or nothing."""

    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            with replacing(path) as fh:
                fh.write("a\ud800")  # a lone surrogate has no UTF-8 form
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
        assert path.read_text() == "old\n"

    def test_reports_take_their_mode_from_the_umask(self, tmp_path):
        old = os.umask(0o022)
        try:
            assert main(["run", "--events", "10", "--out", str(tmp_path / "o")]) == 0
        finally:
            os.umask(old)
        assert (tmp_path / "o" / "report.csv").stat().st_mode & 0o777 == 0o644

    def test_rewrite_renames_onto_no_existing_file(self, tmp_path, monkeypatch):
        # a rename over a file written a moment earlier stalls until the
        # kernel has written that file out, so the old file goes first
        targets = []

        def check_target(rename):
            def wrapped(src, dst, *args, **kwargs):
                targets.append((dst, os.path.exists(dst)))
                return rename(src, dst, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(os, "replace", check_target(os.replace))
        monkeypatch.setattr(os, "rename", check_target(os.rename))
        path, trace = tmp_path / "r.csv", tmp_path / "t.trace"
        for text in ("old\n", "new\n"):
            with replacing(path) as fh:
                fh.write(text)
        for icount in (1, 2):
            write_trace(trace, [(True, 0x40, icount)])
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.csv", "t.trace"]
        assert path.read_text() == "new\n"
        assert trace.read_text() == "W 0x40 2\n"
        assert targets == [(os.path.realpath(p), False) for p in (path, path, trace, trace)]

    def test_errors_name_the_path_given(self, tmp_path):
        path = tmp_path / "t.trace"
        (tmp_path / f"t.trace.{os.getpid()}.tmp").mkdir()  # the temp file's name, taken
        with pytest.raises(IsADirectoryError) as raised:
            write_trace(path, [(True, 0x40, 1)])
        assert raised.value.filename == str(path)
        assert not path.exists()

    @pytest.mark.parametrize("name", [pytest.param("t" * 249 + ".trace", id="255-ascii-bytes"),
                                      pytest.param("\U0001f600" * 63, id="63-four-byte-chars")])
    def test_a_trace_takes_any_name_its_directory_can_hold(self, tmp_path, name):
        # the temp file's name is cut, so it fits wherever the target's fits
        assert len(os.fsencode(name)) in (255, 252)
        path = tmp_path / name
        for icount in (1, 2):
            write_trace(path, [(True, 0x40, icount)])
        assert [tuple(e) for e in read_trace(path)] == [(True, 0x40, 2)]
        assert [p.name for p in tmp_path.iterdir()] == [name]

    def test_takes_only_a_path(self):
        # every output file is UTF-8; a trace is ASCII because the writer checks it
        assert list(inspect.signature(replacing).parameters) == ["path"]


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest", "--cases", "10", "--ops", "200",
                     "--seed", "1"]) == 0
        assert "selftest passed" in capsys.readouterr().out

    def test_a_divergence_fails_naming_the_case(self, capsys, monkeypatch):
        real_access = CacheState.access

        def flip_hit(self, set_index, tag, is_write):
            out = real_access(self, set_index, tag, is_write)
            return AccessOutcome(not out.hit, out.evicted_dirty)

        monkeypatch.setattr(CacheState, "access", flip_hit)
        assert main(["selftest", "--cases", "5", "--ops", "50"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("selftest FAILED: case 0: op 0: access(")
        assert captured.out == ""

    def test_draws_every_op_kind(self, monkeypatch):
        real, kinds = nvwear.cli.replay_against_reference, set()

        def spy(cfg, schedule, count_fills):
            def seen():
                for op in schedule:
                    kinds.add(op[0])
                    yield op
            return real(cfg, seen(), count_fills)

        monkeypatch.setattr(nvwear.cli, "replay_against_reference", spy)
        assert main(["selftest", "--cases", "5", "--ops", "400"]) == 0
        assert kinds == {"access", "flush", "remap"}


class TestLogLevel:
    @pytest.fixture(autouse=True)
    def restore_level(self):
        """main sets the nvwear logger's level; put it back for later tests."""
        logger = logging.getLogger("nvwear")
        saved = logger.level
        yield
        logger.setLevel(saved)

    @pytest.mark.parametrize("value", ["debug", "Info", "WARNING", "cRiTiCaL"])
    def test_level_words_in_any_case(self, monkeypatch, value):
        monkeypatch.setenv("NVWEAR_LOG", value)
        assert main(["selftest", "--cases", "1", "--ops", "1"]) == 0

    @pytest.mark.parametrize("value", ["debgu", "BASIC_FORMAT"])
    def test_any_other_value_exits_2(self, monkeypatch, capsys, value):
        monkeypatch.setenv("NVWEAR_LOG", value)
        assert main(["selftest", "--cases", "1", "--ops", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: NVWEAR_LOG: {value!r} is not one of "
            "debug|info|warning|error|critical\n")

    def test_each_call_sets_the_level(self, monkeypatch):
        for value, info in (("warning", False), ("info", True), ("warning", False)):
            monkeypatch.setenv("NVWEAR_LOG", value)
            assert main(["selftest", "--cases", "1", "--ops", "1"]) == 0
            assert logging.getLogger("nvwear").isEnabledFor(logging.INFO) is info

    def test_run_and_compare_say_what_they_wrote(self, tmp_path, monkeypatch, caplog):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("NVWEAR_LOG", "debug")
        small_config(tmp_path, "t.ini")
        small_config(tmp_path, "b.ini", policy="static")
        assert main(["run", "--config", "t.ini", "--out", "o"]) == 0
        assert "wrote reports for swl to o" in caplog.messages
        assert any(r.name == "nvwear.engine" and r.levelno == logging.DEBUG
                   and r.getMessage().startswith("interval 1 @") for r in caplog.records)
        caplog.clear()
        assert main(["compare", "b.ini", "t.ini", "--out", "o"]) == 0
        assert "wrote comparison (swl vs static) to o" in caplog.messages

    def test_a_process_logs_to_stderr(self, tmp_path):
        # under pytest the root logger already has handlers, so main's
        # basicConfig is seen only by a process of its own
        src = str(Path(nvwear.__file__).parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "nvwear.cli", "gen-trace", "t.trace", "--events", "10"],
            cwd=tmp_path, capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "NVWEAR_LOG": "info"})
        assert (done.stdout, done.stderr) == ("", "INFO nvwear.cli: wrote 10 events to t.trace\n")
