import argparse
import csv
import dataclasses
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
from nvwear.experiment import _SETTINGS, parse_bool, parse_size, write_atomic

README = Path(__file__).resolve().parent.parent / "README.md"


def write_config(path, text):
    path.write_text(text)
    return str(path)


SMALL_CACHE = """
[cache]
size_bytes = 2K
associativity = 2
block_bytes = 64
page_bytes = 256
"""


def small_config(tmp_path, name="cfg.ini", policy="swl", extra_policy="",
                 workload="kind = hotset\nevents = 20000\nwrite_fraction = 1.0\n"
                          "hotset_fraction = 0.25\npages = 4\nseed = 5\n"):
    text = (SMALL_CACHE
            + f"\n[policy]\nkind = {policy}\nk_writes = 1000\n"
              f"min_gap_cycles = 0\n{extra_policy}"
            + f"\n[workload]\n{workload}")
    return write_config(tmp_path / name, text)


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
        assert cfg.workload.page_size_bytes == 256  # follows the cache geometry

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

    def test_unknown_section_and_key_rejected(self, tmp_path):
        bad = write_config(tmp_path / "bad.ini", "[tuning]\nx = 1\n")
        with pytest.raises(ConfigError):
            build_config(bad)
        bad2 = write_config(tmp_path / "bad2.ini", "[cache]\nsize = 4M\n")
        with pytest.raises(ConfigError):
            build_config(bad2)

    def test_trace_workload_requires_path(self, tmp_path):
        bad = write_config(tmp_path / "t.ini", "[workload]\nkind = trace\n")
        with pytest.raises(ConfigError):
            build_config(bad)

    def test_without_policy_a_trace_workload_is_refused(self, tmp_path):
        cfg = write_config(tmp_path / "t.ini", "[workload]\ntrace = some.trace\n")
        with pytest.raises(ConfigError) as excinfo:
            build_config(cfg, policy=False)
        assert str(excinfo.value) == (
            f"{cfg}:2: [workload] trace is set, but gen-trace needs a generator workload")

    @pytest.mark.parametrize("sources", [{}, {"workload": GeneratorSpec(),
                                              "trace_path": "t.trace"}],
                             ids=["neither", "both"])
    def test_experiment_config_needs_exactly_one_source(self, sources):
        with pytest.raises(ConfigError, match="exactly one of a generator workload "
                                              "or a trace path"):
            ExperimentConfig(**sources)

    @pytest.mark.parametrize("section,key,value", [
        ("cache", "associativity", "abc"),        # int
        ("policy", "beta", "high"),               # float
        ("cache", "size_bytes", "4.5M"),          # parse_size
        ("policy", "count_fills", "maybe"),       # parse_bool
    ])
    def test_malformed_value_names_file_section_and_key(self, tmp_path, capsys,
                                                        section, key, value):
        bad = write_config(tmp_path / "bad.ini", f"[{section}]\n{key} = {value}\n")
        assert main(["run", "--config", bad, "--out", str(tmp_path / "o")]) == 2
        assert f"{bad}:2: [{section}] {key}: " in capsys.readouterr().err

    def test_malformed_override_names_override_key(self):
        with pytest.raises(ConfigError, match=r"^override lambda: "):
            build_config(None, {"lambda": "many"})

    def test_empty_file_value_names_file_section_and_key(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.ini", "[workload]\ntrace =\n")
        assert main(["run", "--config", bad, "--out", str(tmp_path / "o")]) == 2
        assert f"error: {bad}:2: [workload] trace: empty value" in capsys.readouterr().err

    def test_empty_override_names_override_key(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--events", "100", "--out", ""]) == 2
        assert "error: override out: empty value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

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

    @pytest.mark.parametrize("section,key,value,message", [
        ("cache", "size_bytes", "3000", "positive power of two"),
        ("workload", "write_fraction", "2", "write_fraction must lie in [0, 1]"),
        ("policy", "beta", "-1", "beta must be >= 0"),
        ("policy", "beta", "nan", "[policy] beta must be >= 0\n"),
        ("workload", "zipf_s", "nan", "[workload] zipf_s must be >= 0\n"),
        ("workload", "zipf_s", "400", "[workload] zipf_s is too large for 256 pages: "
                                      "their zipf weights overflow\n"),
        ("cache", "size_bytes", "3000",
         "[cache] size_bytes must be a positive power of two, got 3000\n"),
        ("workload", "events", "-5", "[workload] events must be >= 0\n"),
        ("policy", "lambda", "0",
         "[policy] lambda must lie in [1, 32] for 64 colors, got 0\n"),
        ("cache", "read_hit_cycles", "-1",
         "[cache] read_hit_cycles must be non-negative\n"),
    ])
    def test_out_of_range_value_names_file(self, tmp_path, capsys, section, key,
                                           value, message):
        bad = write_config(tmp_path / "bad.ini", f"[{section}]\n{key} = {value}\n")
        assert main(["run", "--config", bad, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}:2: ") and message in err
        assert not (tmp_path / "o").exists()

    def test_file_value_error_names_its_line(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.ini", "# a comment\n[cache]\nsize_bytes = 4M\n"
                                                 "\n[policy]\nbeta = -1\n")
        assert main(["run", "--config", bad, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {bad}:6: [policy] beta must be >= 0\n"

    @pytest.mark.parametrize("flag,value,message", [
        ("--beta", "-1", "error: override beta must be >= 0"),
        ("--beta", "nan", "error: override beta must be >= 0\n"),
        ("--zipf-s", "nan", "error: override zipf_s must be >= 0\n"),
        ("--zipf-s", "600", "error: override zipf_s is too large for 4 pages"),
        ("--events", "-5", "error: override events must be >= 0"),
        ("--lambda", "99", "error: override lambda must lie in [1, 2] for 4 colors"),
    ])
    def test_out_of_range_flag_names_the_flag_not_the_file(self, tmp_path, capsys,
                                                           flag, value, message):
        cfg = small_config(tmp_path)
        assert main(["run", "--config", cfg, flag, value,
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(message)
        assert cfg not in err
        assert not (tmp_path / "o").exists()

    def test_policy_parameters_checked_when_the_config_is_built(self):
        with pytest.raises(ConfigError, match="^override k must be >= 1"):
            build_config(None, {"k": 0})
        assert build_config(None, {"policy": "static", "k": 0}).k_writes == 0

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

    def test_malformed_flag_value_names_the_override_key(self, tmp_path, capsys):
        assert main(["run", "--k", "abc", "--events", "10",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith("error: override k: ")
        assert not (tmp_path / "o").exists()

    def test_out_of_range_flag_value_names_the_override_key(self, tmp_path, capsys):
        assert main(["run", "--min-gap-cycles", "-1", "--events", "10",
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == "error: override min_gap_cycles must be >= 0\n"
        assert not (tmp_path / "o").exists()

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

    def test_ignored_swap_limit_mode_is_still_checked(self, tmp_path, capsys):
        out = str(tmp_path / "o")
        assert main(["run", "--policy", "static", "--swap-limit-mode", "bogus",
                     "--events", "10", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            "error: override swap_limit_mode: 'bogus' is not one of min|max")
        cfg = write_config(tmp_path / "s.ini",
                           "[policy]\nkind = static\nswap_limit_mode = bogus\n")
        assert main(["run", "--config", cfg, "--events", "10", "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}:3: [policy] swap_limit_mode: 'bogus' is not one of")
        assert not (tmp_path / "o").exists()

    def test_ignored_workload_kind_is_still_checked(self, tmp_path, capsys):
        trace = tmp_path / "t.trace"
        trace.write_text("W 0x40 5\n")
        out = str(tmp_path / "o")
        assert main(["run", "--trace", str(trace), "--kind", "bogus",
                     "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            "error: override workload_kind: 'bogus' is not one of ")
        cfg = write_config(tmp_path / "w.ini",
                           f"[workload]\nkind = bogus\ntrace = {trace}\n")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}:2: [workload] kind: 'bogus' is not one of ")
        assert not (tmp_path / "o").exists()
        assert main(["run", "--kind", "trace", "--trace", str(trace),
                     "--out", out]) == 0
        assert read_csv(tmp_path / "o" / "report.csv")[1][2] == "trace:t.trace"

    def test_address_space_error_names_the_pages_setting(self, tmp_path, capsys):
        reason = "pages * page_size_bytes exceeds the 2^48 address space\n"
        out = str(tmp_path / "o")
        assert main(["run", "--pages", str(2 ** 37), "--out", out]) == 2
        assert capsys.readouterr().err == f"error: override {reason}"
        cfg = write_config(tmp_path / "exp.ini", f"[workload]\npages = {2 ** 37}\n")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:2: [workload] {reason}"
        assert main(["run", "--pages", str(2 ** 36), "--events", "10", "--out", out]) == 0

    def test_zipf_page_bound_names_the_pages_setting(self, tmp_path, capsys):
        # refused while the config is built, before any page table
        reason = "pages must be <= 2^24 for zipf (64 B per page)\n"
        out = str(tmp_path / "o")
        assert main(["run", "--kind", "zipf", "--pages", str(2 ** 24 + 1),
                     "--out", out]) == 2
        assert capsys.readouterr().err == f"error: override {reason}"
        cfg = write_config(tmp_path / "exp.ini",
                           f"[workload]\nkind = zipf\npages = {2 ** 24 + 1}\n")
        assert main(["run", "--config", cfg, "--out", out]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:3: [workload] {reason}"

    def test_trace_kind_without_a_trace_names_the_override_key(self, capsys):
        assert main(["run", "--kind", "trace"]) == 2
        assert capsys.readouterr().err == (
            "error: override workload_kind 'trace' requires a trace path\n")

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

    @pytest.mark.parametrize("rest", ["", "[workload]\nkind = zipf\n",
                                      "[policy]\nkind = static\n"])
    def test_default_section_is_unknown(self, tmp_path, capsys, rest):
        cfg = write_config(tmp_path / "d.ini", "[DEFAULT]\nevents = 5\n" + rest)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:1: unknown section [DEFAULT]\n"
        assert not (tmp_path / "o").exists()


class TestIniGrammar:
    def test_an_indented_line_is_an_ordinary_line(self, tmp_path, capsys):
        # not a continuation of dir, which would name the directory "out\npages = 8"
        cfg = write_config(tmp_path / "e.ini", "[workload]\nevents = 10\n"
                                               "[output]\ndir = out\n  pages = 8\n")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:5: unknown key 'pages' in [output]\n")
        assert list(tmp_path.iterdir()) == [tmp_path / "e.ini"]

    @pytest.mark.parametrize("text, message", [
        ("[workload]\nevents: 10\n", "2: expected [section] or key = value, got 'events: 10'"),
        ("events = 10\n[workload]\n", "1: key 'events' before any section"),
        ("[workload]\nevents = 10\n# two\nevents = 20\n",
         "4: repeated key 'events' in [workload]"),
        ("[workload]\n[policy]\n\n[workload]\n", "4: repeated section [workload]"),
        ("[cache]\nSize_Bytes = 2M\n", "2: unknown key 'Size_Bytes' in [cache]"),
        ("[Policy]\nkind = static\n", "1: unknown section [Policy]"),
        ("[workload]\n= 10\n", "2: expected [section] or key = value, got '= 10'"),
        ("[workload]\nevents\n", "2: expected [section] or key = value, got 'events'"),
    ])
    def test_refusals_name_the_file_and_line(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path / "g.ini", text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
        assert not (tmp_path / "o").exists()

    def test_comments_values_and_line_ends(self, tmp_path):
        # a comment starts at a line's start or after a blank; "=" after the
        # first is part of the value, and a CRLF line end is stripped
        cfg = write_config(tmp_path / "c.ini",
                           "; a comment\r\n  [workload]  # here too\r\n"
                           "events=10 ;\n\t# indented\n[output]\ndir = a#b;c=d\n")
        built = build_config(cfg)
        assert (built.workload.num_events, built.out_dir) == (10, "a#b;c=d")


class TestIniEncoding:
    # past the first 8 KiB, so a line counted within one decoder chunk would differ
    PADDING = "# padding\n" * 1000

    def _latin1_config(self, tmp_path, name):
        path = tmp_path / name
        path.write_bytes((SMALL_CACHE + self.PADDING + "# café\n").encode("latin-1"))
        return str(path), SMALL_CACHE.count("\n") + 1001

    def test_run_names_the_file_line_and_byte(self, tmp_path, capsys):
        cfg, line = self._latin1_config(tmp_path, "latin.ini")
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"error: {cfg}:{line}: not UTF-8: byte 0xe9\n"
        assert not (tmp_path / "o").exists()

    def test_compare_names_the_bad_technique_file(self, tmp_path, capsys):
        base = small_config(tmp_path, "base.ini", policy="static")
        tech, line = self._latin1_config(tmp_path, "tech.ini")
        assert main(["compare", base, tech, "--out", str(tmp_path / "cmp")]) == 2
        assert capsys.readouterr().err == f"error: {tech}:{line}: not UTF-8: byte 0xe9\n"

    def test_leading_byte_order_mark_is_accepted(self, tmp_path):
        plain = small_config(tmp_path, "plain.ini")
        bom = tmp_path / "bom.ini"
        bom.write_bytes(b"\xef\xbb\xbf" + Path(plain).read_bytes())
        for cfg, out in ((plain, "a"), (str(bom), "b")):
            assert main(["run", "--config", cfg, "--out", str(tmp_path / out)]) == 0
        assert ((tmp_path / "a" / "report.csv").read_bytes()
                == (tmp_path / "b" / "report.csv").read_bytes())


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


    def test_trace_workload_names_the_file_and_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "t.ini", "[workload]\ntrace = some.trace\n")
        out = tmp_path / "out.trace"
        assert main(["gen-trace", str(out), "--config", cfg]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: [workload] trace is set, but gen-trace needs a generator "
            "workload\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", ["[policy]\nlambda = 99\n",
                                      "[cache]\nsize_bytes = 64K\n"])  # one color
    def test_policy_settings_are_not_range_checked(self, tmp_path, text):
        plain, out = tmp_path / "plain.trace", tmp_path / "out.trace"
        assert main(["gen-trace", str(plain), "--events", "300"]) == 0
        cfg = write_config(tmp_path / "p.ini", text)
        assert main(["gen-trace", str(out), "--config", cfg, "--events", "300"]) == 0
        assert out.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("text, message", [
        ("[policy]\nlambda = abc\n", "[policy] lambda: invalid literal"),
        ("[policy]\nkind = bogus\n", "[policy] kind: 'bogus' is not one of swl|static|xor"),
    ])
    def test_policy_settings_are_still_parsed(self, tmp_path, capsys, text, message):
        cfg = write_config(tmp_path / "p.ini", text)
        out = tmp_path / "out.trace"
        assert main(["gen-trace", str(out), "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:2: {message}")
        assert not out.exists()


class TestConfigparserOnDemand:
    def test_loaded_only_to_read_an_ini_file(self, tmp_path):
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

    def test_missing_trace_fails_nonzero(self, tmp_path, capsys):
        cfg = small_config(tmp_path)
        assert main(["run", "--config", cfg, "--trace",
                     str(tmp_path / "nope.trace")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_fails_nonzero(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.ini",
                           "[cache]\nsize_bytes = 3000\n")
        assert main(["run", "--config", bad]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_numeric_config_value_fails_nonzero(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.ini",
                           "[workload]\nevents = plenty\n")
        assert main(["run", "--config", bad]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_fails_nonzero(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_trace_fails_nonzero(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_text("R 0x0 0\nX 0x40 5\n")
        cfg = small_config(tmp_path)
        assert main(["run", "--config", cfg, "--trace", str(trace),
                     "--out", str(tmp_path / "o")]) == 2
        assert "unknown kind" in capsys.readouterr().err

    def test_non_ascii_trace_fails_with_line(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_bytes(b"R 0x0 0\nR 0x40 5\nW 0x\xe980 9\n")
        cfg = small_config(tmp_path)
        assert main(["run", "--config", cfg, "--trace", str(trace),
                     "--out", str(tmp_path / "o")]) == 2
        assert "bad.trace:3: non-ASCII byte 0xe9" in capsys.readouterr().err

    def test_digit_separator_in_trace_fails_with_line(self, tmp_path, capsys):
        trace = tmp_path / "bad.trace"
        trace.write_text("R 0x0 0\nW 0x1_0 1_0\n")
        cfg = small_config(tmp_path)
        assert main(["run", "--config", cfg, "--trace", str(trace),
                     "--out", str(tmp_path / "o")]) == 2
        assert "bad.trace:2: '_' and signs are not allowed" in capsys.readouterr().err

    @pytest.mark.parametrize("size,lam", [("128K", 1), ("4M", 16)])
    def test_summary_shows_default_lambda(self, tmp_path, size, lam):
        cfg = write_config(tmp_path / "c.ini", f"[cache]\nsize_bytes = {size}\n")
        out = tmp_path / "o"
        assert main(["run", "--config", cfg, "--events", "200",
                     "--out", str(out)]) == 0
        assert f"lambda={lam}," in (out / "summary.md").read_text()

    def test_repeat_runs_identical_csv(self, tmp_path):
        cfg = small_config(tmp_path)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["run", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("report.csv", "decisions.csv", "mapping_audit.csv",
                     "plot.csv", "summary.md"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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

    def test_mismatched_seeds_refused(self, tmp_path, capsys):
        base = small_config(tmp_path, "b.ini", policy="static")
        tech_text = small_config(
            tmp_path, "t.ini", policy="static",
            workload="kind = hotset\nevents = 20000\nwrite_fraction = 1.0\n"
                     "hotset_fraction = 0.25\npages = 4\nseed = 6\n")
        assert main(["compare", base, tech_text, "--out",
                     str(tmp_path / "cmp")]) == 2
        assert "workloads differ" in capsys.readouterr().err

    def test_mismatched_cache_refused(self, tmp_path, capsys):
        base = small_config(tmp_path, "b.ini")
        narrower = (tmp_path / "b.ini").read_text().replace(
            "associativity = 2", "associativity = 1")
        other = write_config(tmp_path / "t.ini", narrower)
        assert main(["compare", base, other, "--out",
                     str(tmp_path / "cmp")]) == 2
        assert "cache configurations differ" in capsys.readouterr().err


    def test_mismatched_count_fills_refused(self, tmp_path, capsys):
        base = small_config(tmp_path, "b.ini", policy="static")
        tech = small_config(tmp_path, "t.ini", policy="static",
                            extra_policy="count_fills = off\n")
        out = tmp_path / "cmp"
        assert main(["compare", base, tech, "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("error: compare: count_fills differs, write "
                                           "counts would not be comparable\n")
        assert not out.exists()

    def test_differing_output_dirs_refused_without_out(self, tmp_path, capsys,
                                                       monkeypatch):
        monkeypatch.chdir(tmp_path)
        base = small_config(tmp_path, "b.ini", policy="static")
        tech = small_config(tmp_path, "t.ini")
        for path, out in ((base, "o_base"), (tech, "o_tech")):
            with open(path, "a") as fh:
                fh.write(f"\n[output]\ndir = {out}\n")
        assert main(["compare", base, tech]) == 2
        err = capsys.readouterr().err
        assert base in err and tech in err and "--out" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["b.ini", "t.ini"]
        assert main(["compare", base, tech, "--out", "both"]) == 0
        assert (tmp_path / "both" / "report.csv").exists()


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
        import dataclasses

        from nvwear import CacheConfig, ExperimentConfig, GeneratorSpec
        from nvwear.experiment import compare_experiments

        cache = CacheConfig(cache_size_bytes=2048, associativity=2,
                            block_size_bytes=64, page_size_bytes=256)
        wl = GeneratorSpec(kind="uniform", num_events=0, page_count=4,
                           page_size_bytes=256, block_size_bytes=64)
        base = ExperimentConfig(cache=cache, policy_kind="static",
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

    def test_single_color_cache_refuses_wear_policies(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "one.ini",
                           "[cache]\nsize_bytes = 512\nassociativity = 2\n"
                           "block_bytes = 64\npage_bytes = 256\n"
                           "[workload]\nevents = 100\npages = 4\n")
        assert main(["run", "--config", cfg, "--policy", "static",
                     "--out", str(tmp_path / "o")]) == 0
        assert main(["run", "--config", cfg, "--policy", "swl",
                     "--out", str(tmp_path / "o2")]) == 2
        assert "at least 2 colors" in capsys.readouterr().err


class TestWriteAtomic:
    def test_failed_write_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("old\n")
        with pytest.raises(UnicodeEncodeError):
            write_atomic(path, "a\ud800")  # a lone surrogate has no UTF-8 form
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
        # kernel has written that file out, so the old report goes first
        targets = []

        def check_target(rename):
            def wrapped(src, dst, *args, **kwargs):
                targets.append((dst, os.path.exists(dst)))
                return rename(src, dst, *args, **kwargs)
            return wrapped

        monkeypatch.setattr(os, "replace", check_target(os.replace))
        monkeypatch.setattr(os, "rename", check_target(os.rename))
        path = tmp_path / "r.csv"
        write_atomic(path, "old\n")
        write_atomic(path, "new\n")
        assert [p.name for p in tmp_path.iterdir()] == ["r.csv"]
        assert path.read_text() == "new\n"
        assert targets == [(path, False), (path, False)]


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest", "--cases", "10", "--ops", "200",
                     "--seed", "1"]) == 0
        assert "selftest passed" in capsys.readouterr().out

    @pytest.mark.parametrize("flag,value", [("--cases", "-1"), ("--cases", "0"),
                                            ("--ops", "0")])
    def test_compares_at_least_one_op_of_one_case(self, capsys, flag, value):
        assert main(["selftest", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: selftest {flag} must be >= 1, got {value}\n"
        assert captured.out == ""

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
