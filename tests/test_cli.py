import argparse
import csv
import dataclasses
import re
from pathlib import Path

import pytest

from nvwear import ConfigError, build_config, read_trace
from nvwear.cli import _build_parser, main
from nvwear.experiment import _SETTINGS, parse_bool, parse_size

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
        assert f"{bad}: [{section}] {key}: " in capsys.readouterr().err

    def test_malformed_override_names_override_key(self):
        with pytest.raises(ConfigError, match=r"^override lambda: "):
            build_config(None, {"lambda": "many"})

    def test_empty_file_value_names_file_section_and_key(self, tmp_path, capsys):
        bad = write_config(tmp_path / "bad.ini", "[workload]\ntrace =\n")
        assert main(["run", "--config", bad, "--out", str(tmp_path / "o")]) == 2
        assert f"error: {bad}: [workload] trace: empty value" in capsys.readouterr().err

    def test_empty_override_names_override_key(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--events", "100", "--out", ""]) == 2
        assert "error: override out: empty value" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_unknown_override_key_rejected(self):
        with pytest.raises(ConfigError, match="lamda"):
            build_config(None, {"lamda": 2})

    @pytest.mark.parametrize("section,key,value,message", [
        ("cache", "size_bytes", "3000", "positive power of two"),
        ("workload", "write_fraction", "2", "write_fraction must lie in [0, 1]"),
        ("policy", "beta", "-1", "beta must be >= 0"),
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
        assert err.startswith(f"error: {bad}: ") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,value,message", [
        ("--beta", "-1", "error: override beta must be >= 0"),
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


class TestReadmeConfig:
    def _block(self):
        return re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)

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
                     "plot.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        # the timestamp is confined to the single "generated:" line
        differing = [
            (a, b)
            for a, b in zip((out1 / "summary.md").read_text().splitlines(),
                            (out2 / "summary.md").read_text().splitlines())
            if a != b]
        assert all(a.startswith("generated:") for a, _ in differing)


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


class TestSelftest:
    def test_passes(self, capsys):
        assert main(["selftest", "--cases", "10", "--ops", "200",
                     "--seed", "1"]) == 0
        assert "selftest passed" in capsys.readouterr().out
