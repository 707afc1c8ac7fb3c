"""Tests of the benchmark itself: python -m pytest perfbench -q"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
from checks import Checks, check_comparison  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


TINY = 12_000   # accesses per compare in the tests' runs


def _result(capsys, monkeypatch, tmp_path, workload, trace):
    monkeypatch.setattr(bench, "EVENTS", TINY)
    monkeypatch.setattr(bench, "WORK", tmp_path / "work")
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace)]
    assert bench.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_names_and_units_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == bench.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == bench.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(bench.WORKLOADS))
def test_tiny_run_emits_every_metric(capsys, monkeypatch, tmp_path, workload, trace):
    result = _result(capsys, monkeypatch, tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_traced_run_sees_remaps(capsys, monkeypatch, tmp_path):
    m = _result(capsys, monkeypatch, tmp_path, "hotset-remap", 1)["metrics"]
    assert m["policy.intervals"]["value"] >= 1
    assert m["cache.flush_color.calls"]["value"] > 0
    assert m["cache.access.calls"]["value"] == 2 * TINY
    assert 0 < m["engine.self_s"]["value"] < m["engine.run.s"]["value"]


def test_corrupted_stats_fail_checks(tmp_path):
    work = tmp_path / "work"
    plan = bench.Plan(bench.WORKLOADS["hotset-remap"], 3, TINY, str(work / "out"))
    comparison = bench.compare_once(plan)
    checks = Checks()
    check_comparison(checks, comparison, plan.events, plan.out_dir)
    kinds = checks.attempted
    assert kinds > 0 and checks.failed == 0
    comparison.baseline.stats.reads += 1
    check_comparison(checks, comparison, plan.events, plan.out_dir)
    check_comparison(checks, comparison, plan.events, plan.out_dir)
    # counts are per check kind: more compares add no attempts, and a kind
    # that fails in any compare fails once
    assert checks.attempted == kinds
    assert checks.failed == 1 and len(checks.failures) == 2


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "zipf-miss", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
