"""The benchmark's traced run (perfbench/tracer.py) wraps nvwear entry points
by name and reads the objects they return. This runs a short experiment under
that instrumentation, so a change to the package that breaks the traced
benchmark fails here too."""

import importlib.util
from pathlib import Path

import pytest

import dataclasses

from nvwear import (ExperimentConfig, GeneratorSpec, compare_experiments,
                    generate, run_experiment, write_trace)
from nvwear import cache, coloring, engine, experiment, policy

from helpers import small_cfg

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
EVENTS = 3000


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("kind", ["swl", "xor"])
def test_traced_run_tallies_accesses_and_restores_originals(kind):
    tracer = _tracer()
    owners = (engine, engine.Simulator, cache.CacheState, coloring.MappingTable,
              experiment, policy.StaticPolicy, policy.SwapWearPolicy,
              policy.XorRemapPolicy)
    before = [dict(vars(owner)) for owner in owners]
    cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
    workload = GeneratorSpec(kind="hotset", num_events=EVENTS, write_fraction=1.0,
                             page_count=16, seed=3,
                             page_size_bytes=cfg.page_size_bytes,
                             block_size_bytes=cfg.block_size_bytes)
    rec = tracer.Recorder()
    with tracer.instrumented(rec):
        run_experiment(ExperimentConfig(cache=cfg, policy_kind=kind,
                                        workload=workload, k_writes=200,
                                        min_gap_cycles=0, out_dir="unused"))
    assert rec.tallies["cache.access"].calls == EVENTS
    assert rec.tallies["cache.decompose"].calls == 0
    assert rec.tallies["policy.plan"].calls >= 1
    assert [dict(vars(owner)) for owner in owners] == before


def test_traced_compare_produces_the_stream_once_and_runs_in_chunks():
    tracer = _tracer()
    cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
    workload = GeneratorSpec(kind="hotset", num_events=EVENTS, write_fraction=1.0,
                             page_count=16, seed=3,
                             page_size_bytes=cfg.page_size_bytes,
                             block_size_bytes=cfg.block_size_bytes)
    base = ExperimentConfig(cache=cfg, policy_kind="static", workload=workload,
                            out_dir="unused")
    tech = dataclasses.replace(base, policy_kind="swl", k_writes=200, min_gap_cycles=0)
    rec = tracer.Recorder()
    with tracer.instrumented(rec):
        compare_experiments(base, tech)
    assert rec.tallies["cache.access"].calls == 2 * EVENTS
    assert rec.tallies["cache.decompose"].calls == 0
    assert rec.tallies["workload.generate"].calls == EVENTS
    assert sum(sp["name"] == "engine.run" for sp in rec.spans) > 1


def test_traced_trace_compare_tallies_read_trace_once_per_event(tmp_path):
    # the batch parser must still hand events out one at a time, so the
    # tracer's per-event seam around read_trace sees every one
    tracer = _tracer()
    cfg = small_cfg(colors=4, sets_per_color=4, assoc=2)
    path = tmp_path / "t.trace"
    write_trace(path, generate(GeneratorSpec(
        kind="uniform", num_events=EVENTS, page_count=16, seed=5,
        page_size_bytes=cfg.page_size_bytes, block_size_bytes=cfg.block_size_bytes)))
    base = ExperimentConfig(cache=cfg, policy_kind="static", trace_path=str(path),
                            out_dir="unused")
    tech = dataclasses.replace(base, policy_kind="xor", k_writes=200, min_gap_cycles=0)
    rec = tracer.Recorder()
    with tracer.instrumented(rec):
        compare_experiments(base, tech)
    assert rec.tallies["workload.read_trace"].calls == EVENTS
    assert rec.tallies["workload.generate"].calls == 0
    assert rec.tallies["cache.access"].calls == 2 * EVENTS
