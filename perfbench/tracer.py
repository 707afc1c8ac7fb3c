"""Span recorder and per-module instrumentation for the traced run.

Spans are recorded from the benchmark's side of the API: ``instrumented``
swaps timing wrappers in for the entry points of nvwear's modules and puts
the originals back on exit, so the package itself is never edited. Each span
has a name, start, end and parent, and the spans of one compare share its
id. Calls made about once per simulated event (next event, address
decomposition, cache access, policy note_write/poll) would cost one record
each, millions per run, so they are tallied instead (calls and seconds) and
each engine.run span carries the tally deltas of the calls made inside it.
"""

import json
from contextlib import contextmanager
from statistics import median, median_low
from time import perf_counter


class Tally:
    """Calls and seconds of one per-event entry point; ``hits``/``dirty``
    count cache-access outcomes and ``ran`` policy decisions that remapped."""

    __slots__ = ("calls", "s", "hits", "dirty", "ran")

    def __init__(self):
        self.calls = self.hits = self.dirty = self.ran = 0
        self.s = 0.0

    def values(self):
        return [self.calls, self.s, self.hits, self.dirty, self.ran]


# per-event calls made directly by the engine loop; policy.plan is the part
# of policy.poll that returned a decision, so it is not a separate child
ENGINE_CHILDREN = ("workload.generate", "workload.read_trace", "cache.decompose",
                   "cache.access", "policy.note_write", "policy.poll")
TALLIES = ENGINE_CHILDREN + ("policy.plan",)


class Recorder:
    def __init__(self):
        self.spans = []
        self.tallies = {name: Tally() for name in TALLIES}
        self.compare = None
        self._open = []

    @contextmanager
    def span(self, name):
        record = {"compare": self.compare, "id": len(self.spans),
                  "parent": self._open[-1]["id"] if self._open else None,
                  "name": name, "start": 0.0, "end": 0.0}
        self.spans.append(record)
        self._open.append(record)
        record["start"] = perf_counter()
        try:
            yield record
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def tally_values(self):
        return {name: t.values() for name, t in self.tallies.items()}

    def spans_of(self, compare):
        return [sp for sp in self.spans if sp["compare"] == compare]

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")


def timed_events(events, tally):
    """Pass events through, charging the time spent producing each to tally."""
    nxt = iter(events).__next__
    while True:
        t0 = perf_counter()
        try:
            ev = nxt()
        except StopIteration:
            tally.s += perf_counter() - t0
            return
        tally.s += perf_counter() - t0
        tally.calls += 1
        yield ev


def _tallied(fn, tally):
    def wrapper(*args):
        t0 = perf_counter()
        result = fn(*args)
        tally.s += perf_counter() - t0
        tally.calls += 1
        return result
    return wrapper


def _spanned(rec, name, fn, attr=None):
    def wrapper(*args, **kwargs):
        with rec.span(name) as record:
            result = fn(*args, **kwargs)
            if attr:
                record[attr] = result
            return result
    return wrapper


@contextmanager
def instrumented(rec):
    """Install timing wrappers on nvwear's module entry points for the
    duration of the block."""
    from nvwear import cache, coloring, engine, experiment, policy

    t = rec.tallies

    def access(fn):
        tally = t["cache.access"]

        def wrapper(self, set_index, tag, is_write):
            t0 = perf_counter()
            out = fn(self, set_index, tag, is_write)
            tally.s += perf_counter() - t0
            tally.calls += 1
            tally.hits += out.hit
            tally.dirty += out.evicted_dirty
            return out
        return wrapper

    def poll(fn):
        polls, plans = t["policy.poll"], t["policy.plan"]

        def wrapper(self, now_cycle):
            t0 = perf_counter()
            decision = fn(self, now_cycle)
            dt = perf_counter() - t0
            polls.s += dt
            polls.calls += 1
            if decision is not None:
                plans.s += dt
                plans.calls += 1
                plans.ran += decision.ran
            return decision
        return wrapper

    def run(fn):
        def wrapper(self, events):
            before = rec.tally_values()
            with rec.span("engine.run") as record:
                result = fn(self, events)
            after = rec.tally_values()
            record["tallies"] = {name: [a - b for a, b in zip(after[name], before[name])]
                                 for name in after}
            return result
        return wrapper

    def events_from(fn, name):
        return lambda *args: timed_events(fn(*args), t[name])

    wrap = [
        (engine, "decompose_address", lambda fn: _tallied(fn, t["cache.decompose"])),
        (engine, "block_write_sd", lambda fn: _spanned(rec, "metrics.block_write_sd", fn)),
        (engine.Simulator, "run", run),
        (cache.CacheState, "access", access),
        (cache.CacheState, "flush_color",
         lambda fn: _spanned(rec, "cache.flush_color", fn)),
        (cache.CacheState, "max_block_writes",
         lambda fn: _spanned(rec, "metrics.max_block_writes", fn)),
        (coloring.MappingTable, "apply_remap",
         lambda fn: _spanned(rec, "coloring.apply_remap", fn, attr="writebacks")),
        (experiment, "run_experiment",
         lambda fn: _spanned(rec, "experiment.run_experiment", fn)),
        (experiment, "generate", lambda fn: events_from(fn, "workload.generate")),
        (experiment, "read_trace", lambda fn: events_from(fn, "workload.read_trace")),
        (experiment, "energy_joules", lambda fn: _spanned(rec, "metrics.energy_joules", fn)),
        (experiment, "mpki", lambda fn: _spanned(rec, "metrics.mpki", fn)),
        (experiment, "relative_lifetime",
         lambda fn: _spanned(rec, "metrics.relative_lifetime", fn)),
    ]
    for cls in (policy.StaticPolicy, policy.SwapWearPolicy, policy.XorRemapPolicy):
        wrap.append((cls, "note_write", lambda fn: _tallied(fn, t["policy.note_write"])))
        wrap.append((cls, "poll", poll))

    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in wrap]
    try:
        for (owner, name, make), (_, _, original) in zip(wrap, saved):
            setattr(owner, name, make(original))
        yield rec
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)


def _duration(record):
    return record["end"] - record["start"]


def compare_layers(spans):
    """Per-layer values of one traced compare, summed over its two runs."""
    child_s = {}
    for sp in spans:
        if sp["parent"] is not None:
            child_s[sp["parent"]] = child_s.get(sp["parent"], 0.0) + _duration(sp)
    m = dict.fromkeys(("engine.run.s", "engine.self_s", "coloring.apply_remap.s",
                       "metrics.summarize.s", "experiment.build_config.s",
                       "experiment.write_report.s"), 0.0)
    m.update(dict.fromkeys(("coloring.apply_remap.calls", "coloring.flush_writebacks",
                            "cache.flush_color.calls"), 0))
    tallies = {name: [0, 0.0, 0, 0, 0] for name in TALLIES}
    for sp in spans:
        name, d = sp["name"], _duration(sp)
        if name == "engine.run":
            for tally, values in sp["tallies"].items():
                tallies[tally] = [a + b for a, b in zip(tallies[tally], values)]
            m["engine.run.s"] += d
            m["engine.self_s"] += (d - child_s.get(sp["id"], 0.0)
                                   - sum(sp["tallies"][c][1] for c in ENGINE_CHILDREN))
        elif name == "coloring.apply_remap":
            m["coloring.apply_remap.calls"] += 1
            m["coloring.apply_remap.s"] += d
            m["coloring.flush_writebacks"] += sp["writebacks"]
        elif name == "cache.flush_color":
            m["cache.flush_color.calls"] += 1
        elif name.startswith("metrics."):
            m["metrics.summarize.s"] += d
        elif name in ("experiment.build_config", "experiment.write_report"):
            m[name + ".s"] += d
    access = tallies["cache.access"]
    plan = tallies["policy.plan"]
    m.update({
        "cache.decompose.calls": tallies["cache.decompose"][0],
        "cache.decompose.s": tallies["cache.decompose"][1],
        "cache.access.calls": access[0],
        "cache.access.s": access[1],
        "cache.access.hit_ratio": access[2] / access[0] if access[0] else 0.0,
        "cache.access.dirty_evictions": access[3],
        "policy.note_write.calls": tallies["policy.note_write"][0],
        "policy.note_write.s": tallies["policy.note_write"][1],
        "policy.poll.s": tallies["policy.poll"][1],
        "policy.intervals": plan[0],
        "policy.gate_pass_ratio": plan[4] / plan[0] if plan[0] else 0.0,
        "policy.plan.s": plan[1],
    })
    return m


def layer_metrics(rec, compares):
    """Median over the traced compares of each per-compare layer value, plus
    the workload layer's event rates over everything traced."""
    per_compare = [compare_layers(rec.spans_of(c)) for c in compares]
    m = {}
    for name in per_compare[0]:
        values = [v[name] for v in per_compare]
        # counts repeat exactly across compares; keep them whole numbers
        m[name] = median_low(values) if isinstance(values[0], int) else median(values)
    t = rec.tallies
    for name in ("workload.generate", "workload.read_trace"):
        m[name + ".events_per_s"] = t[name].calls / t[name].s if t[name].s else 0.0
    written = sum(sp["events"] for sp in rec.spans if sp["name"] == "workload.write_trace")
    write_s = sum(_duration(sp) - sp["generate_s"] for sp in rec.spans
                  if sp["name"] == "workload.write_trace")
    m["workload.write_trace.events_per_s"] = written / write_s if write_s else 0.0
    return m
