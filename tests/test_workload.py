import hashlib
import math
import os
import random
import re
from collections import Counter
from itertools import accumulate, count, cycle, islice

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nvwear import (CacheConfig, ConfigError, ExperimentConfig, GeneratorSpec, TraceEvent,
                    TraceFormatError, experiment, generate, read_trace, write_trace,
                    workload)
from nvwear.cli import main
from nvwear.workload import GENERATOR_KINDS, MAX_ADDRESS

from helpers import small_cfg
from oracles import read_trace_per_line
# refusal tests folded into test_refusals.py keep their names, as folded(<its rows>)
from test_refusals import folded


# hypothesis runs every example of a test in one tmp_path, and rewriting a
# file written a moment earlier can wait for its old data to reach the disk;
# so each example writes files under names no earlier example used
_NAMES = count()


def _fresh_path(tmp_path):
    return tmp_path / f"t{next(_NAMES)}.trace"


class TestReadTrace:
    def _read(self, tmp_path, text):
        path = tmp_path / "t.trace"
        path.write_text(text)
        return list(read_trace(path))

    def test_basic_lines(self, tmp_path):
        events = self._read(tmp_path, "W 0x1f40 100\nR 0x0 100\n")
        assert events[0] == TraceEvent(True, 0x1F40, 100)
        assert events[1] == TraceEvent(False, 0, 100)

    def test_comments_and_blank_lines(self, tmp_path):
        events = self._read(tmp_path, "# header\n\nR 0x40 5\n")
        assert events == [TraceEvent(False, 0x40, 5)]

    test_unknown_kind = folded("trace-unknown-kind")
    test_error_carries_line_number = folded("trace-error-names-its-line")
    test_requires_hex_prefix = folded("trace-no-hex-prefix")
    test_rejects_wrong_field_count = folded("trace-two-fields", "trace-four-fields")
    test_rejects_address_above_48_bits = folded("trace-address-above-2^48")
    test_rejects_decreasing_icount = folded("trace-icount-decreases")
    test_rejects_bad_icount = folded("trace-icount-word")
    test_rejects_separators_and_signs = folded(**{
        "W 0x1_0 10": "trace-address-1_0", "W 0x_10 10": "trace-address-0x_10",
        "W 0x10 1_0": "trace-icount-1_0", "R 0x20 +20": "trace-icount-plus",
        "R 0x20 -0": "trace-icount-minus-0"})
    test_earlier_errors_keep_their_messages = folded(**{
        "R 0x10 -5-negative instruction count": "trace-negative-icount",
        "R 0x-10 5-bad hex address": "trace-negative-address",
        "R 0x1_0 zz-bad instruction count": "trace-separator-and-icount-word",
        "R 0x1_0 1_0-decreased": "trace-separators-and-decrease"})
    test_non_ascii_byte_names_its_line = folded(event="trace-non-ascii-event",
                                                comment="trace-non-ascii-comment")


def _parse(reader, path):
    """(events yielded, error text or None) of one read."""
    events = []
    try:
        for ev in reader(path):
            events.append(ev)
    except TraceFormatError as exc:
        return events, str(exc)
    return events, None


def _canonical_lines(rng, n, icount):
    """n lines as write_trace writes them (some uppercase hex); returns them
    and the last icount."""
    lines = []
    for _ in range(n):
        icount += rng.randrange(4)
        addr = rng.randrange(MAX_ADDRESS + 1) if rng.random() < 0.1 else rng.randrange(1 << 16)
        hex_text = f"{addr:X}" if rng.random() < 0.05 else f"{addr:x}"
        lines.append(f"{rng.choice('RW')} 0x{hex_text} {icount}\n".encode())
    return lines, icount


# one line each, formatted with the running icount; "decrease" goes below it
_ODD_LINES = {
    "comment": "# note {ic}\n", "blank": "\n", "spaces": "   \n",
    "tabs": "W\t0x40\t{ic}\n", "crlf": "R 0x80 {ic}\r\n", "padded": "  R 0xc0  {ic} \n",
    "upper": "W 0xABCDEF {ic}\n", "max": f"R 0x{MAX_ADDRESS:x} {{ic}}\n",
    "above": f"R 0x{MAX_ADDRESS + 1:x} {{ic}}\n", "bad_kind": "X 0x0 {ic}\n",
    "no_prefix": "R 40 {ic}\n", "separator": "R 0x1_0 {ic}\n", "sign": "R 0x10 +{ic}\n",
    "fields": "R 0x10\n", "decrease": "W 0x40 {low}\n",
}


class TestBatchParserEquivalence:
    """read_trace decodes canonical batches in bulk; it must agree, event for
    event and error for error, with the per-line parser it replaced."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(segments=st.lists(st.one_of(
               st.tuples(st.just("run"), st.integers(0, 1200)),
               st.tuples(st.sampled_from(sorted(_ODD_LINES)), st.just(0)),
               st.just(("nonascii", 0))), max_size=8),
           seed=st.integers(0, 2**32 - 1), trailing_newline=st.booleans())
    def test_same_events_and_errors_as_per_line_parser(self, tmp_path, segments,
                                                       seed, trailing_newline):
        rng = random.Random(seed)
        lines, icount = [], 0
        for name, n in segments:
            if name == "run":
                run, icount = _canonical_lines(rng, n, icount)
                lines += run
            elif name == "nonascii":
                lines.append(b"R 0x40 1 caf\xe9\n")
            else:
                icount += 1
                lines.append(_ODD_LINES[name].format(ic=icount, low=icount - 2).encode())
        body = b"".join(lines)
        if not trailing_newline:
            body = body.rstrip(b"\n")
        path = _fresh_path(tmp_path)
        path.write_bytes(body)
        assert _parse(read_trace, path) == _parse(read_trace_per_line, path)

    def _boundary_trace(self, tmp_path, edit_first_line_of_batch_two):
        """A canonical trace of several batches, with the first line of the
        second batch replaced; returns its path and that line's number."""
        path = tmp_path / "t.trace"
        lines = [f"W 0x{64 * i:x} {10 + i}\n" for i in range(1500)]
        path.write_text("".join(lines))
        with open(path, encoding="latin-1") as fh:
            first_batch = len(fh.readlines(workload._BATCH_BYTES))
        assert first_batch < len(lines) // 2
        lines[first_batch] = edit_first_line_of_batch_two(first_batch)
        path.write_text("".join(lines))
        return path, first_batch + 1

    @pytest.mark.parametrize("edit, message", [
        (lambda i: "W 0x0 3\n", "instruction count decreased"),
        (lambda i: f"R 0x{MAX_ADDRESS + 1:x} {10 + i}\n", "address above 2^48"),
        (lambda i: f"R 0x0 {10 + i} junk\n", "expected 'R|W 0xADDR ICOUNT'"),
    ], ids=["decrease", "above", "bad"])
    def test_error_at_a_batch_boundary(self, tmp_path, edit, message):
        path, lineno = self._boundary_trace(tmp_path, edit)
        events, error = _parse(read_trace, path)
        assert (events, error) == _parse(read_trace_per_line, path)
        assert len(events) == lineno - 1
        assert error.startswith(f"{path}:{lineno}: {message}")


# bytes a trace is made of, plus whitespace, line breaks and bytes that the
# parsers treat specially: \x0b and \x1c split fields but not lines, \x85
# and \xff are not ASCII, and int() would take '_', '+' and '-'
TRACE_ALPHABET = "RW0x19afAF #\n\r\t\x0b\x1c\x85\xff_+-"
# a line of fields: a well-formed event, most often, so that events are
# yielded before an error and some icounts fall
_TRACE_LINE = st.one_of(
    st.builds("{} 0x{:x} {}\n".format, st.sampled_from("RW"), st.integers(0, 1 << 16),
              st.integers(0, 30)),
    st.tuples(
        st.sampled_from(["R", "W", "X", "", "#"]),
        st.sampled_from([" ", "  ", "\t", "\x0b", "\x1c", "_"]),
        st.sampled_from(["0x40", "0xFf", f"0x{MAX_ADDRESS:x}", f"0x{MAX_ADDRESS + 1:x}",
                         "0x1_0", "40", "0x", "-0x1", "0x\xff"]),
        st.sampled_from([" ", "\t", "\x85"]),
        st.one_of(st.integers(0, 30).map(str), st.sampled_from(["+5", "1_0", "-1", ""])),
        st.sampled_from(["\n", "\r\n", "\r", " \n", " # c\n", "\x1c\n"]),
    ).map("".join))
_TRACE_BYTES = st.one_of(
    st.binary(max_size=120),
    st.text(TRACE_ALPHABET, max_size=120).map(lambda text: text.encode("latin-1")),
    st.lists(_TRACE_LINE, max_size=8).map(
        lambda lines: "".join(lines).encode("latin-1")))


class TestReadTraceFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(body=_TRACE_BYTES)
    def test_any_bytes_parse_like_the_per_line_parser(self, tmp_path, body):
        path = _fresh_path(tmp_path)
        path.write_bytes(body)
        # _parse catches TraceFormatError only, so any other exception fails here
        events, error = _parse(read_trace, path)
        assert (events, error) == _parse(read_trace_per_line, path)
        if error is not None:
            assert re.match(rf"{re.escape(str(path))}:[1-9][0-9]*: ", error)


class TestRoundTrip:
    def test_empty_stream(self, tmp_path):
        path = tmp_path / "empty.trace"
        write_trace(path, [])
        assert path.read_text() == ""
        assert list(read_trace(path)) == []

    @pytest.mark.parametrize("kind", ["uniform", "zipf", "hotset", "roundrobin"])
    def test_write_then_read_is_identity(self, tmp_path, kind):
        spec = GeneratorSpec(kind=kind, num_events=1000, page_count=32, seed=3)
        events = list(generate(spec))
        path = tmp_path / f"{kind}.trace"
        write_trace(path, events)
        assert list(read_trace(path)) == events

    def test_exact_line_format(self, tmp_path):
        path = tmp_path / "fmt.trace"
        write_trace(path, [TraceEvent(True, 0x1F40, 100)])
        assert path.read_text() == "W 0x1f40 100\n"

    # lengths around the writer's 1024-line batches; each event is drawn from
    # a short pattern, cycled, with the icount stepping by the pattern's step
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.sampled_from([0, 1, 1023, 1024, 1025, 2049]),
           pattern=st.lists(st.tuples(st.sampled_from([True, False, 0, 1]),
                                      st.integers(0, MAX_ADDRESS), st.integers(0, 3)),
                            min_size=1, max_size=8))
    def test_batches_write_one_line_per_event(self, tmp_path, n, pattern):
        events, icount = [], 0
        for is_write, addr, step in islice(cycle(pattern), n):
            icount += step
            events.append((is_write, addr, icount))
        expected = "".join(f"{'W' if is_write else 'R'} 0x{addr:x} {icount}\n"
                           for is_write, addr, icount in events).encode()
        path, again = _fresh_path(tmp_path), _fresh_path(tmp_path)
        write_trace(path, events)
        assert path.read_bytes() == expected
        assert list(read_trace(path)) == [TraceEvent(bool(w), a, i) for w, a, i in events]
        write_trace(again, (TraceEvent(*ev) for ev in events))
        assert again.read_bytes() == expected

    def test_rewrite_replaces_a_hard_linked_file(self, tmp_path):
        path, link = tmp_path / "t.trace", tmp_path / "link.trace"
        write_trace(path, [TraceEvent(True, 0x40, 1)])
        os.link(path, link)
        write_trace(path, [TraceEvent(False, 0x80, 2)])
        assert path.read_text() == "R 0x80 2\n"
        assert link.read_text() == "W 0x40 1\n"

    def test_writes_through_a_symlink_and_to_the_null_device(self, tmp_path):
        target, link = tmp_path / "t.trace", tmp_path / "link.trace"
        target.write_text("")
        link.symlink_to(target)
        write_trace(link, [TraceEvent(True, 0x40, 1)])
        assert link.is_symlink()
        assert target.read_text() == "W 0x40 1\n"
        write_trace(os.devnull, [TraceEvent(True, 0x40, 1)])
        assert os.path.exists(os.devnull)

    def test_a_stream_that_raises_after_its_first_batch_leaves_the_target(self, tmp_path):
        def events():
            for i in range(1500):
                yield True, 64 * i, i
            raise RuntimeError("stream failed")

        path, new = tmp_path / "t.trace", tmp_path / "new.trace"
        path.write_bytes(b"W 0x40 1\n")
        for target in (path, new):
            with pytest.raises(RuntimeError, match="stream failed"):
                write_trace(target, events())
        assert path.read_bytes() == b"W 0x40 1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.trace"]

    def test_a_trace_rewritten_in_place_keeps_its_bytes(self, tmp_path):
        # many of the reader's 8 KiB batches, read while the new file is written
        path = tmp_path / "t.trace"
        write_trace(path, generate(GeneratorSpec(num_events=20_000, seed=8)))
        before = path.read_bytes()
        assert len(before) > 20 * workload._BATCH_BYTES
        write_trace(path, read_trace(path))
        assert path.read_bytes() == before

    def test_a_trace_rewritten_through_a_symlink_keeps_its_bytes_and_the_link(self, tmp_path):
        target, link = tmp_path / "t.trace", tmp_path / "link.trace"
        write_trace(target, generate(GeneratorSpec(num_events=20_000, seed=8)))
        before = target.read_bytes()
        link.symlink_to("t.trace")
        write_trace(link, read_trace(link))
        assert link.is_symlink() and os.readlink(link) == "t.trace"
        assert target.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.trace", "t.trace"]

    def test_a_stream_that_raises_in_its_first_batch_leaves_the_target(self, tmp_path):
        def events():
            yield from ((True, 64 * i, i) for i in range(1000))
            raise RuntimeError("stream failed")

        path, bad = tmp_path / "t.trace", tmp_path / "bad.trace"
        path.write_bytes(b"W 0x40 1\n")
        bad.write_bytes(b"W 0x40 1\nR 0x80 0\n")
        with pytest.raises(RuntimeError, match="stream failed"):
            write_trace(path, events())
        with pytest.raises(TraceFormatError, match="bad.trace:2: instruction count"):
            write_trace(path, read_trace(bad))
        assert path.read_bytes() == b"W 0x40 1\n"

    # the reader's error for the event's line, which is the event's position
    @pytest.mark.parametrize("event, message", [
        ((True, 1 << 49, 5), "address above 2^48"),
        ((True, -64, 5), "address must be 0x-prefixed hex, got '-0x40'"),
        ((False, 64, 5.0), "bad instruction count '5.0'"),
        ((False, 64, True), "bad instruction count 'True'"),
        ((False, 64, -1), "negative instruction count"),
        ((False, 64.0, 5), "address must be 0x-prefixed hex, got '64.0'"),
        ((False, "0x40", 5), "address must be 0x-prefixed hex, got \"'0x40'\""),
    ])
    def test_writer_refuses_what_the_reader_refuses(self, tmp_path, event, message):
        # a new path as the second event, an existing target as the first
        path, existing = tmp_path / "t.trace", tmp_path / "old.trace"
        existing.write_bytes(b"W 0x40 1\n")
        for target, events, line in ((path, [(True, 0, 0), event], 2),
                                     (existing, [event], 1)):
            with pytest.raises(TraceFormatError) as raised:
                write_trace(target, events)
            assert str(raised.value) == f"{target}:{line}: {message}"
        assert existing.read_bytes() == b"W 0x40 1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["old.trace"]

    # a valid stream with a few fields replaced, across the writer's batch
    # edges: the writer raises exactly when the per-line reader refuses the
    # same events written out as lines, and with its error
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.sampled_from([1, 2, 1023, 1024, 1025, 2048, 2100]),
           replaced=st.lists(st.tuples(
               st.integers(0, 2099), st.sampled_from(["addr", "icount"]),
               st.one_of(st.integers(0, MAX_ADDRESS), st.integers(MAX_ADDRESS + 1, 1 << 64),
                         st.integers(max_value=-1), st.booleans(), st.floats(),
                         st.text(st.characters(max_codepoint=127), max_size=4),
                         st.none())), max_size=3))
    def test_writer_raises_exactly_when_the_reader_refuses(self, tmp_path, n, replaced):
        events = [TraceEvent(i % 3 == 0, 64 * i, 5 * i) for i in range(n)]
        for pos, name, value in replaced:
            events[pos % n] = events[pos % n]._replace(**{name: value})
        text = "".join(f"{'W' if w else 'R'} {hex(a) if isinstance(a, int) else repr(a)}"
                       f" {i!r}\n" for w, a, i in events)
        path = _fresh_path(tmp_path)
        path.write_text(text, encoding="ascii")
        try:
            expected = list(read_trace_per_line(path))
        except TraceFormatError as refused:
            with pytest.raises(TraceFormatError) as raised:
                write_trace(path, events)
            assert str(raised.value) == str(refused)
        else:
            write_trace(path, events)
            assert path.read_text(encoding="ascii") == text
            assert list(read_trace(path)) == expected == [
                TraceEvent(bool(w), a, i) for w, a, i in events]

    def test_writer_refuses_an_icount_that_decreases_across_a_batch_edge(self, tmp_path):
        events = [(True, 64 * i, 10 + i) for i in range(1024)] + [(False, 0, 3)]
        path = tmp_path / "t.trace"
        path.write_bytes(b"W 0x40 1\n")
        with pytest.raises(TraceFormatError) as raised:
            write_trace(path, events)
        assert str(raised.value) == f"{path}:1025: instruction count decreased (1033 -> 3)"
        assert path.read_bytes() == b"W 0x40 1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.trace"]

    def test_gen_trace_bytes_are_pinned(self, tmp_path):
        # digest of the file as the one-write-per-line writer made it
        path = tmp_path / "u.trace"
        assert main(["gen-trace", str(path), "--kind", "uniform", "--events", "5000",
                     "--seed", "5"]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "d37b408597d88cdded1b7b9a947a6ea7a286813d78facd6a17236b35af008873")


class TestGenerate:
    def test_same_seed_same_stream(self):
        spec = GeneratorSpec(kind="zipf", num_events=2000, seed=42)
        assert list(generate(spec)) == list(generate(spec))

    def test_different_seed_differs(self):
        a = GeneratorSpec(kind="uniform", num_events=500, seed=1)
        b = GeneratorSpec(kind="uniform", num_events=500, seed=2)
        assert list(generate(a)) != list(generate(b))

    def test_icount_advances_uniformly(self):
        spec = GeneratorSpec(num_events=10, instructions_per_access=5)
        icounts = [ev.icount for ev in generate(spec)]
        assert icounts == list(range(5, 55, 5))

    def test_write_fraction_extremes(self):
        all_writes = GeneratorSpec(num_events=300, write_fraction=1.0)
        assert all(ev.is_write for ev in generate(all_writes))
        no_writes = GeneratorSpec(num_events=300, write_fraction=0.0)
        assert not any(ev.is_write for ev in generate(no_writes))

    def test_roundrobin_covers_every_block_once(self):
        pages, blocks = 8, 4
        spec = GeneratorSpec(kind="roundrobin", num_events=pages * blocks,
                             write_fraction=1.0, page_count=pages)
        counts = Counter(ev.addr for ev in generate(spec, CacheConfig(page_size_bytes=256)))
        assert len(counts) == pages * blocks
        assert set(counts.values()) == {1}

    def test_zipf_frequencies_non_increasing(self):
        spec = GeneratorSpec(kind="zipf", zipf_exponent=1.0, num_events=100_000,
                             page_count=16, seed=8)
        cache = CacheConfig()
        counts = Counter(ev.addr // cache.page_size_bytes for ev in generate(spec, cache))
        freqs = [counts.get(page, 0) for page in range(16)]
        noise = 4 * math.sqrt(max(freqs))
        assert all(freqs[i] >= freqs[i + 1] - noise for i in range(15))
        assert freqs[0] > 2 * freqs[3]  # head clearly heavier than the tail

    def test_zipf_exponent_zero_is_uniform(self):
        spec = GeneratorSpec(kind="zipf", zipf_exponent=0.0, num_events=64_000,
                             page_count=16, seed=9)
        cache = CacheConfig()
        counts = Counter(ev.addr // cache.page_size_bytes for ev in generate(spec, cache))
        expected = spec.num_events / spec.page_count
        sigma = math.sqrt(expected)
        for page in range(16):
            assert abs(counts.get(page, 0) - expected) < 6 * sigma

    def test_hotset_probability_split(self):
        spec = GeneratorSpec(kind="hotset", hotset_fraction=1 / 16,
                             hotset_probability=0.9, num_events=50_000,
                             page_count=16, seed=10)
        cache = CacheConfig()
        hot = sum(1 for ev in generate(spec, cache) if ev.addr < cache.page_size_bytes)
        assert hot / spec.num_events == pytest.approx(0.9, abs=0.02)

    def test_addresses_block_aligned_and_in_range(self):
        spec = GeneratorSpec(kind="hotset", num_events=2000, page_count=8, seed=4)
        cache = CacheConfig()
        top = spec.page_count * cache.page_size_bytes
        for ev in generate(spec, cache):
            assert 0 <= ev.addr < top
            assert ev.addr % cache.block_size_bytes == 0

    def test_default_cache(self):
        # perfbench/run.py generates its streams with the spec alone
        spec = GeneratorSpec(kind="zipf", num_events=2000, seed=5)
        assert list(generate(spec)) == list(generate(spec, CacheConfig()))


class TestCacheGeometry:
    """A stream lies on the pages and blocks of the cache it is generated for."""

    def test_a_stream_touches_exactly_its_pages(self):
        cfg = ExperimentConfig(cache=small_cfg(),  # 2 KiB, 256 B pages
                               workload=GeneratorSpec(kind="uniform", page_count=16))
        pages = {addr // cfg.cache.page_size_bytes
                 for _, addr, _ in experiment.generate(cfg.workload, cfg.cache)}
        assert pages == set(range(16))

    def test_the_address_space_bound_is_checked_against_the_cache(self):
        with pytest.raises(ConfigError) as exc:
            ExperimentConfig(workload=GeneratorSpec(page_count=1 << 40))
        assert exc.value.field == "page_count"
        # the same page count fits below 2^48 with 256 B pages
        ExperimentConfig(cache=small_cfg(), workload=GeneratorSpec(page_count=1 << 40))


class TestZipfTable:
    """The zipf page table totals its weights as its own running sum, added left
    to right; a float ``sum`` adds left to right only up to CPython 3.11."""

    @pytest.mark.parametrize("pages, s", [(256, 0.8), (4096, 1.0)])
    def test_a_compensated_sum_leaves_the_table_unchanged(self, monkeypatch, pages, s):
        spec = GeneratorSpec(kind="zipf", page_count=pages, zipf_exponent=s)
        cdf = workload._zipf_cdf(spec)
        weights = [1.0 / rank ** s for rank in range(1, pages + 1)]
        assert math.fsum(weights) != list(accumulate(weights))[-1]  # the patch bites
        monkeypatch.setattr(workload, "sum", math.fsum, raising=False)
        assert workload._zipf_cdf(spec) == cdf
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] == 1.0

    def test_table_bits_are_pinned(self):
        # every entry's exact bits: another order of additions fails on any CPython
        cdf = workload._zipf_cdf(GeneratorSpec(kind="zipf", page_count=4096))
        assert hashlib.sha256(" ".join(map(float.hex, cdf)).encode()).hexdigest() == (
            "00900978f2e10c94d265dde5f13f61fb75bbb560f7c0ae3949d437de97da1518")


# SHA-256 of the first 20k events, one "is_write addr icount" line each, as
# generated when every draw still went through Random.randrange; pins the
# inlined rejection sampling to that stream
PINNED_STREAMS = {
    ("uniform", 1): "bae36a492fc8a5b5f945e650dafa088c6ac303bad1af1844dfeb2f524e24a8be",
    ("uniform", 7): "a1728684128b61d55acbbb1fba2b31507c780faca872b8bb90de9c8936630239",
    ("zipf", 1): "41298072009af6f3d764f8826a569b210d056831277b7544cb24e194e1a4339e",
    ("zipf", 7): "a57badcb18d1f487d956d507f93fc30ddbadcb6203268b77ae01d9d26be26ffb",
    ("hotset", 1): "30f950fbc4a9ab043485511ede68f7454a31c8749d8b78852dbef0c3a596019c",
    ("hotset", 7): "fb02ee1f44ad4310e2f8e5d321c742838da868810d4bb0f4fd68733ac24aac85",
    ("hotset-all-hot", 1): "1fee17a4580688ab24107b54c86e6c9fb354b69b3b24d060ccd8923eb5127893",
    ("hotset-all-hot", 7): "4698572accd632f008bf3ac149c5054212020f82991e1d65e92675f190ce1a52",
    ("roundrobin", 1): "eb05067ba25c168a6fe34c07551b77239865c6219f6db9ae60b0a706a4739cf5",
    ("roundrobin", 7): "d9f54eb4bb177ce24670d3292a670cdcdcae5cba84d700e77f84c3c278339ba1",
}
PINNED_SPECS = {
    "uniform": dict(kind="uniform", page_count=100),
    "zipf": dict(kind="zipf", zipf_exponent=0.8, write_fraction=0.3),
    "hotset": dict(kind="hotset", page_count=64, write_fraction=1.0),
    # hot >= pages: the hot set covers every page, so draws are uniform over
    # a power-of-two page count, where rejection is most frequent
    "hotset-all-hot": dict(kind="hotset", page_count=64, hotset_fraction=1.0),
    "roundrobin": dict(kind="roundrobin", page_count=10),
}
# the cache a pinned stream is generated for, where it is not the default one
PINNED_CACHES = {"hotset-all-hot": CacheConfig(page_size_bytes=512)}


class TestExactTupleStreams:
    """The simulators read the streams through experiment's generate and
    read_trace, which yield exact tuples; the public streams are TraceEvent
    views of the same events."""

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_generate(self, kind):
        spec = GeneratorSpec(kind=kind, num_events=300, page_count=16, seed=3)
        cache = small_cfg()
        tuples = list(experiment.generate(spec, cache))
        assert tuples and all(type(ev) is tuple for ev in tuples)
        public = list(generate(spec, cache))
        assert all(type(ev) is TraceEvent for ev in public)
        assert public == tuples
        # the fields perfbench's oracle check reads
        assert [(ev.is_write, ev.addr) for ev in public] == [ev[:2] for ev in tuples]

    def test_read_trace_on_bulk_and_per_line_batches(self, tmp_path):
        events = list(generate(GeneratorSpec(num_events=3000, seed=4)))
        path = tmp_path / "t.trace"
        write_trace(path, events)
        lines = path.read_text().splitlines(keepends=True)
        is_write, addr, icount = events[1500]
        # a comment and a tab-separated line send their batch to the per-line
        # parser; the batches before and after it are canonical
        lines[1500] = f"# comment\n{'W' if is_write else 'R'}\t{addr:#x}\t{icount}\n"
        path.write_text("".join(lines))
        tuples = list(experiment.read_trace(path))
        assert all(type(ev) is tuple for ev in tuples)
        public = list(read_trace(path))
        assert all(type(ev) is TraceEvent for ev in public)
        assert public == tuples == events
        assert [(ev.is_write, ev.addr) for ev in public] == [ev[:2] for ev in tuples]


def _lines(events):
    return "".join(f"{'W' if w else 'R'} 0x{a:x} {i}\n" for w, a, i in events).encode()


class TestViewStreamsWriteFromTheirProducer:
    """write_trace reads a generate or read_trace stream through the tuple
    producer its TraceEvent views are made from; the bytes and errors are
    those of writing the views themselves."""

    @pytest.mark.parametrize("kind", GENERATOR_KINDS)
    def test_views_and_producer_write_the_same_bytes(self, tmp_path, kind):
        spec = GeneratorSpec(kind=kind, num_events=2500, page_count=16, seed=3)
        cache = small_cfg()
        views, tuples = tmp_path / "views.trace", tmp_path / "tuples.trace"
        write_trace(views, generate(spec, cache))
        write_trace(tuples, workload.generate_tuples(spec, cache))
        assert views.read_bytes() == tuples.read_bytes() == _lines(
            experiment.generate(spec, cache))

    def test_a_partly_read_stream_writes_the_rest(self, tmp_path):
        spec = GeneratorSpec(num_events=4000, seed=5)
        source = tmp_path / "source.trace"
        write_trace(source, generate(spec))
        expected = _lines(islice(experiment.generate(spec, CacheConfig()), 1500, None))
        for stream in (generate(spec), read_trace(source)):
            first = next(stream)
            assert type(first) is TraceEvent
            assert len(list(islice(stream, 1499))) == 1499
            path = _fresh_path(tmp_path)
            write_trace(path, stream)
            assert path.read_bytes() == expected

    def test_a_source_attribute_alone_is_not_read_through(self, tmp_path):
        class Stream(list):
            source = [(True, 0x80, 2)]

        path = tmp_path / "t.trace"
        write_trace(path, Stream([(False, 0x40, 1)]))
        assert path.read_bytes() == b"R 0x40 1\n"

    def test_a_canonical_trace_is_copied_byte_for_byte(self, tmp_path):
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        write_trace(a, generate(GeneratorSpec(num_events=5000, seed=6)))
        write_trace(b, read_trace(a))
        assert b.read_bytes() == a.read_bytes()

    def test_comments_blank_lines_and_crlf_are_canonicalised(self, tmp_path):
        events = list(experiment.generate(GeneratorSpec(num_events=3000, seed=7),
                                          CacheConfig()))
        lines = _lines(events).decode().splitlines()
        for i in range(0, 3000, 700):
            lines[i] = f"# note {i}\n\n{lines[i]}"
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        a.write_bytes("\r\n".join(lines).encode() + b"\r\n")
        write_trace(b, read_trace(a))
        assert b.read_bytes() == _lines(events)

    @pytest.mark.parametrize("lineno", [1025, 1500, 2900])
    def test_a_bad_line_fails_as_through_trace_events(self, tmp_path, lineno):
        lines = _lines((i % 2 == 0, 64 * i, i) for i in range(3000)).splitlines(True)
        lines[lineno - 1] = b"R 0x40 junk\n"
        source = tmp_path / "source.trace"
        source.write_bytes(b"".join(lines))
        outcomes = []
        # a generator around the views hides them, so it writes TraceEvents
        for stream in (read_trace(source), (ev for ev in read_trace(source))):
            path = _fresh_path(tmp_path)
            with pytest.raises(TraceFormatError) as raised:
                write_trace(path, stream)
            outcomes.append((str(raised.value), path.exists()))
        assert outcomes[0] == outcomes[1] == (
            f"{source}:{lineno}: bad instruction count 'junk'", False)
        assert [p.name for p in tmp_path.iterdir()] == ["source.trace"]


def _randrange_stream(spec, cache):
    """The generator's draw order written out with Random.randrange."""
    rng = random.Random(spec.seed)
    p = spec.page_count
    hot = max(1, round(spec.hotset_fraction * p))
    for i in range(1, spec.num_events + 1):
        is_write = rng.random() < spec.write_fraction
        if spec.kind == "hotset" and hot < p:
            page = (rng.randrange(hot) if rng.random() < spec.hotset_probability
                    else rng.randrange(hot, p))
        else:
            page = rng.randrange(p)
        block = rng.randrange(cache.page_size_bytes // cache.block_size_bytes)
        yield TraceEvent(is_write, page * cache.page_size_bytes
                         + block * cache.block_size_bytes,
                         i * spec.instructions_per_access)


# powers of two reject most often: randrange(2**e) draws e + 1 bits
SIZES = st.one_of(st.integers(1, 2 ** 20), st.integers(0, 20).map(lambda e: 1 << e))
SEEDS = st.integers(0, 2 ** 32)


class TestStreamPinning:
    @pytest.mark.parametrize("name, seed", sorted(PINNED_STREAMS))
    def test_stream_matches_pinned_digest(self, name, seed):
        spec = GeneratorSpec(num_events=20_000, seed=seed, **PINNED_SPECS[name])
        digest = hashlib.sha256()
        for ev in generate(spec, PINNED_CACHES.get(name, CacheConfig())):
            digest.update(f"{int(ev.is_write)} {ev.addr} {ev.icount}\n".encode())
        assert digest.hexdigest() == PINNED_STREAMS[name, seed]

    @given(kind=st.sampled_from(["uniform", "hotset"]), n=SIZES, seed=SEEDS,
           block_shift=st.integers(0, 6),
           hot_fraction=st.sampled_from([0.01, 0.125, 0.5, 1.0]))
    def test_generate_equals_randrange_transcription(self, kind, n, seed,
                                                     block_shift, hot_fraction):
        spec = GeneratorSpec(kind=kind, num_events=30, page_count=n, seed=seed,
                             hotset_fraction=hot_fraction)
        cache = CacheConfig(block_size_bytes=4096 >> block_shift)
        assert list(generate(spec, cache)) == list(_randrange_stream(spec, cache))


class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(kind="waves"),
        dict(num_events=-1),
        dict(write_fraction=1.5),
        dict(zipf_exponent=-0.1),
        dict(hotset_fraction=0.0),
        dict(hotset_probability=-0.2),
        dict(page_count=0),
        dict(instructions_per_access=0),
        dict(zipf_exponent=float("nan")),
        dict(zipf_exponent=400),  # 256 ** 400 overflows a float, though as ints it is exact
        dict(kind="zipf", page_count=(1 << 24) + 1),  # its table would need > 1 GiB
    ])
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ConfigError):
            GeneratorSpec(**kwargs)

    def test_refuses_more_pages_than_an_address_space_has_bytes(self):
        GeneratorSpec(kind="uniform", page_count=1 << 48)
        for kind in GENERATOR_KINDS:
            for pages in ((1 << 48) + 1, 2 ** 1100):  # a float of 2^1100 overflows
                with pytest.raises(ConfigError) as exc:
                    GeneratorSpec(kind=kind, page_count=pages)
                assert (exc.value.field, exc.value.reason) == ("page_count",
                                                               "must lie in [1, 2^48]")

    def test_accepts_pages_up_to_the_zipf_bound(self):
        # validation only: no table of this size is built
        GeneratorSpec(kind="zipf", page_count=1 << 24)
        GeneratorSpec(kind="uniform", page_count=(1 << 24) + 1)
        GeneratorSpec(page_count=1, zipf_exponent=math.inf)  # 1 ** inf is 1: no overflow

    def test_labels_are_deterministic(self):
        spec = GeneratorSpec(kind="hotset", num_events=10, page_count=4)
        assert spec.label() == GeneratorSpec(kind="hotset", num_events=10,
                                             page_count=4).label()
        assert "hotset" in spec.label()
