import math
from collections import Counter

import pytest

from nvwear import (ConfigError, GeneratorSpec, TraceEvent, TraceFormatError,
                    generate, read_trace, write_trace)


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

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(TraceFormatError, match="unknown kind"):
            self._read(tmp_path, "X 0x0 0\n")

    def test_error_carries_line_number(self, tmp_path):
        with pytest.raises(TraceFormatError, match=":2:"):
            self._read(tmp_path, "R 0x0 0\nR zzz 1\n")

    def test_requires_hex_prefix(self, tmp_path):
        with pytest.raises(TraceFormatError, match="0x-prefixed"):
            self._read(tmp_path, "R 1f40 0\n")

    def test_rejects_wrong_field_count(self, tmp_path):
        with pytest.raises(TraceFormatError):
            self._read(tmp_path, "R 0x0\n")
        with pytest.raises(TraceFormatError):
            self._read(tmp_path, "R 0x0 0 9\n")

    def test_rejects_address_above_48_bits(self, tmp_path):
        with pytest.raises(TraceFormatError, match="2\\^48"):
            self._read(tmp_path, f"R 0x{1 << 49:x} 0\n")

    def test_rejects_decreasing_icount(self, tmp_path):
        with pytest.raises(TraceFormatError, match="decreased"):
            self._read(tmp_path, "R 0x0 10\nR 0x40 9\n")

    def test_rejects_bad_icount(self, tmp_path):
        with pytest.raises(TraceFormatError):
            self._read(tmp_path, "R 0x0 ten\n")

    @pytest.mark.parametrize("body", [b"R 0x0 0\nW 0x40 5 caf\xe9\n",
                                      b"R 0x0 0\n# caf\xe9\nW 0x40 5\n"],
                             ids=["event", "comment"])
    def test_non_ascii_byte_names_its_line(self, tmp_path, body):
        path = tmp_path / "t.trace"
        path.write_bytes(body)
        with pytest.raises(TraceFormatError,
                           match=r"t\.trace:2: non-ASCII byte 0xe9"):
            list(read_trace(path))


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
                             write_fraction=1.0, page_count=pages,
                             page_size_bytes=256, block_size_bytes=64)
        counts = Counter(ev.addr for ev in generate(spec))
        assert len(counts) == pages * blocks
        assert set(counts.values()) == {1}

    def test_zipf_frequencies_non_increasing(self):
        spec = GeneratorSpec(kind="zipf", zipf_exponent=1.0, num_events=100_000,
                             page_count=16, seed=8)
        counts = Counter(ev.addr // spec.page_size_bytes for ev in generate(spec))
        freqs = [counts.get(page, 0) for page in range(16)]
        noise = 4 * math.sqrt(max(freqs))
        assert all(freqs[i] >= freqs[i + 1] - noise for i in range(15))
        assert freqs[0] > 2 * freqs[3]  # head clearly heavier than the tail

    def test_zipf_exponent_zero_is_uniform(self):
        spec = GeneratorSpec(kind="zipf", zipf_exponent=0.0, num_events=64_000,
                             page_count=16, seed=9)
        counts = Counter(ev.addr // spec.page_size_bytes for ev in generate(spec))
        expected = spec.num_events / spec.page_count
        sigma = math.sqrt(expected)
        for page in range(16):
            assert abs(counts.get(page, 0) - expected) < 6 * sigma

    def test_hotset_probability_split(self):
        spec = GeneratorSpec(kind="hotset", hotset_fraction=1 / 16,
                             hotset_probability=0.9, num_events=50_000,
                             page_count=16, seed=10)
        hot = sum(1 for ev in generate(spec) if ev.addr < spec.page_size_bytes)
        assert hot / spec.num_events == pytest.approx(0.9, abs=0.02)

    def test_addresses_block_aligned_and_in_range(self):
        spec = GeneratorSpec(kind="hotset", num_events=2000, page_count=8, seed=4)
        top = spec.page_count * spec.page_size_bytes
        for ev in generate(spec):
            assert 0 <= ev.addr < top
            assert ev.addr % spec.block_size_bytes == 0


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
        dict(page_size_bytes=1000),
        dict(block_size_bytes=8192, page_size_bytes=4096),
        dict(page_count=1 << 40),
    ])
    def test_rejects_bad_specs(self, kwargs):
        with pytest.raises(ConfigError):
            GeneratorSpec(**kwargs)

    def test_labels_are_deterministic(self):
        spec = GeneratorSpec(kind="hotset", num_events=10, page_count=4)
        assert spec.label() == GeneratorSpec(kind="hotset", num_events=10,
                                             page_count=4).label()
        assert "hotset" in spec.label()
