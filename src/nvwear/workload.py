"""Trace file I/O and deterministic synthetic access-stream generators."""

import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, repeat
from typing import NamedTuple

from .errors import ConfigError, TraceFormatError

MAX_ADDRESS = 1 << 48

GENERATOR_KINDS = ("uniform", "zipf", "hotset", "roundrobin")


class TraceEvent(NamedTuple):
    """One access, as an immutable NamedTuple: ``is_write, addr, icount``."""

    is_write: bool
    addr: int
    icount: int  # cumulative instructions executed at this access


@dataclass(frozen=True)
class GeneratorSpec:
    """Recipe for a synthetic access stream; same spec => same events, byte
    for byte.

    Kinds:
      uniform    - pages drawn flat.
      zipf       - page k drawn with probability proportional to 1/(k+1)^s;
                   page 0 is the most popular.
      hotset     - the first ``hotset_fraction`` of pages absorbs
                   ``hotset_probability`` of the accesses.
      roundrobin - deterministic sweep hitting every block of every page in
                   turn (pages cycle fastest).

    Block offsets within a page are uniform except for roundrobin. The
    instruction counter advances by ``instructions_per_access`` per event.
    """

    kind: str = "uniform"
    num_events: int = 100_000
    write_fraction: float = 0.5
    zipf_exponent: float = 1.0
    hotset_fraction: float = 0.125
    hotset_probability: float = 0.9
    page_count: int = 256
    seed: int = 1
    instructions_per_access: int = 5
    page_size_bytes: int = 4096
    block_size_bytes: int = 64

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(f"{self.kind!r} is not one of {GENERATOR_KINDS}", "kind")
        if self.num_events < 0:
            raise ConfigError("must be >= 0", "num_events")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("must lie in [0, 1]", "write_fraction")
        if self.zipf_exponent < 0:
            raise ConfigError("must be >= 0", "zipf_exponent")
        if not 0.0 < self.hotset_fraction <= 1.0:
            raise ConfigError("must lie in (0, 1]", "hotset_fraction")
        if not 0.0 <= self.hotset_probability <= 1.0:
            raise ConfigError("must lie in [0, 1]", "hotset_probability")
        if self.page_count < 1:
            raise ConfigError("must be >= 1", "page_count")
        if self.instructions_per_access < 1:
            raise ConfigError("must be >= 1", "instructions_per_access")
        for name in ("page_size_bytes", "block_size_bytes"):
            v = getattr(self, name)
            if v < 1 or v & (v - 1):
                raise ConfigError("must be a positive power of two", name)
        if self.block_size_bytes > self.page_size_bytes:
            raise ConfigError("block_size_bytes must not exceed page_size_bytes")
        if self.page_count * self.page_size_bytes > MAX_ADDRESS:
            raise ConfigError("page_count * page_size_bytes exceeds the 2^48 "
                              "address space")

    def label(self):
        """Short deterministic tag for reports."""
        parts = [self.kind, f"n={self.num_events}", f"wf={self.write_fraction:g}",
                 f"pages={self.page_count}"]
        if self.kind == "zipf":
            parts.append(f"s={self.zipf_exponent:g}")
        elif self.kind == "hotset":
            parts.append(f"hot={self.hotset_fraction:g}@{self.hotset_probability:g}")
        return " ".join(parts)


def _page_picker(spec, rng):
    """Page draw of one event. Uniform and hotset draws inline ``randrange(n)``:
    ``getrandbits(n.bit_length())`` until below n; same stream, no arg checks."""
    p = spec.page_count
    random_, getrandbits = rng.random, rng.getrandbits
    if spec.kind == "zipf":
        s = spec.zipf_exponent
        weights = [1.0 / (rank ** s) for rank in range(1, p + 1)]
        total = sum(weights)
        cum = [acc / total for acc in accumulate(weights)]
        cum[-1] = 1.0
        return lambda: bisect_right(cum, random_())
    if spec.kind == "hotset":
        hot = max(1, round(spec.hotset_fraction * p))
        if hot < p:
            prob = spec.hotset_probability
            cold = p - hot
            k_hot, k_cold = hot.bit_length(), cold.bit_length()

            def pick_hotset():
                if random_() < prob:
                    r = getrandbits(k_hot)
                    while r >= hot:
                        r = getrandbits(k_hot)
                    return r
                r = getrandbits(k_cold)
                while r >= cold:
                    r = getrandbits(k_cold)
                return hot + r

            return pick_hotset
    k = p.bit_length()

    def pick_uniform():
        r = getrandbits(k)
        while r >= p:
            r = getrandbits(k)
        return r

    return pick_uniform


def generate(spec: GeneratorSpec):
    """Yield the deterministic event stream described by ``spec``."""
    rng = random.Random(spec.seed)
    random_, getrandbits = rng.random, rng.getrandbits
    blocks_per_page = spec.page_size_bytes // spec.block_size_bytes
    k_block = blocks_per_page.bit_length()
    pick_page = None if spec.kind == "roundrobin" else _page_picker(spec, rng)
    page_size = spec.page_size_bytes
    block_size = spec.block_size_bytes
    write_fraction = spec.write_fraction
    step = spec.instructions_per_access
    new = tuple.__new__  # builds a TraceEvent without its Python-level __new__
    icount = 0
    for i in range(spec.num_events):
        icount += step
        is_write = random_() < write_fraction
        if pick_page is None:
            page = i % spec.page_count
            block = (i // spec.page_count) % blocks_per_page
        else:
            page = pick_page()
            block = getrandbits(k_block)
            while block >= blocks_per_page:
                block = getrandbits(k_block)
        yield new(TraceEvent, (is_write, page * page_size + block * block_size, icount))


_BATCH_BYTES = 8192  # readlines() hint: small enough to leave peak RSS flat
# a whole batch of the lines write_trace emits; anything else is parsed per line
_CANONICAL = re.compile(r"(?:[RW] 0x[0-9a-fA-F]+ [0-9]+\n)*")


def read_trace(path):
    """Yield events from a text trace.

    One event per line: ``R|W 0x<hex address> <decimal cumulative icount>``.
    ``#`` lines are comments; blank lines are skipped. Addresses must stay
    within 2^48 and icounts must never decrease. Traces are ASCII; digit
    separators (``_``) and signs are rejected.

    Lines are read about 8 KiB at a time. A batch made only of canonical
    lines (as ``write_trace`` writes them: one space apart, LF-terminated) is
    decoded in bulk; any other batch, including every error, goes line by
    line. Both paths accept the same traces and raise the same errors, the
    per-line one is only slower.
    """
    last_icount = 0
    lineno = 0
    new = tuple.__new__  # as in generate
    # latin-1 decodes every byte, so a non-ASCII byte fails the batch match
    # and reaches the line check, which can name its line
    with open(path, "r", encoding="latin-1") as fh:
        while lines := fh.readlines(_BATCH_BYTES):
            text = "".join(lines)
            if _CANONICAL.fullmatch(text):
                fields = text.split()
                addrs = list(map(int, fields[1::3], repeat(16)))
                icounts = list(map(int, fields[2::3]))
                if (max(addrs) <= MAX_ADDRESS and icounts[0] >= last_icount
                        and icounts == sorted(icounts)):
                    last_icount = icounts[-1]
                    lineno += len(lines)
                    yield from map(new, repeat(TraceEvent),
                                   zip(map("W".__eq__, fields[::3]), addrs, icounts))
                    continue
            last_icount = yield from _parse_lines(path, lines, lineno, last_icount)
            lineno += len(lines)


def _parse_lines(path, lines, lineno, last_icount):
    """Yield the events of ``lines``, which follow line ``lineno`` of the
    trace, one line at a time; returns the last icount."""
    new = tuple.__new__
    for lineno, line in enumerate(lines, start=lineno + 1):
        if not line.isascii():
            byte = next(ch for ch in line if not ch.isascii())
            raise TraceFormatError(
                f"{path}:{lineno}: non-ASCII byte 0x{ord(byte):02x}")
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if len(parts) != 3:
            raise TraceFormatError(
                f"{path}:{lineno}: expected 'R|W 0xADDR ICOUNT', got {stripped!r}")
        kind, addr_text, icount_text = parts
        if kind not in ("R", "W"):
            raise TraceFormatError(f"{path}:{lineno}: unknown kind {kind!r}")
        if not addr_text.startswith("0x"):
            raise TraceFormatError(
                f"{path}:{lineno}: address must be 0x-prefixed hex, got {addr_text!r}")
        try:
            addr = int(addr_text, 16)
        except ValueError:
            raise TraceFormatError(
                f"{path}:{lineno}: bad hex address {addr_text!r}") from None
        if addr > MAX_ADDRESS:
            raise TraceFormatError(f"{path}:{lineno}: address above 2^48")
        try:
            icount = int(icount_text, 10)
        except ValueError:
            raise TraceFormatError(
                f"{path}:{lineno}: bad instruction count {icount_text!r}") from None
        if icount < 0:
            raise TraceFormatError(f"{path}:{lineno}: negative instruction count")
        if icount < last_icount:
            raise TraceFormatError(
                f"{path}:{lineno}: instruction count decreased "
                f"({last_icount} -> {icount})")
        # int() accepts '_' and signs; tested last so older errors keep their text
        if "_" in addr_text or not icount_text.isdigit():
            raise TraceFormatError(
                f"{path}:{lineno}: '_' and signs are not allowed in "
                f"numbers, got {stripped!r}")
        last_icount = icount
        yield new(TraceEvent, (kind == "W", addr, icount))
    return last_icount


def write_trace(path, events):
    """Write events in the text format ``read_trace`` accepts (LF endings)."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        for ev in events:
            fh.write(f"{'W' if ev.is_write else 'R'} 0x{ev.addr:x} {ev.icount}\n")
