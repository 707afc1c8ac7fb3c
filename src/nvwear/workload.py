"""Trace file I/O and deterministic synthetic access-stream generators."""

import os
import random
import re
from bisect import bisect_right
from contextlib import suppress
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import itemgetter
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
        if not 0.0 < self.hotset_fraction <= 1.0:
            raise ConfigError("must lie in (0, 1]", "hotset_fraction")
        if not 0.0 <= self.hotset_probability <= 1.0:
            raise ConfigError("must lie in [0, 1]", "hotset_probability")
        if self.page_count < 1:
            raise ConfigError("must be >= 1", "page_count")
        if not self.zipf_exponent >= 0:  # NaN too
            raise ConfigError("must be >= 0", "zipf_exponent")
        try:  # of the zipf weights, the largest rank's overflows first
            self.page_count ** self.zipf_exponent
        except OverflowError:
            raise ConfigError(f"is too large for {self.page_count} pages: "
                              "their zipf weights overflow", "zipf_exponent") from None
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


def _zipf_cdf(spec):
    """Cumulative zipf probabilities of the pages, the last exactly 1.0: a
    draw is ``bisect_right(cdf, random())``."""
    s = spec.zipf_exponent
    weights = [1.0 / (rank ** s) for rank in range(1, spec.page_count + 1)]
    total = sum(weights)
    cdf = [acc / total for acc in accumulate(weights)]
    cdf[-1] = 1.0
    return cdf


def generate(spec: GeneratorSpec):
    """Yield the deterministic event stream described by ``spec``.

    Page and block draws inline ``randrange(n)``: ``getrandbits(n.bit_length())``
    until below n; the same stream, without argument checks or a call frame.
    """
    rng = random.Random(spec.seed)
    random_, getrandbits = rng.random, rng.getrandbits
    blocks_per_page = spec.page_size_bytes // spec.block_size_bytes
    k_block = blocks_per_page.bit_length()
    zipf_cdf = _zipf_cdf(spec) if spec.kind == "zipf" else None
    page_count = spec.page_count
    hot = cold = 0  # pages drawn flat, and the rest; zipf and roundrobin draw neither
    if spec.kind == "uniform":
        hot = page_count
    elif spec.kind == "hotset":
        hot = max(1, round(spec.hotset_fraction * page_count))
        cold = page_count - hot  # 0 when the hot set covers every page: uniform
    k_hot, k_cold = hot.bit_length(), cold.bit_length()
    hot_probability = spec.hotset_probability
    page_size = spec.page_size_bytes
    block_size = spec.block_size_bytes
    write_fraction = spec.write_fraction
    step = spec.instructions_per_access
    new = tuple.__new__  # builds a TraceEvent without its Python-level __new__
    for icount in range(step, step * spec.num_events + 1, step):
        is_write = random_() < write_fraction
        if zipf_cdf is not None:
            page = bisect_right(zipf_cdf, random_())
        elif hot:
            if not cold or random_() < hot_probability:
                page = getrandbits(k_hot)
                while page >= hot:
                    page = getrandbits(k_hot)
            else:
                page = getrandbits(k_cold)
                while page >= cold:
                    page = getrandbits(k_cold)
                page += hot
        else:  # roundrobin: pages cycle fastest, no block draw
            i = icount // step - 1
            page, block = i % page_count, i // page_count % blocks_per_page
            yield new(TraceEvent, (is_write, page * page_size + block * block_size,
                                   icount))
            continue
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
                if _in_order(addrs, icounts, last_icount):
                    last_icount = icounts[-1]
                    lineno += len(lines)
                    yield from map(new, repeat(TraceEvent),
                                   zip(map("W".__eq__, fields[::3]), addrs, icounts))
                    continue
            last_icount = yield from _parse_lines(path, lines, lineno, last_icount)
            lineno += len(lines)


def _in_order(addrs, icounts, last_icount):
    """True when no address is above 2^48 and no icount is below the one before."""
    return (max(addrs) <= MAX_ADDRESS and icounts[0] >= last_icount
            and icounts == sorted(icounts))


def _parse_lines(path, lines, lineno, last_icount):
    """Yield the events of ``lines``, which follow line ``lineno`` of the
    trace, one line at a time; returns the last icount."""
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
        yield TraceEvent(kind == "W", addr, icount)
    return last_icount


def write_trace(path, events):
    """Write ``(is_write, addr, icount)`` events in the text format
    ``read_trace`` accepts (LF endings), 1024 lines per write. Each batch is
    rendered once (an int address in hex, any other value by its ``repr``) and
    written if it passes the reader's bulk test; else the reader's line parser
    raises its TraceFormatError, the event's 1-based position as the line. The
    file then holds the batches before it, as it does when ``events`` raises.
    A regular file at ``path`` is unlinked first (truncating one written a
    moment ago waits for its write-out); a symlink or device is written through."""
    events = iter(events)
    written = last_icount = 0
    with suppress(OSError):  # a file we may not unlink is written in place
        if os.path.isfile(path) and not os.path.islink(path):
            os.unlink(path)
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        while batch := list(islice(events, 1024)):
            lines = [f"{'W' if is_write else 'R'} "
                     f"{hex(addr) if isinstance(addr, int) else repr(addr)} {icount!r}\n"
                     for is_write, addr, icount in batch]
            text = "".join(lines)
            icounts = [*map(itemgetter(2), batch)]
            if not (_CANONICAL.fullmatch(text)
                    and _in_order(map(itemgetter(1), batch), icounts, last_icount)):
                list(_parse_lines(path, lines, written, last_icount))
            fh.write(text)
            written += len(batch)
            last_icount = icounts[-1]
