"""Trace file I/O, deterministic synthetic access-stream generators, and the
one writer of every output file (``replacing``)."""

import os
import random
import re
from bisect import bisect_right
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import itemgetter
from typing import NamedTuple

from .cache import CacheConfig
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

    def __post_init__(self):
        if self.kind not in GENERATOR_KINDS:
            raise ConfigError(f"{self.kind!r} is not one of {GENERATOR_KINDS}", "kind")
        if self.num_events < 0:
            raise ConfigError("must be >= 0", "num_events")
        if self.seed < 0:  # Random(-n) draws Random(n)'s stream
            raise ConfigError("must be >= 0", "seed")
        if not 0.0 <= self.write_fraction <= 1.0:
            raise ConfigError("must lie in [0, 1]", "write_fraction")
        if not 0.0 < self.hotset_fraction <= 1.0:
            raise ConfigError("must lie in (0, 1]", "hotset_fraction")
        if not 0.0 <= self.hotset_probability <= 1.0:
            raise ConfigError("must lie in [0, 1]", "hotset_probability")
        if not 1 <= self.page_count <= MAX_ADDRESS:  # no cache has more pages than bytes
            raise ConfigError("must lie in [1, 2^48]", "page_count")
        if self.kind == "zipf" and self.page_count > 1 << 24:  # ~1 GiB of zipf table
            raise ConfigError("must be <= 2^24 for zipf (64 B per page)", "page_count")
        if not self.zipf_exponent >= 0:  # NaN too
            raise ConfigError("must be >= 0", "zipf_exponent")
        try:  # of the zipf weights, the largest rank's overflows first (to inf if s is inf)
            if float(self.page_count) ** self.zipf_exponent == float("inf"):  # an int s too
                raise OverflowError
        except OverflowError:
            raise ConfigError(f"is too large for {self.page_count} pages: "
                              "their zipf weights overflow", "zipf_exponent") from None
        if self.instructions_per_access < 1:
            raise ConfigError("must be >= 1", "instructions_per_access")

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
    """Cumulative zipf page probabilities: running sums (left to right on every
    CPython) over the last, which gives 1.0; a draw is ``bisect_right(cdf, random())``."""
    s = spec.zipf_exponent
    sums = list(accumulate(1.0 / (rank ** s) for rank in range(1, spec.page_count + 1)))
    return [acc / sums[-1] for acc in sums]


class _Views(map):
    """TraceEvent views of a tuple producer, ``source``, which ``write_trace``
    reads in their place; a map pulls no further ahead than it yields."""


def _views(producer, *args):
    views = _Views(tuple.__new__, repeat(TraceEvent), source := producer(*args))
    views.source = source
    return views


def generate(spec: GeneratorSpec, cache: CacheConfig = CacheConfig()):
    """Yield the deterministic event stream described by ``spec`` on the pages
    and blocks of ``cache`` as TraceEvents."""
    return _views(generate_tuples, spec, cache)


def generate_tuples(spec: GeneratorSpec, cache: CacheConfig):
    """Yield the events of ``generate`` as exact tuples, which unpack faster.

    Page and block draws inline ``randrange(n)``: ``getrandbits(n.bit_length())``
    until below n; the same stream, without argument checks or a call frame.
    """
    rng = random.Random(spec.seed)
    random_, getrandbits = rng.random, rng.getrandbits
    blocks_per_page = cache.sets_per_color
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
    page_size = cache.page_size_bytes
    block_size = cache.block_size_bytes
    write_fraction = spec.write_fraction
    step = spec.instructions_per_access
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
            yield is_write, page * page_size + block * block_size, icount
            continue
        block = getrandbits(k_block)
        while block >= blocks_per_page:
            block = getrandbits(k_block)
        yield is_write, page * page_size + block * block_size, icount


_BATCH_BYTES = 8192  # readlines() hint: small enough to leave peak RSS flat
# a whole batch of the lines write_trace emits; anything else is parsed per line
_CANONICAL = re.compile(r"(?:[RW] 0x[0-9a-fA-F]+ [0-9]+\n)*")


def read_trace(path):
    """Yield the events of a text trace as TraceEvents.

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
    return _views(read_trace_tuples, path)


def read_trace_tuples(path):
    """Yield the events of ``read_trace`` as exact tuples, which unpack faster."""
    last_icount = lineno = 0
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
                    yield from zip(map("W".__eq__, fields[::3]), addrs, icounts)
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
        try:
            if not line.isascii():
                byte = next(ch for ch in line if not ch.isascii())
                raise TraceFormatError(f"non-ASCII byte 0x{ord(byte):02x}")
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            parts = stripped.split()
            if len(parts) != 3:
                raise TraceFormatError(f"expected 'R|W 0xADDR ICOUNT', got {stripped!r}")
            kind, addr_text, icount_text = parts
            if kind not in ("R", "W"):
                raise TraceFormatError(f"unknown kind {kind!r}")
            if not addr_text.startswith("0x"):
                raise TraceFormatError(f"address must be 0x-prefixed hex, got {addr_text!r}")
            try:
                addr = int(addr_text, 16)
            except ValueError:
                raise TraceFormatError(f"bad hex address {addr_text!r}") from None
            if addr > MAX_ADDRESS:
                raise TraceFormatError("address above 2^48")
            try:
                icount = int(icount_text, 10)
            except ValueError:
                raise TraceFormatError(f"bad instruction count {icount_text!r}") from None
            if icount < 0:
                raise TraceFormatError("negative instruction count")
            if icount < last_icount:
                raise TraceFormatError(
                    f"instruction count decreased ({last_icount} -> {icount})")
            # int() accepts '_' and signs; tested last so older errors keep their text
            if "_" in addr_text or not icount_text.isdigit():
                raise TraceFormatError(
                    f"'_' and signs are not allowed in numbers, got {stripped!r}")
        except TraceFormatError as exc:
            raise TraceFormatError(f"{path}:{lineno}: {exc}") from None
        last_icount = icount
        yield kind == "W", addr, icount
    return last_icount


@contextmanager
def replacing(path):
    """Yield a UTF-8 text file (LF endings) that replaces ``path`` all or nothing: a
    temp file beside it, ``<name>.<pid>.tmp`` with the name cut to 60 characters (parents
    made), renamed in on a clean exit after the old target is unlinked (a rename over a
    fresh file waits for its write-out), removed on a failure. A symlink's target is
    replaced; a non-regular target (/dev/null, a pipe) is written in place. Errors name path."""
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        return
    os.makedirs(os.path.dirname(path) or os.curdir, exist_ok=True)  # errors name path
    head, name = os.path.split(os.path.realpath(path))
    os.makedirs(head, exist_ok=True)  # a dangling symlink's target directory
    real, tmp = os.path.join(head, name), os.path.join(head, f"{name[:60]}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            yield fh
        with suppress(FileNotFoundError):
            os.unlink(real)
        os.replace(tmp, real)
    except OSError as exc:
        if exc.filename == tmp:
            exc.filename = os.fspath(path)
        raise
    finally:  # the temp file is left only by a failure
        with suppress(OSError):
            os.unlink(tmp)


def write_trace(path, events):
    """Write ``(is_write, addr, icount)`` events through ``replacing`` in the
    text format ``read_trace`` accepts, 1024 lines per write. Each batch is
    rendered once (an int address in hex, any other value by its ``repr``) and
    written if it passes the reader's bulk test; else the reader's line parser
    raises its TraceFormatError, the event's 1-based position as the line. A
    ``generate`` or ``read_trace`` stream is read through its tuple producer."""
    events = iter(events.source if type(events) is _Views else events)
    written = last_icount = 0
    with replacing(path) as fh:
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
