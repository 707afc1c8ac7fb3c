"""Hand-rolled oracles for the test suite.

These duplicate, through deliberately different code (selection sort,
statistics.pstdev, straight-line control flow), the decision procedure the
production policy module implements. They must stay independent of the
package internals they check. ``read_trace_per_line`` is the text-trace parser
as it was before batch decoding, against which ``read_trace`` is checked.
"""

import statistics

from nvwear import TraceEvent, TraceFormatError
from nvwear.workload import MAX_ADDRESS


def sort_colors(counts, descending):
    """Selection sort of color ids by count; earlier (smaller) id wins ties."""
    remaining = list(range(len(counts)))
    ordered = []
    while remaining:
        best = remaining[0]
        for c in remaining[1:]:
            if descending:
                if counts[c] > counts[best]:
                    best = c
            elif counts[c] < counts[best]:
                best = c
        remaining.remove(best)
        ordered.append(best)
    return ordered


def plan_remap_oracle(last_interval, cumulative, beta, swap_limit, mode):
    """Returns (ran, swaps, sdw, n_higher) for one decision."""
    n = len(last_interval)
    sdw = statistics.pstdev(last_interval)
    avg = sum(last_interval) / n
    n_higher = 0
    for v in last_interval:
        if v > avg:
            n_higher += 1
    if sdw < beta:
        return False, [], sdw, n_higher
    l1 = sort_colors(last_interval, descending=True)
    l2 = sort_colors(cumulative, descending=False)
    if mode == "min":
        n_swap = min(n_higher, swap_limit)
    else:
        n_swap = max(n_higher, swap_limit)
        if n_swap > n // 2:
            n_swap = n // 2
    swaps = []
    for k in range(1, n_swap + 1):
        swaps.append((l1[k - 1], l2[k - 1]))
    return True, swaps, sdw, n_higher


# The text-trace parser as it was before the batch path, one line at a time,
# kept verbatim so the batch parser can be checked against it.
def read_trace_per_line(path):
    """Yield events from a text trace.

    One event per line: ``R|W 0x<hex address> <decimal cumulative icount>``.
    ``#`` lines are comments; blank lines are skipped. Addresses must stay
    within 2^48 and icounts must never decrease. Traces are ASCII; digit
    separators (``_``) and signs are rejected.
    """
    last_icount = 0
    new = tuple.__new__  # as in nvwear.workload.generate
    # latin-1 decodes every byte, so a non-ASCII byte reaches the line check
    # below, which can name its line
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, line in enumerate(fh, start=1):
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
