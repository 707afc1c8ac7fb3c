"""Hand-rolled oracles for the test suite.

These duplicate, through deliberately different code (selection sort,
statistics.pstdev, straight-line control flow), the decision procedure the
production policy module implements. They must stay independent of the
package internals they check. ``reference_run`` transcribes a whole
simulation run on top of the naive ``ReferenceSimulator``.
``read_trace_per_line`` is the text-trace parser as it was before batch
decoding, against which ``read_trace`` is checked.
"""

import statistics

from nvwear import TraceEvent, TraceFormatError
from nvwear.reference import ReferenceSimulator
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


def reference_run(cfg, policy_kind, params, events, count_fills):
    """One whole run, written out straight: the naive cache, cycles summed
    event by event, the paper's trigger, ``plan_remap_oracle`` for swl and the
    xor register stepped longhand.

    ``params`` names every policy setting (beta, swap_limit, k_writes,
    min_gap_cycles, swap_limit_mode); static ignores them. Returns ``(stats,
    decisions, audit, write_counts)``: ``stats`` maps each ``RunStats`` field
    to its value, ``decisions`` holds one ``(interval, cycle, ran, swaps, sdw,
    n_higher, writebacks)`` per policy execution, ``audit`` the ``(interval,
    region, color)`` rows of the initial mapping and of each mapping a remap
    left, and ``write_counts`` each block's final write count, one row of ways
    per set.
    """
    ref = ReferenceSimulator(cfg, count_fills=count_fills)
    n = ref.n_colors
    window = [0] * n     # counted writes per color since the last execution
    lifetime = [0] * n   # counted writes per color over the whole run
    counted = 0          # counted writes since the trigger last looked
    last_execution = 0   # cycle of the last execution
    register = 0         # xor: region r sits in color r ^ register
    cycles = previous_icount = 0
    reads = writes = misses = write_hits = block_writes = remap_runs = 0
    decisions = []
    audit = [(0, region, region) for region in range(n)]
    for is_write, addr, icount in events:
        if icount > previous_icount:
            cycles += icount - previous_icount
        previous_icount = icount
        set_index, _ = ref.locate(addr)
        color = set_index // ref.sets_per_color
        hit, _ = ref.access_addr(addr, is_write)
        if is_write:
            writes += 1
        else:
            reads += 1
        if hit and is_write:
            cycles += ref.write_hit_latency
            write_hits += 1
            programmed = True
        elif hit:
            cycles += ref.read_hit_latency
            programmed = False
        else:
            cycles += ref.miss_latency
            misses += 1
            programmed = is_write or count_fills
        if not programmed:
            continue
        block_writes += 1
        if policy_kind == "static":
            continue
        window[color] += 1
        lifetime[color] += 1
        counted += 1
        if counted < params["k_writes"]:
            continue
        # K writes: look, and start counting to K again whatever happens
        counted = 0
        if cycles - last_execution < params["min_gap_cycles"]:
            continue  # too soon: deferred, and the window keeps growing
        last_execution = cycles
        interval = len(decisions) + 1
        if policy_kind == "swl":
            ran, swaps, sdw, n_higher = plan_remap_oracle(
                window, lifetime, params["beta"], params["swap_limit"],
                params["swap_limit_mode"])
        else:
            sdw = statistics.pstdev(window)
            n_higher = 0
            for v in window:
                if v * n > sum(window):
                    n_higher += 1
            old = register
            register = register + 1
            if register == n:
                register = 1
            # color c holds region c ^ old and must come to hold c ^ register,
            # which color c ^ old ^ register holds now: swap the two
            ran, swaps = True, []
            for c in range(n):
                partner = c ^ old ^ register
                if c < partner:
                    swaps.append((c, partner))
        window = [0] * n
        flushed = 0
        for c1, c2 in swaps:
            flushed += ref.remap(c1, c2)
        if policy_kind == "xor":
            assert ref.color_of == [region ^ register for region in range(n)]
        if ran:
            remap_runs += 1
            if swaps:
                audit.extend((interval, region, color)
                             for region, color in enumerate(ref.color_of))
        decisions.append((interval, cycles, ran, swaps, sdw, n_higher, flushed))
    write_counts = ref.write_count_matrix()
    counts = [v for row in write_counts for v in row]
    stats = {"reads": reads, "writes": writes, "misses": misses, "fills": misses,
             "write_hits": write_hits, "block_write_events": block_writes,
             "writebacks": ref.writebacks, "flush_writebacks": ref.flush_writebacks,
             "cycles": cycles, "instructions": previous_icount,
             "max_block_writes": max(counts),
             "block_write_sd": statistics.pstdev(counts), "remap_runs": remap_runs}
    return stats, decisions, audit, write_counts


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
