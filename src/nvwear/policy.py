"""Wear-leveling policies over cache colors.

Three policies share one trigger (every K counted writes, but never more
often than ``min_gap_cycles`` apart):

* ``swl``   - swap-based leveling: colors written hardest in the last window
              trade places with the colors carrying the least lifetime wear.
* ``xor``   - blind periodic remap through an XOR register, whole-cache flush.
* ``static``- identity mapping forever; the baseline.
"""

from dataclasses import dataclass, field

from .errors import ConfigError
from .metrics import population_sd


def default_swap_limit(num_colors):
    """The pair budget when none is configured: a quarter of the colors, >= 1."""
    return max(1, num_colors // 4)


@dataclass
class RemapDecision:
    """One policy execution. The policy passes ``ran`` (False: the imbalance
    gate rejected remapping, no swaps), ``swaps``, ``sdw`` and ``n_higher``; the
    engine sets the rest: the interval index, the cycle and the flush writebacks."""

    ran: bool
    swaps: list = field(default_factory=list)
    sdw: float = 0.0
    n_higher: int = 0
    interval: int = field(default=0, init=False)
    cycle: int = field(default=0, init=False)
    writebacks: int = field(default=0, init=False)


@dataclass(kw_only=True)
class PolicySettings:
    """The five policy settings and their defaults, for the policies and the
    experiment config alike; ``PolicyState`` checks their ranges."""

    beta: float = 75.0
    swap_limit: int | None = None
    k_writes: int = 100_000
    min_gap_cycles: int = 3_000_000
    swap_limit_mode: str = "min"


@dataclass
class PolicyState(PolicySettings):
    """The swl policy: counters and thresholds driving the periodic remap decision.

    Built from the color count and the five settings; the run state below them
    starts empty. ``n_write_global`` accumulates over the whole run;
    ``n_write_last_interval`` restarts at each execution. The engine advances both,
    and ``writes_since_check``, inline as ``observe_write`` would, and calls ``poll``
    only at the K-th counted write. ``swap_limit``, the cap on swapped pairs per
    execution (default: a quarter of the colors), must lie in [1, N/2].
    """

    num_colors: int
    n_write_global: list = field(init=False, repr=False)
    n_write_last_interval: list = field(init=False, repr=False)
    writes_since_check: int = field(default=0, init=False)
    last_run_cycle: int = field(default=0, init=False)
    deferred: bool = field(default=False, init=False)

    def __post_init__(self):
        n = self.num_colors
        if n < 2:
            raise ConfigError("wear-leveling needs at least 2 colors")
        if self.swap_limit is None:
            self.swap_limit = default_swap_limit(n)
        if not 1 <= self.swap_limit <= n // 2:
            raise ConfigError(f"must lie in [1, {n // 2}] for {n} colors, "
                              f"got {self.swap_limit}", "swap_limit")
        if not self.beta >= 0:  # NaN too, which would open the gate every time
            raise ConfigError("must be >= 0", "beta")
        if self.k_writes < 1:
            raise ConfigError("must be >= 1", "k_writes")
        if self.min_gap_cycles < 0:
            raise ConfigError("must be >= 0", "min_gap_cycles")
        if self.swap_limit_mode not in ("min", "max"):
            raise ConfigError(f"must be 'min' or 'max', got {self.swap_limit_mode!r}",
                              "swap_limit_mode")
        self.n_write_global = [0] * n
        self.n_write_last_interval = [0] * n

    def observe_write(self, color):
        """Count one write. True once K writes accumulated, when ``poll`` may
        act; ``poll`` re-checks the trigger."""
        self.n_write_global[color] += 1
        self.n_write_last_interval[color] += 1
        self.writes_since_check += 1
        return self.writes_since_check >= self.k_writes

    note_write = observe_write  # see StaticPolicy

    def check_trigger(self, now_cycle):
        """True when K writes accumulated and the minimum cycle gap has passed.

        Reaching K writes inside the gap defers: the write counter restarts
        and the next chance comes only after another K writes, re-checked
        against the same gap.
        """
        if self.writes_since_check < self.k_writes:
            return False
        self.writes_since_check = 0
        if now_cycle - self.last_run_cycle < self.min_gap_cycles:
            self.deferred = True
            return False
        self.deferred = False
        self.last_run_cycle = now_cycle
        return True

    def poll(self, now_cycle):
        """The plan of this execution once the trigger fires, else None."""
        return self.plan_remap() if self.check_trigger(now_cycle) else None

    def close_window(self):
        """End the current write window and start an empty one in its list.

        Returns a copy of the closed window's per-color counts, their population
        SD (sdw) and how many colors were written above the window's mean.
        """
        last = self.n_write_last_interval[:]
        self.n_write_last_interval[:] = [0] * self.num_colors
        avg = sum(last) / self.num_colors
        return last, population_sd((last,)), sum(1 for v in last if v > avg)

    def plan_remap(self) -> RemapDecision:
        """Decide which color pairs to swap for this interval.

        Skips entirely when the spread (population SD) of last-interval write
        counts is below ``beta``. Otherwise pairs the colors with the highest
        recent write counts against the colors with the lowest lifetime write
        counts, up to the configured pair budget: ``min`` mode caps at
        min(n_higher, swap_limit); ``max`` mode takes max(n_higher, swap_limit)
        but never more than N/2 pairs. Ties sort by ascending color index.
        The interval window restarts afterwards either way; lifetime counters
        are never reset.
        """
        n = self.num_colors
        last, sdw, n_higher = self.close_window()
        if sdw < self.beta:
            return RemapDecision(ran=False, sdw=sdw, n_higher=n_higher)
        cum = self.n_write_global
        l1 = sorted(range(n), key=lambda c: (-last[c], c))
        l2 = sorted(range(n), key=lambda c: (cum[c], c))
        if self.swap_limit_mode == "min":
            n_swap = min(n_higher, self.swap_limit)
        else:
            n_swap = min(max(n_higher, self.swap_limit), n // 2)
        return RemapDecision(ran=True, swaps=list(zip(l1[:n_swap], l2[:n_swap])),
                             sdw=sdw, n_higher=n_higher)


class StaticPolicy:
    """Baseline: identity mapping forever, no remaps, no flushes."""

    # no write window, so the engine never counts writes for it or polls it
    n_write_last_interval = None

    # The engine never calls note_write, nor this poll; each policy class keeps
    # both only because perfbench/tracer.py wraps them in the class's namespace.
    def note_write(self, color):
        """Returns None: there is nothing to poll."""

    def poll(self, now_cycle):
        return None


SwapWearPolicy = PolicyState  # swl: periodic pairwise swapping of hot colors


class XorRemapPolicy(PolicyState):
    """Blind periodic remap: XOR a register into every region index.

    Each execution advances the register through 1..N-1 (never 0, which would
    be the identity) and rewrites the whole mapping, so every color is
    flushed. Expressed as N/2 disjoint color swaps so the flush accounting
    matches the mapping-table path.
    """

    note_write, poll = PolicyState.observe_write, PolicyState.poll  # see StaticPolicy

    def __post_init__(self):
        super().__post_init__()
        n = self.num_colors
        if n & (n - 1):
            raise ConfigError("xor remap needs a power-of-two color count")
        self.register = 0

    def plan_remap(self):
        """Step the register and swap every color with its XOR partner; no gate."""
        n = self.num_colors
        _, sdw, n_higher = self.close_window()
        new_register = self.register % (n - 1) + 1
        delta = self.register ^ new_register
        self.register = new_register
        swaps = [(c, c ^ delta) for c in range(n) if c < c ^ delta]
        return RemapDecision(ran=True, swaps=swaps, sdw=sdw, n_higher=n_higher)


POLICY_KINDS = ("swl", "static", "xor")


def build_policy(kind, num_colors, **params):
    """``params`` are ``PolicySettings`` fields (beta, k_writes, ...); static ignores them."""
    if kind == "static":
        return StaticPolicy()
    if kind not in POLICY_KINDS:
        raise ConfigError(f"{kind!r} is not one of {POLICY_KINDS}", "policy_kind")
    return (XorRemapPolicy if kind == "xor" else PolicyState)(num_colors, **params)
