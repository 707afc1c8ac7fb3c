"""Trace-driven simulator of wear-leveling for non-volatile set-associative
caches: a color-granular remapping layer spreads write traffic so no block
wears out far ahead of the rest."""

from .cache import CacheConfig, CacheState, decompose_address
from .coloring import MappingTable
from .engine import Simulator
from .errors import ConfigError, TraceFormatError
from .experiment import (ExperimentConfig, build_config, compare_experiments,
                         run_experiment)
from .metrics import (RunStats, block_write_sd, energy_joules, mpki,
                      relative_lifetime)
from .policy import (PolicyState, StaticPolicy, SwapWearPolicy, XorRemapPolicy,
                     build_policy, stddev_writes)
from .reference import ReferenceSimulator
from .workload import GeneratorSpec, TraceEvent, generate, read_trace, write_trace

__version__ = "0.1.0"

# what callers construct or call; result types (RunResult, Comparison, ...)
# stay reachable from their own modules
__all__ = [
    "CacheConfig", "CacheState", "ConfigError", "ExperimentConfig",
    "GeneratorSpec", "MappingTable", "PolicyState", "ReferenceSimulator",
    "RunStats", "Simulator", "StaticPolicy", "SwapWearPolicy", "TraceEvent",
    "TraceFormatError", "XorRemapPolicy", "block_write_sd", "build_config",
    "build_policy", "compare_experiments", "decompose_address", "energy_joules",
    "generate", "mpki", "read_trace", "relative_lifetime", "run_experiment",
    "stddev_writes", "write_trace",
]
