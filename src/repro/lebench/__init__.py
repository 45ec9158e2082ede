"""LEBench: post-boot kernel microbenchmarks (Figure 11).

Section 5.4 measures whether randomization costs anything *after* boot.
Base KASLR should be noise (<1%): a 2 MiB-aligned shift preserves every
cache-set and TLB-page relationship.  FGKASLR costs ~7% on average because
scattering functions breaks the instruction-locality the linker built —
the mechanism this package actually simulates, with an L1i cache and
large-page ITLB walked over each workload's hot functions at their *final*
(post-shuffle) addresses.
"""

from repro.lebench.cache import ICache, Itlb
from repro.lebench.runner import (
    LeBenchResult,
    TestResult,
    alias_period,
    layout_key,
    run_lebench,
)
from repro.lebench.workloads import LEBENCH_TESTS, LeBenchTest

__all__ = [
    "ICache",
    "Itlb",
    "LEBENCH_TESTS",
    "LeBenchResult",
    "LeBenchTest",
    "TestResult",
    "alias_period",
    "layout_key",
    "run_lebench",
]
