"""LEBench runner over a booted (randomized) kernel layout.

For each test the runner walks the hot function path at the functions'
*final* virtual addresses — so a base-KASLR layout (uniform 2 MiB-aligned
shift) produces byte-identical cache/TLB behaviour to nokaslr, while an
FGKASLR layout scatters the path across the whole text region and pays
i-cache and large-page-ITLB misses every iteration.  Per-iteration time is
``base + icache_misses*miss_ns + itlb_misses*walk_ns``, measured at steady
state.

Both cache models alias: the i-cache picks a set by ``line % n_sets`` and
the ITLB compares ``vaddr // page_bytes``, so shifting a whole layout by
a multiple of both periods changes no hit or miss.  :func:`layout_key`
names that equivalence class; every KASLR offset is a multiple of 2 MiB,
so all base-KASLR layouts of one kernel share a key (the Figure 11
"base KASLR is performance-neutral" property).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.layout_result import LayoutResult
from repro.kernel.image import KernelImage
from repro.lebench.cache import ICache, Itlb
from repro.lebench.workloads import LEBENCH_TESTS, LeBenchTest

#: L1i miss service time (L2 hit) and 2 MiB-page walk cost, ns
L1I_MISS_NS = 3.6
ITLB_WALK_NS = 24.0
_WARM_ITERS = 4
_MEASURE_ITERS = 4


@dataclass(frozen=True)
class TestResult:
    name: str
    ns_per_iter: float
    icache_misses: float
    itlb_misses: float


@dataclass
class LeBenchResult:
    """All test timings for one kernel layout."""

    kernel_name: str
    results: list[TestResult] = field(default_factory=list)

    def by_name(self) -> dict[str, TestResult]:
        return {r.name: r for r in self.results}

    def normalized_to(self, baseline: "LeBenchResult") -> dict[str, float]:
        """Per-test slowdown vs a baseline run (1.0 = identical)."""
        base = baseline.by_name()
        return {
            r.name: r.ns_per_iter / base[r.name].ns_per_iter for r in self.results
        }

    def mean_normalized(self, baseline: "LeBenchResult") -> float:
        ratios = self.normalized_to(baseline)
        return sum(ratios.values()) / len(ratios)


def _caches(kernel: KernelImage) -> tuple[ICache, Itlb]:
    """Fresh i-cache and ITLB models for a run against ``kernel``."""
    # The build is 1/scale of a paper-size kernel, so the ITLB page size is
    # scaled down with it to preserve the pages-touched geometry.
    itlb = Itlb(page_bytes=max(4096, (2 * 1024 * 1024) // kernel.scale))
    return ICache(), itlb


def alias_period(kernel: KernelImage) -> int:
    """Bytes a whole layout can shift by without changing any result.

    A shift by a multiple of both cache periods maps every i-cache set
    and ITLB page onto another one uniformly, so it keeps every hit and
    miss.  The periods come from the geometry :func:`_run_test` builds,
    so a geometry change cannot silently break :func:`layout_key`.
    """
    icache, itlb = _caches(kernel)
    return math.lcm(icache.line_bytes * icache.n_sets, itlb.page_bytes)


def layout_key(kernel: KernelImage, layout: LayoutResult) -> tuple:
    """Equal keys guarantee equal :func:`run_lebench` results on ``kernel``.

    The runner sees a layout only through ``final_vaddr``: the move map
    and the offset, which matters only modulo :func:`alias_period`.
    """
    return (layout.voffset % alias_period(kernel), tuple(layout.moved))


def _run_test(
    test: LeBenchTest, kernel: KernelImage, layout: LayoutResult
) -> TestResult:
    functions = kernel.manifest.functions
    start = test.hot_set_start(len(functions))
    hot = functions[start : start + test.hot_functions]
    icache, itlb = _caches(kernel)
    # Warm up to steady state, then measure.
    for _ in range(_WARM_ITERS):
        _walk(test, hot, layout, icache, itlb)
    icache.hits = icache.misses = 0
    itlb.hits = itlb.misses = 0
    for _ in range(_MEASURE_ITERS):
        _walk(test, hot, layout, icache, itlb)
    ic = icache.misses / _MEASURE_ITERS
    it = itlb.misses / _MEASURE_ITERS
    ns = test.base_ns + ic * L1I_MISS_NS + it * ITLB_WALK_NS
    return TestResult(
        name=test.name, ns_per_iter=ns, icache_misses=ic, itlb_misses=it
    )


def _walk(test, hot, layout, icache, itlb) -> None:
    for func in hot:
        vaddr = layout.final_vaddr(func.link_vaddr)
        itlb.access(vaddr)
        nbytes = min(func.size, test.bytes_per_function)
        icache.access_range(vaddr, nbytes)


def run_lebench(
    kernel: KernelImage,
    layout: LayoutResult,
    tests: list[LeBenchTest] | None = None,
) -> LeBenchResult:
    """Run the suite against one booted layout."""
    suite = tests if tests is not None else LEBENCH_TESTS
    result = LeBenchResult(kernel_name=kernel.name)
    for test in suite:
        result.results.append(_run_test(test, kernel, layout))
    return result
