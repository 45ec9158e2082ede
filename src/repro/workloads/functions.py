"""Serverless function models: syscall mixes over LEBench paths.

Each function is a bag of (LEBench test, call count) pairs plus pure user
time.  Kernel time per call comes from the LEBench runner evaluated
against the booted VM's *final* layout, so the same function invocation
is measurably slower on an FGKASLR guest — the Figure 11 effect carried
through to application latency.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.layout_result import LayoutResult
from repro.kernel.image import KernelImage
from repro.lebench.runner import run_lebench
from repro.lebench.workloads import LEBENCH_TESTS


@dataclass(frozen=True)
class FunctionSpec:
    """One serverless function's execution profile."""

    name: str
    #: (LEBench test name, number of calls per invocation)
    syscall_mix: tuple[tuple[str, int], ...]
    #: pure user-mode compute per invocation (ns)
    user_ns: float

    def kernel_call_count(self) -> int:
        return sum(count for _name, count in self.syscall_mix)

    def invoke_ns(self, per_test_ns: dict[str, float]) -> float:
        """Simulated time for one invocation, given :func:`lebench_ns`."""
        kernel_ns = sum(
            per_test_ns[name] * count for name, count in self.syscall_mix
        )
        return kernel_ns + self.user_ns


#: a small catalog spanning the usual serverless shapes
FUNCTIONS: dict[str, FunctionSpec] = {
    spec.name: spec
    for spec in [
        FunctionSpec(
            "api-echo",
            (("recv", 2), ("send", 2), ("epoll", 4), ("small read", 2)),
            user_ns=120_000,
        ),
        FunctionSpec(
            "json-transform",
            (("recv", 1), ("send", 1), ("small read", 8), ("small write", 8),
             ("small mmap", 2), ("small munmap", 2)),
            user_ns=900_000,
        ),
        FunctionSpec(
            "thumbnail",
            (("big read", 6), ("big write", 4), ("big mmap", 4),
             ("big page fault", 12), ("big munmap", 4)),
            user_ns=6_500_000,
        ),
        FunctionSpec(
            "log-filter",
            (("big read", 10), ("small write", 20), ("poll", 6)),
            user_ns=1_400_000,
        ),
        FunctionSpec(
            "kv-cache",
            (("recv", 4), ("send", 4), ("small read", 4), ("small write", 2),
             ("context switch", 6)),
            user_ns=300_000,
        ),
        FunctionSpec(
            "fanout-worker",
            (("fork", 1), ("thread create", 4), ("context switch", 16),
             ("send", 8), ("recv", 8)),
            user_ns=2_000_000,
        ),
    ]
}

_VALID_TESTS = {t.name for t in LEBENCH_TESTS}
for _spec in FUNCTIONS.values():
    for _test, _count in _spec.syscall_mix:
        assert _test in _VALID_TESTS, f"{_spec.name} uses unknown test {_test}"

def lebench_ns(kernel: KernelImage, layout: LayoutResult) -> dict[str, float]:
    """Per-test LEBench ns per call on this layout: one suite run."""
    return {r.name: r.ns_per_iter for r in run_lebench(kernel, layout).results}


def invoke_ns(
    kernel: KernelImage, layout: LayoutResult, spec: FunctionSpec
) -> float:
    """Simulated time for one invocation of ``spec`` on this layout."""
    return spec.invoke_ns(lebench_ns(kernel, layout))
