"""Serverless function workloads over booted microVMs.

Section 5.2 argues boot-time overhead matters because it bounds "critical
performance metrics such as the number of VMs instantiated per second".
This package makes that end-to-end: function workloads are composed of
LEBench syscall mixes plus user time, executed against a VM's *actual*
randomized layout (so FGKASLR's i-cache cost surfaces in invocation
latency), and :class:`~repro.workloads.platform.ServerlessPlatform`
drives cold-boot or zygote strategies through whole invocations.  It is
the only producer of zygote instances: one shared zygote, a Morula-style
pool (``zygotes=N``), or rebase-on-restore (Section 7).
"""

from repro.workloads.functions import FUNCTIONS, FunctionSpec, invoke_ns
from repro.workloads.platform import (
    InstanceStrategy,
    InvocationRecord,
    ProducedInstance,
    ServerlessPlatform,
)

__all__ = [
    "FUNCTIONS",
    "FunctionSpec",
    "InstanceStrategy",
    "InvocationRecord",
    "ProducedInstance",
    "ServerlessPlatform",
    "invoke_ns",
]
