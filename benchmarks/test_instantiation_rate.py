"""Section 5.2 — "the number of VMs instantiated per second".

The paper argues in-monitor KASLR's small overhead leaves this metric
essentially untouched, while FGKASLR trades throughput for security.
This bench drives whole serverless invocations (instance production +
function execution on the instance's real layout) and reports the serial
instantiation rate and end-to-end latency per strategy.
"""

from __future__ import annotations

from _common import ENV
from repro.analysis import render_table
from repro.artifacts import direct_cfg
from repro.core import RandomizeMode
from repro.kernel import AWS
from repro.workloads import FUNCTIONS, ServerlessPlatform
from repro.workloads.platform import InstanceStrategy

INVOCATIONS = 12
SPEC = FUNCTIONS["json-transform"]


def _run():
    vmm = ENV.vmm()
    results = {}
    for mode in (RandomizeMode.NONE, RandomizeMode.KASLR, RandomizeMode.FGKASLR):
        platform = ServerlessPlatform(
            vmm,
            lambda seed, m=mode: direct_cfg(AWS, m, scale=ENV.scale, seed=seed),
        )
        for i in range(INVOCATIONS):
            platform.handle(SPEC, seed=600 + i)
        results[f"cold/{mode}"] = platform

    rebase = ServerlessPlatform(
        vmm,
        lambda seed: direct_cfg(
            AWS, RandomizeMode.KASLR, scale=ENV.scale, seed=seed
        ),
        strategy=InstanceStrategy.RESTORE_REBASE,
    )
    rebase.setup()
    for i in range(INVOCATIONS):
        rebase.handle(SPEC, seed=700 + i)
    results["rebase/kaslr"] = rebase
    return results


def test_instantiation_rate(benchmark, record):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    rows = [
        [
            name,
            f"{p.instantiation_rate_per_s():.1f}",
            p.mean_total_ms(),
            p.layout_diversity(),
        ]
        for name, p in results.items()
    ]
    table = render_table(
        ["strategy", "instances/s (serial)", "end-to-end ms", "layouts"],
        rows,
        title=f"VMs instantiated per second — {INVOCATIONS} invocations of "
        f"'{SPEC.name}' on the aws kernel",
    )
    record(
        "instantiation rate",
        table,
        series={
            f"{name}/rate_per_s": p.instantiation_rate_per_s()
            for name, p in results.items()
        },
        units="1/s",
    )

    base = results[f"cold/{RandomizeMode.NONE}"].instantiation_rate_per_s()
    kaslr = results[f"cold/{RandomizeMode.KASLR}"].instantiation_rate_per_s()
    fg = results[f"cold/{RandomizeMode.FGKASLR}"].instantiation_rate_per_s()
    rebase = results["rebase/kaslr"].instantiation_rate_per_s()

    # Section 5.2: "little effect" from in-monitor KASLR...
    assert kaslr > base * 0.92
    # ...but a real throughput trade for FGKASLR
    assert fg < base * 0.6
    # restore+rebase is an order of magnitude above cold boots, with
    # per-instance layouts intact
    assert rebase > 5 * base
    assert results["rebase/kaslr"].layout_diversity() >= INVOCATIONS - 2
