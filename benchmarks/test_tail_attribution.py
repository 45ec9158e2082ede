"""Tail-latency attribution — where each strategy's p99 nanoseconds go.

``BENCH_slo_latency`` reports *how slow* each production strategy's tail
is; this bench reports *why*.  Every request in a traced serve run
carries a causal span tree, the critical-path analyzer collapses it into
an exactly-conserving blocking chain (queue wait, provision — subdivided
across the originating pipeline's stages — and execute), and
``tail_attribution`` aggregates the chains at and above the p99
latency.  The gate tracks, per (strategy, rate) cell, the p99 itself and
the fraction of tail nanoseconds each segment kind absorbs.

The paper story this pins: the cold-boot tail *is* the boot pipeline —
``provision.linux_boot`` dominates on both sides of the saturation
knee, because the blocking chain charges even waiting-for-a-provisioner
time to the provision that eventually served the request; past the knee
that backlog stretches the cold p99 by orders of magnitude.  Restore
strategies never hand a single tail nanosecond to the boot pipeline and
hold invocation-scale tails at every load — which is exactly the budget
the paper's in-monitor rebase design spends on fresh per-instance KASLR
layouts.
"""

from __future__ import annotations

from _common import ENV
from repro.analysis import render_table
from repro.artifacts import direct_cfg
from repro.core import RandomizeMode
from repro.kernel import AWS
from repro.serve import (
    ArrivalSpec,
    AutoscalePolicy,
    SampledBackend,
    ServeConfig,
    ServeEngine,
    StrategySlo,
)
from repro.telemetry.critical_path import request_paths, tail_attribution
from repro.telemetry.tracing import RequestTracer
from repro.workloads import FUNCTIONS, InstanceStrategy, ServerlessPlatform

SPEC = FUNCTIONS["api-echo"]
#: near the cold-boot knee (~69 req/s) and past it — the tail's shape
#: differs qualitatively on either side
RATES = (45.0, 150.0)
DURATION_S = 10.0
SAMPLES = 8
SEED = 11
Q = 99.0

CONFIG = ServeConfig(
    policy=AutoscalePolicy(min_ready=2, max_ready=24, scale_up_depth=2),
    provisioners=4,
    queue_cap=128,
    deadline_ns=10_000_000_000,
)


def _run():
    cells = []
    for strategy in InstanceStrategy:
        vmm = ENV.vmm()
        platform = ServerlessPlatform(
            vmm,
            lambda seed: direct_cfg(
                AWS, RandomizeMode.KASLR, scale=ENV.scale, seed=seed
            ),
            strategy=strategy,
        )
        backend = SampledBackend.from_platform(
            platform, SPEC, n_samples=SAMPLES, seed=SEED
        )
        for rate in RATES:
            tracer = RequestTracer(SEED).scoped(
                f"{strategy.value}@{rate:g}"
            )
            result = ServeEngine(backend, CONFIG, tracer=tracer).run(
                ArrivalSpec(rate_per_s=rate, duration_s=DURATION_S, seed=SEED)
            )
            paths = request_paths(tracer.traces())
            attr = tail_attribution(paths, q=Q)
            slo = StrategySlo.from_result(
                result,
                strategy=strategy.value,
                mix="poisson",
                rate_per_s=rate,
                duration_s=DURATION_S,
            )
            cells.append((slo, attr))
    return cells


def _top_kinds(attr, k: int = 3) -> str:
    ranked = sorted(
        attr.fractions().items(), key=lambda kv: (-kv[1], kv[0])
    )[:k]
    return "  ".join(f"{kind} {frac:.0%}" for kind, frac in ranked)


def test_tail_attribution(benchmark, record):
    cells = benchmark.pedantic(_run, rounds=1, iterations=1)

    rows = []
    series = {}
    by_cell = {}
    for slo, attr in cells:
        assert attr is not None  # every cell serves something
        # exact conservation per tail: fractions tile the tail's time
        fractions = attr.fractions()
        assert abs(sum(fractions.values()) - 1.0) < 1e-4
        cell = f"{slo.strategy}/r{slo.rate_per_s:g}"
        by_cell[(slo.strategy, slo.rate_per_s)] = (slo, attr, fractions)
        series[f"{cell}/p99_ms"] = slo.p99_ms
        for kind, frac in fractions.items():
            series[f"{cell}/frac/{kind}"] = frac
        rows.append(
            [
                slo.strategy,
                f"{slo.rate_per_s:g}",
                attr.requests,
                f"{slo.p99_ms:.3f}",
                _top_kinds(attr),
            ]
        )
    table = render_table(
        ["strategy", "rate/s", "tail reqs", "p99 ms", "top tail segments"],
        rows,
        title=f"p{Q:g} critical-path attribution — '{SPEC.name}', "
        f"{DURATION_S:g}s per cell, pool 2..24, 4 provisioners",
    )
    record("tail attribution", table, series=series, units="fraction")

    def frac(strategy, rate, prefix):
        fractions = by_cell[(strategy, rate)][2]
        return sum(
            f for kind, f in fractions.items() if kind.startswith(prefix)
        )

    # cold-boot tails are the boot pipeline itself on both sides of the
    # knee: waiting for a saturated provisioner is charged to the
    # provision that eventually served the request (the blocking chain),
    # so the backlog stretches the provision segment, not ``queued``
    for rate in RATES:
        assert frac("cold-boot", rate, "provision") > 0.8
        fractions = by_cell[("cold-boot", rate)][2]
        top = max(fractions.items(), key=lambda kv: kv[1])[0]
        assert top == "provision.linux_boot"
    # past the knee the backlog stretches the cold tail by orders of
    # magnitude while restore tails stay at invocation scale
    assert (
        by_cell[("cold-boot", 150.0)][0].p99_ms
        > 10 * by_cell[("cold-boot", 45.0)][0].p99_ms
    )
    # restore strategies never hand the tail to the boot pipeline: any
    # provision time in their tail is restore-scale, far below cold's
    for strategy in ("restore", "restore-rebase"):
        for rate in RATES:
            assert frac(strategy, rate, "provision.linux_boot") == 0.0
            cold_p99 = by_cell[("cold-boot", rate)][0].p99_ms
            assert by_cell[(strategy, rate)][0].p99_ms <= cold_p99
        assert by_cell[(strategy, 150.0)][0].p99_ms < 1.0
