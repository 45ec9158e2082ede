"""Serving under load — end-to-end SLO latency per production strategy.

The paper's Section 5.2/6 numbers (boot cost, instantiation rate) are
producer-side; this bench reports what a *tenant* sees: end-to-end
request latency (queue wait + any cold production + invocation) and the
cold-start fraction, per strategy, at offered loads below, near, and
past the cold-boot saturation knee (~69 req/s at the default scale with
4 provisioners: one cold boot is ~58 ms).

The gate tracks p50/p99 and cold fraction per (strategy, rate) cell.
Restore-based strategies must hold millisecond-scale tails at loads
where cold boots queue toward their deadline — the serverless case for
the paper's in-monitor rebase design.
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
from repro.workloads import FUNCTIONS, InstanceStrategy, ServerlessPlatform

SPEC = FUNCTIONS["api-echo"]
RATES = (15.0, 45.0, 150.0)
DURATION_S = 10.0
SAMPLES = 8
SEED = 11

CONFIG = ServeConfig(
    policy=AutoscalePolicy(min_ready=2, max_ready=24, scale_up_depth=2),
    provisioners=4,
    queue_cap=128,
    deadline_ns=10_000_000_000,
)


def _run() -> list[StrategySlo]:
    rows = []
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
            result = ServeEngine(backend, CONFIG).run(
                ArrivalSpec(rate_per_s=rate, duration_s=DURATION_S, seed=SEED)
            )
            rows.append(
                StrategySlo.from_result(
                    result,
                    strategy=strategy.value,
                    mix="poisson",
                    rate_per_s=rate,
                    duration_s=DURATION_S,
                )
            )
    return rows


def test_slo_latency(benchmark, record):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    table = render_table(
        ["strategy", "rate/s", "served", "failed", "cold frac",
         "p50 ms", "p99 ms"],
        [
            [
                r.strategy,
                f"{r.rate_per_s:g}",
                r.served,
                r.rejected + r.deadline_missed,
                f"{r.cold_frac:.3f}",
                f"{r.p50_ms:.3f}",
                f"{r.p99_ms:.3f}",
            ]
            for r in rows
        ],
        title=f"end-to-end SLO under poisson arrivals — '{SPEC.name}', "
        f"{DURATION_S:g}s per cell, pool 2..24, 4 provisioners",
    )
    series = {}
    for r in rows:
        cell = f"{r.strategy}/r{r.rate_per_s:g}"
        series[f"{cell}/p50_ms"] = r.p50_ms
        series[f"{cell}/p99_ms"] = r.p99_ms
        series[f"{cell}/cold_frac"] = r.cold_frac
    record("slo latency", table, series=series, units="ms")

    by_cell = {(r.strategy, r.rate_per_s): r for r in rows}
    for rate in RATES:
        cold = by_cell[("cold-boot", rate)]
        restore = by_cell[("restore", rate)]
        rebase = by_cell[("restore-rebase", rate)]
        # every strategy balances its books at every load
        for r in (cold, restore, rebase):
            assert r.served + r.rejected + r.deadline_missed == r.arrivals
        # warm pools keep tails below cold-boot's at the same offered load
        assert restore.p99_ms <= cold.p99_ms
        assert rebase.p99_ms <= cold.p99_ms
    # past the knee the gap is qualitative: cold boots queue toward the
    # deadline while restore strategies stay at invocation scale
    assert by_cell[("cold-boot", 150.0)].p99_ms > 10 * by_cell[
        ("restore", 150.0)
    ].p99_ms
    # rebase buys fresh per-instance layouts without losing the warm tail
    assert by_cell[("restore-rebase", 150.0)].cold_frac < 0.5
