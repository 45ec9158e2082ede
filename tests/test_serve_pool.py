"""Invariant tests for warm-pool accounting and the serve engine.

The control plane's books must balance under *any* traffic: no instance
leased twice, pool occupancy bounded by the autoscale policy, and every
admitted request either served or reported failed.  Hypothesis drives
randomized backends, policies, and arrival streams through the real
engine; the strict :class:`~repro.monitor.leases.LeaseRegistry` turns
any accounting violation into a raise, so "the run completes" is itself
the strongest assertion here.  A second block pins the typed errors the
registry and pool must raise on illegal transitions, and the tail tests
exercise the degraded/failed production paths against a real platform
under an injected fault plan.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import RandomizeMode
from repro.errors import MonitorError
from repro.monitor import LeaseRegistry, VmConfig
from repro.faults import FaultPlan
from repro.serve import (
    ArrivalSpec,
    AutoscalePolicy,
    ProductionSample,
    SampledBackend,
    ServeConfig,
    ServeEngine,
    WarmPool,
)
from repro.workloads import FUNCTIONS, InstanceStrategy, ServerlessPlatform

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _sample(startup_ms=2.0, invoke_ms=0.5, offset=0, degraded=False, failed=False):
    return ProductionSample(
        startup_ns=int(startup_ms * 1e6),
        invoke_ns=int(invoke_ms * 1e6),
        layout_offset=offset,
        degraded=degraded,
        failed=failed,
    )


samples_strategy = st.lists(
    st.builds(
        _sample,
        startup_ms=st.floats(min_value=0.1, max_value=50.0),
        invoke_ms=st.floats(min_value=0.05, max_value=20.0),
        offset=st.integers(min_value=0, max_value=2**20),
        degraded=st.booleans(),
        failed=st.booleans(),
    ),
    min_size=1,
    max_size=12,
).filter(lambda ss: any(not s.failed for s in ss))

policy_strategy = st.builds(
    AutoscalePolicy,
    min_ready=st.integers(min_value=0, max_value=4),
    max_ready=st.integers(min_value=4, max_value=32),
    scale_up_depth=st.integers(min_value=1, max_value=8),
    idle_ns=st.integers(min_value=10_000_000, max_value=5_000_000_000),
)


@SETTINGS
@given(
    samples=samples_strategy,
    policy=policy_strategy,
    rate=st.floats(min_value=10.0, max_value=300.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    provisioners=st.integers(min_value=1, max_value=8),
    queue_cap=st.integers(min_value=1, max_value=64),
)
def test_engine_invariants_under_randomized_traffic(
    samples, policy, rate, seed, provisioners, queue_cap
):
    backend = SampledBackend(samples=tuple(samples))
    engine = ServeEngine(
        backend,
        ServeConfig(
            policy=policy,
            provisioners=provisioners,
            queue_cap=queue_cap,
            deadline_ns=2_000_000_000,
        ),
    )
    result = engine.run(ArrivalSpec(rate, 3.0, seed=seed))
    # conservation: every arrival served, rejected, or deadline-failed
    assert result.served + result.rejected + result.deadline_missed == result.arrivals
    assert len(result.latencies_ns) == result.served
    assert all(lat >= 0 for lat in result.latencies_ns)
    # occupancy bounded by policy: the pool never exceeds its ceiling
    assert result.pool.peak_ready <= policy.max_ready
    assert result.pool.peak_target <= policy.max_ready
    # post-run audit already passed inside run() (drain would have raised);
    # the books must also be self-consistent
    assert result.pool.leases_granted == result.served
    assert result.cold_starts <= result.served
    assert result.degraded_serves <= result.served


@SETTINGS
@given(
    samples=samples_strategy,
    rate=st.floats(min_value=20.0, max_value=200.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_engine_is_deterministic(samples, rate, seed):
    def run():
        backend = SampledBackend(samples=tuple(samples))
        engine = ServeEngine(backend, ServeConfig())
        return engine.run(ArrivalSpec(rate, 2.0, seed=seed))

    assert run() == run()


def test_all_failed_backend_trips_breaker_and_terminates():
    backend = SampledBackend(samples=(_sample(failed=True),))
    engine = ServeEngine(
        backend,
        ServeConfig(
            policy=AutoscalePolicy(min_ready=2, max_ready=8),
            deadline_ns=500_000_000,
            max_provision_failures=5,
        ),
    )
    result = engine.run(ArrivalSpec(50.0, 2.0, seed=1))
    assert result.breaker_tripped
    assert result.served == 0
    assert result.deadline_missed + result.rejected == result.arrivals


def test_idle_pool_scales_down_to_floor():
    # a short burst, then silence much longer than the idle window:
    # everything provisioned above the floor must be retired as idle
    backend = SampledBackend(samples=(_sample(startup_ms=1.0, invoke_ms=0.2),))
    policy = AutoscalePolicy(
        min_ready=1, max_ready=16, scale_up_depth=1, idle_ns=100_000_000
    )
    engine = ServeEngine(backend, ServeConfig(policy=policy))
    result = engine.run(
        ArrivalSpec(400.0, 0.25, seed=3, mix="bursty", burst_period_s=0.25)
    )
    assert result.pool.retired_idle > 0


def test_slow_provisioning_misses_deadlines():
    backend = SampledBackend(samples=(_sample(startup_ms=500.0),))
    engine = ServeEngine(
        backend,
        ServeConfig(
            policy=AutoscalePolicy(min_ready=0, max_ready=2),
            deadline_ns=50_000_000,  # 50 ms deadline vs 500 ms provisioning
        ),
    )
    result = engine.run(ArrivalSpec(100.0, 1.0, seed=4))
    assert result.deadline_missed > 0
    assert result.served + result.failed == result.arrivals


# -- typed transition errors ---------------------------------------------------


@pytest.mark.parametrize("field", ["startup_ns", "invoke_ns"])
def test_sample_rejects_negative_durations(field):
    # a negative invocation once replayed as requests served before they
    # arrived (20 of 22 latencies negative at 20 req/s for 1 s), and
    # ServeResult.check() passed it
    with pytest.raises(MonitorError, match="non-negative"):
        ProductionSample(
            **{"startup_ns": 2_000_000, "invoke_ns": 1_000_000, field: -1_000_000},
            layout_offset=0,
        )
    assert ProductionSample(startup_ns=0, invoke_ns=0, layout_offset=0)


def test_registry_rejects_double_lease():
    reg = LeaseRegistry()
    reg.register(1)
    reg.lease(1, now_ns=0)
    with pytest.raises(MonitorError, match="already leased"):
        reg.lease(1, now_ns=5)


def test_registry_rejects_unknown_and_retired():
    reg = LeaseRegistry()
    with pytest.raises(MonitorError, match="unknown"):
        reg.lease(9, now_ns=0)
    reg.register(2)
    reg.retire(2)
    with pytest.raises(MonitorError, match="retired"):
        reg.lease(2, now_ns=0)


def test_registry_audit_flags_leaks():
    reg = LeaseRegistry()
    reg.register(1)
    reg.lease(1, now_ns=0)
    with pytest.raises(MonitorError, match="still active"):
        reg.audit_drained()
    reg.release(1)
    with pytest.raises(MonitorError, match="never retired"):
        reg.audit_drained()
    reg.retire(1)
    reg.audit_drained()


def test_pool_bounds_provisioning_at_max():
    pool = WarmPool(policy=AutoscalePolicy(min_ready=0, max_ready=2))
    pool.begin_provision()
    pool.begin_provision()
    with pytest.raises(MonitorError, match="over capacity"):
        pool.begin_provision()


def test_pool_acquire_empty_returns_none():
    pool = WarmPool(policy=AutoscalePolicy())
    assert pool.acquire(now_ns=0) is None


# -- real platform under an injected fault plan --------------------------------


def _platform(fc, kernel, strategy, plan=None):
    if plan is not None:
        fc.fault_plan = plan
    return ServerlessPlatform(
        fc,
        lambda seed: VmConfig(kernel=kernel, randomize=RandomizeMode.KASLR, seed=seed),
        strategy=strategy,
    )


def test_faulty_restores_degrade_but_requests_all_resolve(fc, tiny_kaslr):
    plan = FaultPlan.parse(
        ["stage=snapshot_restore,kind=stage-timeout,rate=0.6"], seed=5
    )
    platform = _platform(fc, tiny_kaslr, InstanceStrategy.RESTORE, plan)
    backend = SampledBackend.from_platform(
        platform, FUNCTIONS["api-echo"], n_samples=10, seed=8
    )
    assert any(s.degraded for s in backend.samples)
    assert backend.viable
    result = ServeEngine(backend, ServeConfig()).run(
        ArrivalSpec(60.0, 2.0, seed=9)
    )
    assert result.degraded_serves > 0
    assert result.served + result.failed == result.arrivals


def test_fully_poisoned_cold_backend_is_not_viable(fc, tiny_kaslr):
    plan = FaultPlan.parse(["stage=linux_boot,kind=reloc-fail"], seed=0)
    platform = _platform(fc, tiny_kaslr, InstanceStrategy.COLD_BOOT, plan)
    backend = SampledBackend.from_platform(
        platform, FUNCTIONS["api-echo"], n_samples=4, seed=2
    )
    assert not backend.viable
    assert backend.failure_fraction == 1.0
