"""Serverless workloads and the per-invocation platform."""

import pytest

from repro.core import LayoutResult, RandomizeMode
from repro.errors import MonitorError
from repro.monitor import VmConfig
from repro.workloads import FUNCTIONS, ServerlessPlatform, invoke_ns
from repro.workloads.platform import InstanceStrategy

from helpers import randomize_into_memory


def test_catalog_shapes():
    assert len(FUNCTIONS) >= 5
    for spec in FUNCTIONS.values():
        assert spec.kernel_call_count() > 0
        assert spec.user_ns > 0


def test_invoke_ns_positive_and_deterministic(tiny_nokaslr):
    layout = LayoutResult().finalize()
    spec = FUNCTIONS["api-echo"]
    a = invoke_ns(tiny_nokaslr, layout, spec)
    b = invoke_ns(tiny_nokaslr, layout, spec)
    assert a == b > spec.user_ns


def test_fgkaslr_layout_slows_invocations():
    """The Figure 11 effect must surface in application latency."""
    from repro.artifacts import get_kernel
    from repro.kernel import AWS, KernelVariant

    nok = get_kernel(AWS, KernelVariant.NOKASLR, scale=64)
    fg = get_kernel(AWS, KernelVariant.FGKASLR, scale=64)
    base_layout = LayoutResult().finalize()
    fg_layout, *_ = randomize_into_memory(fg, RandomizeMode.FGKASLR, seed=2)
    slower = 0
    for spec in FUNCTIONS.values():
        if invoke_ns(fg, fg_layout, spec) > invoke_ns(nok, base_layout, spec):
            slower += 1
    assert slower >= len(FUNCTIONS) // 2


def _factory(kernel):
    def make(seed):
        return VmConfig(kernel=kernel, randomize=RandomizeMode.KASLR, seed=seed)

    return make


def test_cold_boot_platform(fc, tiny_kaslr):
    platform = ServerlessPlatform(fc, _factory(tiny_kaslr))
    for i, spec in enumerate(list(FUNCTIONS.values())[:3]):
        record = platform.handle(spec, seed=100 + i)
        assert record.total_ms > record.invoke_ms > 0
    assert platform.layout_diversity() == 3
    assert platform.instantiation_rate_per_s() > 0


def test_restore_platform_much_faster_but_uniform(fc, tiny_kaslr):
    cold = ServerlessPlatform(fc, _factory(tiny_kaslr))
    restore = ServerlessPlatform(
        fc, _factory(tiny_kaslr), strategy=InstanceStrategy.RESTORE
    )
    restore.setup()
    spec = FUNCTIONS["api-echo"]
    for i in range(4):
        cold.handle(spec, seed=i)
        restore.handle(spec, seed=i)
    assert restore.instantiation_rate_per_s() > 3 * cold.instantiation_rate_per_s()
    assert restore.layout_diversity() == 1  # ASLR nullified
    assert cold.layout_diversity() == 4


def test_rebase_platform_keeps_rate_and_diversity(fc, tiny_kaslr):
    rebase = ServerlessPlatform(
        fc, _factory(tiny_kaslr), strategy=InstanceStrategy.RESTORE_REBASE
    )
    rebase.setup()
    spec = FUNCTIONS["kv-cache"]
    for i in range(6):
        rebase.handle(spec, seed=i)
    assert rebase.layout_diversity() >= 4
    cold = ServerlessPlatform(fc, _factory(tiny_kaslr))
    for i in range(3):
        cold.handle(spec, seed=i)
    assert rebase.instantiation_rate_per_s() > cold.instantiation_rate_per_s()


def test_platform_guards(fc, tiny_kaslr):
    platform = ServerlessPlatform(
        fc, _factory(tiny_kaslr), strategy=InstanceStrategy.RESTORE
    )
    with pytest.raises(MonitorError, match="setup"):
        platform.handle(FUNCTIONS["api-echo"], seed=1)
    cold = ServerlessPlatform(fc, _factory(tiny_kaslr))
    with pytest.raises(MonitorError, match="no invocations"):
        cold.instantiation_rate_per_s()


def test_empty_records_contract_is_uniform(fc, tiny_kaslr):
    """All three platform metrics refuse an empty record set alike.

    ``layout_diversity`` used to return 0 while its siblings raised —
    "zero diversity" is a security alarm, "no data" is not, and a metric
    that conflates them poisons any regression gate built on it.
    """
    platform = ServerlessPlatform(fc, _factory(tiny_kaslr))
    for metric in (
        platform.instantiation_rate_per_s,
        platform.mean_total_ms,
        platform.layout_diversity,
    ):
        with pytest.raises(MonitorError, match="no invocations"):
            metric()
    # one handled invocation unlocks all three
    platform.handle(FUNCTIONS["api-echo"], seed=5)
    assert platform.layout_diversity() == 1
    assert platform.instantiation_rate_per_s() > 0
    assert platform.mean_total_ms() > 0


def test_produce_degrades_warm_failures_to_cold(fc, tiny_kaslr):
    """A poisoned restore stage falls back to a cold boot, visibly."""
    from repro.faults import FaultPlan

    fc.fault_plan = FaultPlan.parse(
        ["stage=snapshot_restore,kind=stage-timeout,rate=0.7"], seed=2
    )
    platform = ServerlessPlatform(
        fc, _factory(tiny_kaslr), strategy=InstanceStrategy.RESTORE
    )
    platform.setup()
    produced = [platform.produce(100 + i, boot_index=i) for i in range(10)]
    degraded = [p for p in produced if p.degraded]
    warm = [p for p in produced if not p.degraded]
    assert degraded and warm
    assert platform.degraded_count == len(degraded)
    # the fallback charges a full cold boot: visibly slower than a restore
    assert min(p.startup_ms for p in degraded) > max(p.startup_ms for p in warm)


@pytest.mark.parametrize(
    "stage, startup_ms, first_stage",
    [
        # the CoW restore ran (2.5045 ms) before the rebase fault fired
        ("rebase", 12.532116, "snapshot_restore"),
        # the fault fired before the restore charged anything
        ("snapshot_restore", 10.027616, "monitor_startup"),
    ],
)
def test_degraded_production_pays_for_its_aborted_restore(
    fc, tiny_kaslr, stage, startup_ms, first_stage
):
    """A degraded startup is the aborted restore, then the cold boot."""
    from repro.faults import FaultPlan
    from repro.serve.backend import SampledBackend
    from repro.telemetry.tracing import RequestTracer

    fc.fault_plan = FaultPlan.parse([f"stage={stage},kind=stage-timeout,rate=1.0"])
    platform = ServerlessPlatform(
        fc, _factory(tiny_kaslr), strategy=InstanceStrategy.RESTORE_REBASE
    )
    platform.setup()
    produced = platform.produce(9)
    assert produced.degraded
    assert produced.startup_ms == startup_ms
    spans = produced.spans
    cold = produced.vm.clock.timeline.spans
    assert spans[0].name == first_stage
    assert [s.name for s in spans[len(spans) - len(cold):]] == [s.name for s in cold]
    # the spans tile the whole startup, the cold boot's shifted after the restore's
    assert spans[0].start_ns == 0
    assert all(a.end_ns == b.start_ns for a, b in zip(spans, spans[1:]))
    assert spans[-1].end_ns == round(startup_ms * 1e6)

    tracer = RequestTracer(seed=1)
    sample = SampledBackend.from_platform(
        platform, FUNCTIONS["api-echo"], n_samples=1, tracer=tracer
    ).samples[0]
    assert sample.degraded
    assert sample.stage_ns[0][0] == first_stage
    assert sum(ns for _, ns in sample.stage_ns) == sample.startup_ns
    (trace,) = tracer.traces()
    root, *stage_spans = trace.spans()
    assert (root.start_ns, root.end_ns) == (0, sample.startup_ns)
    assert [(s.name, s.duration_ns) for s in stage_spans] == list(sample.stage_ns)
    assert all(a.end_ns == b.start_ns for a, b in zip(stage_spans, stage_spans[1:]))


def test_morula_pool_restores_round_robin(fc, tiny_kaslr):
    """Three zygotes: productions ``i`` and ``i + 3`` share a layout."""
    platform = ServerlessPlatform(
        fc, _factory(tiny_kaslr), strategy=InstanceStrategy.RESTORE, zygotes=3
    )
    platform.setup()
    offsets = [
        platform.produce(100 + i, boot_index=i).layout_offset for i in range(9)
    ]
    assert len(set(offsets[:3])) == 3
    assert offsets[3:] == offsets[:-3]
    assert platform.degraded_count == 0


def test_morula_pool_draw_is_balanced_under_threads(fc, tiny_kaslr):
    """Concurrent productions never lose a round-robin draw."""
    import sys
    from collections import Counter
    from concurrent.futures import ThreadPoolExecutor

    platform = ServerlessPlatform(
        fc, _factory(tiny_kaslr), strategy=InstanceStrategy.RESTORE, zygotes=3
    )
    platform.setup()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(platform.produce, 100 + i, boot_index=i)
                for i in range(48)
            ]
            offsets = Counter(f.result(timeout=60).layout_offset for f in futures)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(offsets.values()) == [16, 16, 16]


def test_morula_pool_honours_the_monitors_fault_plan_and_telemetry(tiny_kaslr):
    """Pool restores fault under the monitor's plan and record into its
    telemetry, each restore under its own boot id."""
    from repro.faults import FaultPlan
    from repro.host import HostStorage
    from repro.monitor import Firecracker
    from repro.simtime import CostModel
    from repro.telemetry import KIND_STAGE, Telemetry

    telemetry = Telemetry()
    fc = Firecracker(
        HostStorage(),
        CostModel(scale=1),
        telemetry=telemetry,
        fault_plan=FaultPlan.parse(
            ["stage=snapshot_restore,kind=stage-timeout,rate=0.5"], seed=3
        ),
    )
    platform = ServerlessPlatform(
        fc, _factory(tiny_kaslr), strategy=InstanceStrategy.RESTORE, zygotes=3
    )
    platform.setup()
    produced = [platform.produce(100 + i, boot_index=i) for i in range(12)]
    warm = [i for i, p in enumerate(produced) if not p.degraded]
    assert 0 < len(warm) < len(produced)
    assert platform.degraded_count == len(produced) - len(warm)

    stages: dict[str, list[str]] = {}
    for event in telemetry.log.events():
        if event.kind == KIND_STAGE and event.boot_id.startswith("restore:"):
            stages.setdefault(event.boot_id, []).append(event.name)
    assert stages == {
        f"restore:{tiny_kaslr.name}:{0:016x}:{i}:0": ["snapshot_restore"]
        for i in warm
    }


def test_handle_prices_each_instance_on_its_own_layout():
    """Every handled invocation is timed on the layout it actually ran on.

    A memo keyed on ``id(layout)`` of layouts it did not keep alive once
    handed some fresh FGKASLR instances the timings of a collected one.
    The loop keeps only each layout's address map, never the layout
    object, so a freed id stays free for reuse as it would in production.
    """
    from repro.artifacts import get_kernel
    from repro.host import HostStorage
    from repro.kernel import AWS, KernelVariant
    from repro.lebench import run_lebench
    from repro.monitor import Firecracker
    from repro.simtime import CostModel

    kernel = get_kernel(AWS, KernelVariant.FGKASLR, scale=64)
    platform = ServerlessPlatform(
        Firecracker(HostStorage(), CostModel(scale=64)),
        lambda seed: VmConfig(
            kernel=kernel, randomize=RandomizeMode.FGKASLR, seed=seed
        ),
    )
    address_maps = []
    produce = platform.produce

    def capture(seed, **kwargs):
        produced = produce(seed, **kwargs)
        layout = produced.vm.layout
        address_maps.append((layout.voffset, list(layout.moved)))
        return produced

    platform.produce = capture
    spec = FUNCTIONS["json-transform"]
    for seed in range(1000, 1040):
        platform.handle(spec, seed=seed)
    assert len(address_maps) == len(platform.records) == 40

    def fresh_invoke_ms(voffset, moved):
        layout = LayoutResult(voffset=voffset, moved=moved).finalize()
        per_test = {r.name: r.ns_per_iter for r in run_lebench(kernel, layout).results}
        kernel_ns = sum(per_test[name] * count for name, count in spec.syscall_mix)
        return (kernel_ns + spec.user_ns) / 1e6

    stale = [
        i
        for i, (record, address_map) in enumerate(zip(platform.records, address_maps))
        if record.invoke_ms != fresh_invoke_ms(*address_map)
    ]
    assert stale == []
