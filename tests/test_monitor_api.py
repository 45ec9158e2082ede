"""Firecracker-style configuration API."""

import pytest

from repro.errors import MonitorError
from repro.monitor.api import BootSource, FirecrackerApi


@pytest.fixture()
def api(fc):
    return FirecrackerApi(fc)


def test_full_lifecycle(api, tiny_kaslr):
    api.put_machine_config(vcpu_count=1, mem_size_mib=256)
    api.put_boot_source(
        BootSource(kernel_image=tiny_kaslr, relocs=True, randomize="kaslr")
    )
    report = api.instance_start()
    assert report.layout.voffset != 0
    info = api.describe_instance()
    assert info["state"] == "Running"
    assert info["randomized"]
    assert api.vm.layout.voffset == report.layout.voffset


def test_start_without_boot_source_rejected(api):
    with pytest.raises(MonitorError, match="boot-source"):
        api.instance_start()


def test_randomize_without_relocs_rejected(api, tiny_kaslr):
    api.put_boot_source(
        BootSource(kernel_image=tiny_kaslr, relocs=False, randomize="kaslr")
    )
    with pytest.raises(MonitorError, match="Figure 8"):
        api.instance_start()


def test_unknown_mode_rejected(api, tiny_kaslr):
    with pytest.raises(MonitorError, match="unknown randomization"):
        api.put_boot_source(BootSource(kernel_image=tiny_kaslr, randomize="maximal"))


def test_double_start_rejected(api, tiny_nokaslr):
    api.put_boot_source(BootSource(kernel_image=tiny_nokaslr))
    api.instance_start()
    with pytest.raises(MonitorError, match="already running"):
        api.instance_start()


def test_reconfigure_after_start_rejected(api, tiny_nokaslr):
    api.put_boot_source(BootSource(kernel_image=tiny_nokaslr))
    api.instance_start()
    with pytest.raises(MonitorError, match="not supported after starting"):
        api.put_machine_config(mem_size_mib=512)
    with pytest.raises(MonitorError, match="not supported after starting"):
        api.put_boot_source(BootSource(kernel_image=tiny_nokaslr))


def test_custom_boot_args(api, tiny_nokaslr):
    api.put_boot_source(
        BootSource(kernel_image=tiny_nokaslr, boot_args="console=ttyS0 quiet")
    )
    api.instance_start()
    assert api.vm.read_cmdline() == "console=ttyS0 quiet"


def test_snapshot_endpoints(fc, tiny_kaslr):
    source = BootSource(kernel_image=tiny_kaslr, relocs=True, randomize="kaslr")
    origin = FirecrackerApi(fc)
    origin.put_boot_source(source)
    origin.instance_start()
    snapshot = origin.create_snapshot()

    clone_api = FirecrackerApi(fc)
    vm, latency = clone_api.load_snapshot(snapshot, rebase_seed=9)
    assert latency > 0
    assert vm.layout.voffset != 0
    assert clone_api.describe_instance()["state"] == "Running"
    with pytest.raises(MonitorError, match="running microVM"):
        clone_api.load_snapshot(snapshot)


def _snapshot_on(fc, kernel):
    origin = FirecrackerApi(fc)
    origin.put_boot_source(
        BootSource(kernel_image=kernel, relocs=True, randomize="kaslr")
    )
    origin.instance_start()
    return origin.create_snapshot()


def test_snapshot_restores_use_the_monitors_telemetry_and_fault_plan(tiny_kaslr):
    """The API builds its snapshot manager as the serverless platform
    does: restores record into the monitor's telemetry and fault under
    its fault plan."""
    from repro.errors import BootFailure
    from repro.faults import FaultPlan
    from repro.host import HostStorage
    from repro.monitor import Firecracker
    from repro.simtime import CostModel
    from repro.telemetry import KIND_STAGE, Telemetry

    telemetry = Telemetry()
    fc = Firecracker(HostStorage(), CostModel(scale=1), telemetry=telemetry)
    FirecrackerApi(fc).load_snapshot(_snapshot_on(fc, tiny_kaslr), rebase_seed=9)
    restores = [
        (event.boot_id, event.name)
        for event in telemetry.log.events()
        if event.kind == KIND_STAGE and event.boot_id.startswith("restore:")
    ]
    boot_id = f"restore:{tiny_kaslr.name}:{9:016x}:0:0"
    assert restores == [(boot_id, "snapshot_restore"), (boot_id, "rebase")]

    poisoned = Firecracker(
        HostStorage(),
        CostModel(scale=1),
        fault_plan=FaultPlan.parse(
            ["stage=snapshot_restore,kind=stage-timeout,rate=1.0"], seed=3
        ),
    )
    snapshot = _snapshot_on(poisoned, tiny_kaslr)
    with pytest.raises(BootFailure):
        FirecrackerApi(poisoned).load_snapshot(snapshot, rebase_seed=9)


def test_snapshot_requires_running_vm(api):
    with pytest.raises(MonitorError, match="not running"):
        api.create_snapshot()


def test_vm_access_before_start_rejected(api):
    with pytest.raises(MonitorError, match="not been started"):
        _ = api.vm
