"""The host-clock benchmark's wrapped entry points exist and are entered.

``perfbench/layers.py`` times each layer by wrapping a function where the
program looks it up (``ENTRY_POINTS``).  Renaming or moving one of those
targets, or routing a call around the name perfbench wraps, only fails
the traced pass of the benchmark, long after the change.  These tests
resolve every target against ``src`` (the module imports, the attribute
path exists, the target is callable), then install the wrappers and run a
tiny-kernel version of each workload's operation, which must enter every
layer perfbench requires for that workload and call through every entry
point listed for it in :data:`MUST_ENTER`.  ``perfbench/`` is imported,
never edited.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from repro.artifacts import get_bzimage, get_kernel
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.kernel import TINY, KernelVariant
from repro.monitor import (
    BootArtifactCache,
    BootFormat,
    Firecracker,
    FleetManager,
    VmConfig,
)
from repro.simtime import CostModel
from repro.telemetry import Telemetry

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_layers():
    # layers.py imports its sibling ``spans`` as a top-level module
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_layers", PERFBENCH / "layers.py"
        )
        layers = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(layers)
    finally:
        sys.path.remove(str(PERFBENCH))
    return layers


LAYERS = _load_layers()
ENTRY_POINTS = LAYERS.ENTRY_POINTS


def test_entry_point_table_is_not_empty():
    assert len(ENTRY_POINTS) > 20


@pytest.mark.parametrize(
    "module_name, path",
    sorted({(module_name, path) for module_name, path, *_ in ENTRY_POINTS}),
)
def test_entry_point_resolves(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        assert hasattr(owner, part), f"{module_name}.{path}: no {part!r}"
        owner = getattr(owner, part)
    assert callable(owner), f"{module_name}.{path} is not callable"


# -- traced operations ----------------------------------------------------------


class _EnteringRecorder(LAYERS.SpanRecorder):
    """A span recorder that also notes which entry point each call went
    through: two entry points can share a layer (the CLI's
    ``request_paths`` and ``tail_attribution``), so a layer can stay
    entered after one of them stops firing."""

    def __init__(self) -> None:
        super().__init__()
        self.entered: set[tuple[str, str]] = set()
        self._names: dict[tuple[int, str], tuple[str, str]] = {}
        for module_name, path, *_ in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *owners, attr = path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            self._names[(id(owner), attr)] = (module_name, path)

    def patch(self, owner, attr, make) -> None:
        name = self._names.get((id(owner), attr))
        if name is None:
            return super().patch(owner, attr, make)

        def make_noting(fn):
            wrapped = make(fn)

            @functools.wraps(wrapped)
            def noting(*args, **kwargs):
                if self.op is not None:
                    self.entered.add(name)
                return wrapped(*args, **kwargs)

            return noting

        super().patch(owner, attr, make_noting)


def _boot_direct_fgkaslr(tmp_path):
    kernel = get_kernel(TINY, KernelVariant.FGKASLR, scale=1)
    telemetry = Telemetry()
    vmm = Firecracker(
        HostStorage(),
        CostModel(scale=1),
        artifact_cache=BootArtifactCache(registry=telemetry.registry),
        telemetry=telemetry,
    )
    cfg = VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR)
    vmm.warm_caches(cfg)
    return lambda: vmm.boot(dataclasses.replace(cfg, seed=1))


def _boot_bzimage_lz4(tmp_path):
    kernel = get_kernel(TINY, KernelVariant.KASLR, scale=1)
    bzimage = get_bzimage(TINY, KernelVariant.KASLR, "lz4", scale=1)
    # no artifact cache: the boot decompresses and parses
    vmm = Firecracker(HostStorage(), CostModel(scale=1), telemetry=Telemetry())
    cfg = VmConfig(
        kernel=kernel,
        boot_format=BootFormat.BZIMAGE,
        bzimage=bzimage,
        randomize=RandomizeMode.KASLR,
        seed=1,
    )
    return lambda: vmm.boot(cfg)


def _serve_sweep(tmp_path):
    from repro.cli import main

    argv = [
        "serve", "--kernel", "tiny", "--scale", "1", "--duration", "1",
        "--jitter", "0", "--json", "--strategy", "all", "--trace-requests",
        "--timeseries-out", str(tmp_path / "timeseries.json"),
        "--audit", "--audit-out", str(tmp_path / "audit.json"),
    ]

    def op():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0

    return op


def _fleet_process(tmp_path):
    kernel = get_kernel(TINY, KernelVariant.FGKASLR, scale=1)
    vmm = Firecracker(
        HostStorage(),
        CostModel(scale=1),
        artifact_cache=BootArtifactCache(disk_path=tmp_path / "cache"),
        telemetry=Telemetry(),
    )
    manager = FleetManager(vmm, workers=2, executor="process")
    cfg = VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR)
    return lambda: manager.launch(cfg, 2, fleet_seed=1)


#: workload -> set-up that returns its tiny-kernel operation
OPERATIONS = {
    "boot-direct-fgkaslr": _boot_direct_fgkaslr,
    "boot-bzimage-lz4": _boot_bzimage_lz4,
    "serve-sweep": _serve_sweep,
    "fleet-process": _fleet_process,
}

#: workload -> entry points its operation must call through, for the
#: required layers that have more than one
MUST_ENTER = {
    "boot-direct-fgkaslr": {
        ("repro.core.fgkaslr", f"FgkaslrEngine.{name}")
        for name in (
            "plan_from_inventory",
            "load_text_shuffled",
            "fixup_extable",
            "fixup_kallsyms",
            "fixup_orc",
        )
    },
    "boot-bzimage-lz4": {("repro.core.prepared", "prepare_image")},
    "serve-sweep": {
        ("repro.cli", "request_paths"),
        ("repro.cli", "tail_attribution"),
        ("repro.snapshot.checkpoint", "SnapshotManager.restore"),
        ("repro.snapshot.checkpoint", "SnapshotManager.restore_rebased"),
    },
    "fleet-process": set(),
}


def test_every_workload_has_an_operation():
    assert set(OPERATIONS) == set(LAYERS.REQUIRED_LAYERS) == set(MUST_ENTER)


@pytest.mark.parametrize("workload", sorted(OPERATIONS))
def test_traced_operation_enters_every_required_layer(workload, tmp_path):
    op = OPERATIONS[workload](tmp_path)
    rec = _EnteringRecorder()
    try:
        LAYERS.install(rec)
        with rec.operation(workload):
            op()
    finally:
        rec.unpatch()
    assert LAYERS.missing_layers(workload, rec.spans) == []
    assert MUST_ENTER[workload] - rec.entered == set()
