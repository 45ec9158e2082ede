"""The staged boot pipeline.

Boot flavors are compositions of :class:`~repro.pipeline.stage.BootStage`
objects over a shared :class:`~repro.pipeline.stage.StageContext`; the
:class:`~repro.pipeline.pipeline.BootPipeline` composer executes them and
emits per-stage begin/end spans into the boot's timeline.  Each flavor's
stage list is written once (``FLAVOR_STAGES``), and the builders here are
the only composition of boot work: all monitors (Firecracker, Qemu,
UnikernelMonitor), the fleet manager, and snapshot restore boot through
them, and the bzImage flavor's loader stages are the bootstrap loader.
"""

from repro.pipeline.pipeline import (
    PIPELINE_FLAVORS,
    BootPipeline,
    build_boot_pipeline,
    build_restore_pipeline,
)
from repro.pipeline.stage import (
    PRINCIPAL_GUEST,
    PRINCIPAL_KERNEL,
    PRINCIPAL_MONITOR,
    BootStage,
    Stage,
    StageContext,
    StageResult,
)

__all__ = [
    "BootPipeline",
    "BootStage",
    "PIPELINE_FLAVORS",
    "PRINCIPAL_GUEST",
    "PRINCIPAL_KERNEL",
    "PRINCIPAL_MONITOR",
    "Stage",
    "StageContext",
    "StageResult",
    "build_boot_pipeline",
    "build_restore_pipeline",
]
