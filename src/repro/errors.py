"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
still distinguishing the subsystem that failed.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ElfError(ReproError):
    """Malformed or unsupported ELF content."""


class ElfParseError(ElfError):
    """The byte stream could not be decoded as the expected ELF structure."""


class ElfLayoutError(ElfError):
    """An ELF image could not be laid out (overlapping or unordered parts)."""


class RelocsError(ReproError):
    """Malformed vmlinux.relocs content."""


class CompressionError(ReproError):
    """A codec failed to compress or decompress a payload."""


class UnknownCodecError(CompressionError):
    """The requested compression codec is not registered."""


class BzImageError(ReproError):
    """Malformed bzImage or unsupported boot-protocol field."""


class GuestMemoryError(ReproError):
    """Out-of-range or misaligned guest physical memory access."""


class PageTableError(ReproError):
    """Invalid page-table construction or a failed virtual-address walk."""


class TranslationFault(PageTableError):
    """A virtual address did not resolve through the guest page tables."""


class KernelBuildError(ReproError):
    """The synthetic kernel builder was given an unsatisfiable config."""


class RandomizationError(ReproError):
    """(FG)KASLR could not choose an offset or apply relocations."""


class BootProtocolError(ReproError):
    """The monitor and guest disagreed on the boot protocol contract."""


class MonitorError(ReproError):
    """The virtual machine monitor could not complete an operation."""


class WorkerPoolBroken(MonitorError):
    """A process executor's worker died, so its pool can run no more boots.

    Ends the whole fleet launch: it is not one boot's failure, and the
    fleet's retries would need the pool that is gone.
    """


class GuestPanic(ReproError):
    """The simulated guest kernel failed its post-boot self-verification.

    This is the moral equivalent of a triple fault or kernel panic during
    early boot: a relocation was missed, applied twice, or applied with the
    wrong offset, so some embedded pointer no longer resolves to the symbol
    recorded in the build manifest.
    """


class BenchmarkError(ReproError):
    """A benchmark harness was misconfigured."""


class FaultPlanError(ReproError):
    """A fault-injection plan or spec could not be parsed or validated."""


class InjectedFault(ReproError):
    """A fault the installed :class:`~repro.faults.FaultPlan` fired.

    Raised at a pipeline stage boundary; carries the stage it fired at and
    the fault kind so the containment layer can attribute it without
    string-matching messages.
    """

    def __init__(self, message: str, *, stage: str, kind: str) -> None:
        super().__init__(message)
        #: attribution attributes the pipeline also stamps onto organic
        #: failures — one vocabulary for injected and natural faults
        self.boot_stage = stage
        self.fault_kind = kind


class BootFailure(MonitorError):
    """One boot's terminal failure, attributed for the fleet report.

    The containment layer (``FleetManager.launch`` per-future capture, or
    ``Firecracker.boot_vm`` for injected faults) wraps whatever a stage
    raised into this typed record: which boot (``boot_id``, fleet
    ``index``, ``seed``), where (``stage``), what (``kind``), and on which
    ``attempt`` of the retry budget it happened.
    """

    def __init__(
        self,
        message: str,
        *,
        boot_id: str = "",
        stage: str = "unknown",
        kind: str = "error",
        attempt: int = 0,
        index: int = 0,
        seed: int | None = None,
    ) -> None:
        super().__init__(message)
        self.boot_id = boot_id
        self.boot_stage = stage
        self.fault_kind = kind
        self.attempt = attempt
        self.index = index
        self.seed = seed

    @property
    def stage(self) -> str:
        return self.boot_stage

    @property
    def kind(self) -> str:
        return self.fault_kind

    @classmethod
    def from_exception(
        cls,
        exc: BaseException,
        *,
        boot_id: str = "",
        attempt: int = 0,
        index: int = 0,
        seed: int | None = None,
    ) -> "BootFailure":
        """Wrap an organic stage failure, reading pipeline attribution."""
        if isinstance(exc, cls):
            exc.attempt = attempt
            exc.index = index
            if seed is not None:
                exc.seed = seed
            if boot_id and not exc.boot_id:
                exc.boot_id = boot_id
            return exc
        return cls(
            str(exc),
            boot_id=getattr(exc, "boot_id", "") or boot_id,
            stage=getattr(exc, "boot_stage", None) or "unknown",
            kind=failure_kind(exc),
            attempt=attempt,
            index=index,
            seed=seed,
        )

    def to_json(self) -> dict:
        """Stable, sortable record for ``FleetReport.to_json()``."""
        return {
            "index": self.index,
            "seed": self.seed,
            "boot_id": self.boot_id,
            "stage": self.boot_stage,
            "kind": self.fault_kind,
            "attempt": self.attempt,
            "error": str(self),
        }


#: most-specific-first mapping from exception type to failure-kind slug
_FAILURE_KINDS: tuple[tuple[type, str], ...] = (
    (GuestPanic, "guest-panic"),
    (ElfError, "elf-parse"),
    (RelocsError, "relocs"),
    (CompressionError, "decompress"),
    (BzImageError, "bzimage"),
    (GuestMemoryError, "guest-memory"),
    (PageTableError, "page-table"),
    (RandomizationError, "randomization"),
    (BootProtocolError, "boot-protocol"),
    (KernelBuildError, "kernel-build"),
    (MonitorError, "monitor"),
    (ReproError, "error"),
)


def failure_kind(exc: BaseException) -> str:
    """Classify an exception into the failure taxonomy's kind slug.

    Injected faults (and wrapped :class:`BootFailure` records) carry their
    kind explicitly; organic failures classify by exception type.
    """
    kind = getattr(exc, "fault_kind", None)
    if kind:
        return kind
    for cls, slug in _FAILURE_KINDS:
        if isinstance(exc, cls):
            return slug
    return "error"
