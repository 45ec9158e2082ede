"""Deterministic fault injection for the staged boot pipeline.

Real Firecracker deployments treat per-microVM failure as routine: a guest
that corrupts its image, exhausts entropy, or hangs in a stage is killed
and (maybe) retried, while the monitor keeps serving the rest of the
fleet.  This module gives the simulation the same adversary, *without*
giving up determinism: a :class:`FaultPlan` is a seeded set of
:class:`FaultSpec` records, and every fire/no-fire decision is a pure
function of ``(plan seed, spec, boot id)`` — never of thread timing or
call order — so a fleet run with a fixed ``fleet_seed`` and plan fails
the exact same boots at the exact same stages every time.

Injection points are the :class:`~repro.pipeline.pipeline.BootPipeline`
stage boundaries: before each stage runs, the pipeline asks the installed
plan whether any spec fires for ``(stage name, boot)``.  Fatal kinds
raise a typed :class:`~repro.errors.InjectedFault` (which the monitor
wraps into a :class:`~repro.errors.BootFailure`); the one non-fatal kind,
``cache-drop``, forces a cache miss on the boot it fires on, so that
boot's caching stage re-parses — resilience, not failure.  It marks only
its own boot's context and never touches the shared cache, so no other
boot's lookup changes and concurrent fleets stay deterministic.

The plan writes no telemetry: each fired ``(stage, kind)`` lands on the
boot's timeline, from which :func:`~repro.monitor.vmm.record_boot`
derives the fault-injection counter on either executor.

With no plan installed the pipeline never touches this module: zero
charges, zero RNG draws, byte-identical output (the disabled-overhead
contract the acceptance tests pin).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

from repro.errors import FaultPlanError, InjectedFault

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from repro.pipeline.stage import BootStage, StageContext

#: fault kinds -> what firing one models (the ``repro faults`` listing)
FAULT_KINDS: dict[str, str] = {
    "corrupt-elf": "the stage reads corrupted ELF bytes and aborts (fatal)",
    "reloc-fail": "a relocation cannot be applied to the chosen layout (fatal)",
    "entropy-exhausted": "the host entropy pool refuses the draw (fatal)",
    "cache-drop": "this boot's artifact-cache lookup misses at "
                  "prepare_image, forcing a re-parse; other boots still "
                  "hit (non-fatal)",
    "stage-timeout": "the stage exceeds its watchdog deadline and the boot "
                     "is killed (fatal)",
}

#: kinds whose firing aborts the boot (everything but cache-drop)
FATAL_KINDS = frozenset(k for k in FAULT_KINDS if k != "cache-drop")


@dataclass(frozen=True)
class FaultSpec:
    """One injection rule: where (stage), what (kind), and which boots.

    Targeting is either *pinned* (``boot_index`` — exactly that fleet
    index, refiring on every retry attempt of it) or *sampled* (``rate``
    — a seeded Bernoulli draw per boot id, so a retried boot with a fresh
    seed redraws its fate).
    """

    stage: str
    kind: str
    rate: float = 1.0
    boot_index: int | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown fault kind {self.kind!r}; "
                f"known: {', '.join(sorted(FAULT_KINDS))}"
            )
        if not self.stage:
            raise FaultPlanError("fault spec needs a stage name")
        if self.kind == "cache-drop":
            # lazy: the pipeline's stages import modules that import this one
            from repro.pipeline.stages import ArtifactCacheStage

            if self.stage != ArtifactCacheStage.name:
                raise FaultPlanError(
                    f"cache-drop fires only at {ArtifactCacheStage.name}, the "
                    f"stage that consults the artifact cache, got stage "
                    f"{self.stage!r}"
                )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(
                f"fault rate must be in [0, 1], got {self.rate}"
            )
        if self.boot_index is not None and self.boot_index < 0:
            raise FaultPlanError(
                f"boot index must be non-negative, got {self.boot_index}"
            )

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse the CLI syntax: ``stage=<s>,kind=<k>[,rate=<r>][,seed=<n>][,boot=<i>]``."""
        fields: dict[str, str] = {}
        for part in text.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise FaultPlanError(
                    f"fault spec entries are key=value, got {part!r}"
                )
            key, _, value = part.partition("=")
            fields[key.strip()] = value.strip()
        unknown = set(fields) - {"stage", "kind", "rate", "seed", "boot"}
        if unknown:
            raise FaultPlanError(
                f"unknown fault spec keys: {', '.join(sorted(unknown))}"
            )
        if "stage" not in fields or "kind" not in fields:
            raise FaultPlanError(
                f"fault spec needs at least stage= and kind=, got {text!r}"
            )
        try:
            return cls(
                stage=fields["stage"],
                kind=fields["kind"],
                rate=float(fields.get("rate", "1.0")),
                boot_index=int(fields["boot"]) if "boot" in fields else None,
                seed=int(fields.get("seed", "0")),
            )
        except ValueError as exc:
            raise FaultPlanError(f"bad fault spec {text!r}: {exc}") from exc

    def describe(self) -> str:
        target = (
            f"boot {self.boot_index}"
            if self.boot_index is not None
            else f"rate {self.rate:g}"
        )
        return f"{self.kind} at {self.stage} ({target}, seed {self.seed})"


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, order-independent set of injection rules."""

    specs: tuple[FaultSpec, ...]
    seed: int = 0

    @classmethod
    def parse(cls, texts: Iterable[str], seed: int = 0) -> "FaultPlan":
        """Build a plan from CLI ``--inject-fault`` spec strings."""
        specs = tuple(FaultSpec.parse(text) for text in texts)
        if not specs:
            raise FaultPlanError("a fault plan needs at least one spec")
        return cls(specs=specs, seed=seed)

    # -- decisions -------------------------------------------------------------

    def _draw(self, spec: FaultSpec, boot_id: str) -> float:
        """Deterministic uniform draw in [0, 1) for one (spec, boot)."""
        digest = hashlib.sha256(
            f"{self.seed}:{spec.seed}:{spec.stage}:{spec.kind}:{boot_id}".encode()
        ).digest()
        return int.from_bytes(digest[:8], "big") / 2**64

    def matches(
        self, stage_name: str, *, boot_id: str, boot_index: int
    ) -> list[FaultSpec]:
        """The specs that fire for this (stage, boot); pure and seeded."""
        fired = []
        for spec in self.specs:
            if spec.stage != stage_name:
                continue
            if spec.boot_index is not None:
                if spec.boot_index == boot_index:
                    fired.append(spec)
                continue
            if spec.rate >= 1.0 or self._draw(spec, boot_id) < spec.rate:
                fired.append(spec)
        return fired

    # -- the pipeline-facing hook ----------------------------------------------

    def inject(self, stage: "BootStage", ctx: "StageContext") -> None:
        """Fire matching specs at one stage boundary.

        Called by :meth:`BootPipeline._run_stages` before the stage body.
        The non-fatal kind (cache-drop) marks this boot's context for a
        forced cache miss; fatal kinds raise :class:`InjectedFault`,
        which the pipeline attributes and the monitor wraps into a
        :class:`BootFailure`.
        """
        for spec in self.matches(
            stage.name, boot_id=ctx.boot_id, boot_index=ctx.boot_index
        ):
            ctx.clock.timeline.faults.append((spec.stage, spec.kind))
            if spec.kind == "cache-drop":
                ctx.cache_miss_forced = True
                continue
            raise InjectedFault(
                f"injected {spec.kind} at {stage.name} "
                f"(boot {ctx.boot_id or '?'}, attempt {ctx.attempt})",
                stage=stage.name,
                kind=spec.kind,
            )

    def describe(self) -> str:
        return "; ".join(spec.describe() for spec in self.specs)
