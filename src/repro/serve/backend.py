"""Per-invocation production backends for the serve engine.

The engine simulates millions of invocations on a simulated clock; it
cannot afford a full staged boot (or restore) per event.  The trick is
the same one the cost model itself uses: measure a *small, seeded set of
real productions once*, then replay the measured costs cyclically.  Each
:class:`ProductionSample` is one genuine run of
:meth:`~repro.workloads.platform.ServerlessPlatform.produce` — boot or
restore pipeline, fault plan, degrade-to-cold fallback and all — plus
the invocation latency of the target function on that instance's actual
randomized layout.  After sampling, the engine is pure integer
arithmetic over the sample table, so offered load scales freely without
re-running pipelines.

Fault plans flow through naturally: a plan that poisons restore stages
yields ``degraded=True`` samples (warm production fell back to a cold
boot — startup jumps from restore-scale to boot-scale), and a plan that
poisons boot stages yields ``failed=True`` samples (nothing to degrade
to), which the engine turns into provision failures and, eventually, a
tripped circuit breaker.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import BootFailure, MonitorError
from repro.security.audit import layout_digest
from repro.workloads.functions import FunctionSpec
from repro.workloads.platform import ServerlessPlatform

__all__ = ["ProductionSample", "SampledBackend"]

#: deterministic per-sample seed spread (golden-ratio multiplicative mix)
_SEED_MIX = 0x9E3779B9

#: what a failed production wastes when no successful sample calibrates it
_FALLBACK_FAILED_NS = 1_000_000


@dataclass(frozen=True)
class ProductionSample:
    """One measured production + invocation, replayed cyclically."""

    startup_ns: int
    invoke_ns: int
    layout_offset: int
    degraded: bool = False
    failed: bool = False
    #: KASLR layout fingerprint of the produced instance (see
    #: :func:`repro.security.audit.layout_digest`), captured at sampling
    #: time so the auditor never touches a pipeline on the hot path;
    #: empty for failed productions and hand-built test samples
    layout_digest: str = ""
    #: the originating pipeline's per-stage charges ``(name, ns)``, in
    #: stage order — the critical-path analyzer subdivides a cold
    #: request's provision segment across these; empty when unmeasured
    stage_ns: tuple[tuple[str, int], ...] = ()
    #: trace id of the real production run this sample replays ("" when
    #: sampling ran untraced), linking every replayed invocation back to
    #: the stage spans of its originating pipeline
    source: str = ""

    def __post_init__(self) -> None:
        # a negative duration would replay as requests served before
        # they arrived, and as spans that end before they start
        if self.startup_ns < 0 or self.invoke_ns < 0:
            raise MonitorError(
                f"production sample needs non-negative durations: "
                f"startup_ns={self.startup_ns}, invoke_ns={self.invoke_ns}"
            )


@dataclass(frozen=True)
class SampledBackend:
    """A cyclic table of measured production costs.

    ``sample(i)`` is total: every index maps onto a measured sample
    (``samples[i % len]``), so the engine never branches on table size.
    """

    samples: tuple[ProductionSample, ...]
    #: platform bookkeeping captured at sampling time
    setup_ms: float = 0.0

    def __post_init__(self) -> None:
        if not self.samples:
            raise MonitorError("backend needs at least one production sample")

    def sample(self, index: int) -> ProductionSample:
        return self.samples[index % len(self.samples)]

    @property
    def viable(self) -> bool:
        """At least one production succeeded (the pool can ever fill)."""
        return any(not s.failed for s in self.samples)

    @property
    def failure_fraction(self) -> float:
        return sum(1 for s in self.samples if s.failed) / len(self.samples)

    @classmethod
    def from_platform(
        cls,
        platform: ServerlessPlatform,
        spec: FunctionSpec,
        *,
        n_samples: int,
        seed: int = 0,
        tracer=None,
    ) -> "SampledBackend":
        """Measure ``n_samples`` real productions through the platform.

        Sampling drives the genuine pipelines — warm strategies restore
        (and may degrade under the monitor's fault plan), cold strategies
        boot — and runs the function against each instance's real layout.
        A production whose cold fallback *also* fails becomes a
        ``failed`` sample charged the mean successful startup (the time a
        provisioner burns before giving up); with zero successes the
        charge falls back to a nominal millisecond and the backend is not
        :attr:`viable`.

        With a ``tracer`` (a :class:`~repro.telemetry.tracing.RequestTracer`
        scope), each measured production records a ``sample/<i>`` trace
        whose spans mirror the real pipeline's stage timeline, and the
        sample's :attr:`~ProductionSample.source` carries that trace id —
        every replayed invocation stays linked to the stage spans of the
        run it replays.
        """
        if n_samples < 1:
            raise MonitorError(f"need at least one sample, got {n_samples}")
        platform.setup()
        measured: list[ProductionSample | None] = []
        failures = 0
        for i in range(n_samples):
            sample_seed = (seed + _SEED_MIX * (i + 1)) & 0xFFFFFFFF
            try:
                produced = platform.produce(sample_seed, boot_index=i)
            except BootFailure:
                failures += 1
                measured.append(None)  # calibrated after the loop
                continue
            spans = tuple(produced.vm.clock.timeline.spans)
            source = ""
            if tracer is not None:
                ctx = tracer.trace(f"sample/{i}")
                source = ctx.trace_id
                # one tree: the production root (row 0), then one stage
                # span per timeline entry, each a child of row 0
                ctx.commit([
                    (
                        "produce",
                        "sample",
                        spans[0].start_ns if spans else 0,
                        spans[-1].end_ns if spans else 0,
                        None,
                        {
                            "index": i,
                            "degraded": produced.degraded,
                            "startup_ms": produced.startup_ms,
                        },
                    ),
                    *(
                        (
                            span.name, "stage", span.start_ns, span.end_ns, 0,
                            {
                                "category": span.category,
                                "principal": span.principal,
                                "charged_ns": span.charged_ns,
                            },
                        )
                        for span in spans
                    ),
                ])
            measured.append(
                ProductionSample(
                    startup_ns=int(round(produced.startup_ms * 1e6)),
                    invoke_ns=int(round(platform.invoke_ns(produced.vm, spec))),
                    layout_offset=produced.layout_offset,
                    degraded=produced.degraded,
                    layout_digest=layout_digest(produced.vm.layout),
                    stage_ns=tuple(
                        (span.name, span.charged_ns) for span in spans
                    ),
                    source=source,
                )
            )
        ok = [s for s in measured if s is not None]
        failed_ns = (
            int(round(sum(s.startup_ns for s in ok) / len(ok)))
            if ok
            else _FALLBACK_FAILED_NS
        )
        samples = tuple(
            s
            if s is not None
            else ProductionSample(
                startup_ns=failed_ns, invoke_ns=0, layout_offset=0, failed=True
            )
            for s in measured
        )
        return cls(samples=samples, setup_ms=platform.setup_ms)
