"""Which entry points the traced run wraps, and the per-layer metrics.

Each entry point is wrapped where the program looks it up (for example
``repro.pipeline.stages.verify_guest_kernel``, the name the boot
pipeline's guest-boot stage calls), never inside a per-relocation or
per-byte helper, so every wrapper fires at most a few dozen times per
boot.  Span names start with the layer (module) they time; the metric
names below start with the same layer.

Per-layer metrics are averaged per traced operation (one boot, one
serve call or one fleet launch), except the set-up layers
(``kernel.build``, ``bzimage.build``, ``compress.lz4c.compress``), which
are per set-up.  Times are host wall-clock span times.  A layer a
workload never enters reads 0; a layer listed for the workload in
:data:`REQUIRED_LAYERS` that records no span fails the traced operation,
so a wrapper that stops firing cannot hide as a zero.

Layer -> metrics -> workloads whose operations enter it:

=====================================  ==================================  =======================
kernel.verify, core.relocator          .self_ms, .sites/.relocs, ..._per_s  both boot workloads,
                                                                            serve-sweep sampling
compress.lz4c                          .decompress_*, .compress_mb_per_s    boot-bzimage-lz4
core.fgkaslr                           .self_ms, .sections_moved            boot-direct-fgkaslr
elf.reader, core.prepared              .self_ms, elf.reader.mb_per_s        boot-bzimage-lz4
monitor.artifact_cache                 .lookups, .hits, .hit_ratio,         boot-direct-fgkaslr,
                                       .self_ms                             fleet-process (parent)
pipeline.<stage>, core.loading,        .self_ms                             both boot workloads,
monitor.addrspace, host.storage                                             serve-sweep sampling
telemetry.stage_span                   .calls, .self_ms                     boot workloads, fleet
                                                                            replay, serve sampling
monitor.executor, monitor.sharedmem    pool_start/stop/wait_ms, boots,      fleet-process
                                       attempts, useful_ratio, publish_ms,
                                       bytes
serve.engine, security.audit,          req_per_s, self_s, records,          serve-sweep
telemetry.tracing/critical_path/       us_per_record, spans, self_ms,
timeseries, serve.backend, snapshot,   ms_per_production
core.rerandomize, lebench,
serve.arrivals
kernel.build, bzimage.build            .self_s (per set-up)                 every set-up (bzImage:
                                                                            boot-bzimage-lz4)
trace                                  overhead_pct, coverage_pct           every workload
=====================================  ==================================  =======================

Worker-side layers of fleet-process are not traced: the wrappers record
nothing in a forked worker.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from statistics import median

from spans import COUNT, END, NAME, OK, OP, PARENT, SID, START, SpanRecorder, self_times

#: ``pipeline.<stage>`` covers the stage names of both boot flavours
STAGE_NAMES = (
    "monitor_startup",
    "image_read",
    "prepare_image",
    "randomize_load",
    "loader_bringup",
    "decompress",
    "self_randomize",
    "loader_jump",
    "boot_params",
    "page_tables",
    "guest_entry",
    "linux_boot",
)
STRATEGIES = ("cold-boot", "restore", "restore-rebase")
_BOOT_LAYERS = (
    "kernel.verify",
    "core.relocator",
    "pipeline",
    "core.loading",
    "monitor.addrspace",
    "host.storage",
    "telemetry.stage_span",
)
#: layers each traced operation of a workload must enter (a span name
#: equal to the layer or starting with it and a dot)
REQUIRED_LAYERS = {
    "boot-direct-fgkaslr": _BOOT_LAYERS + ("core.fgkaslr", "monitor.artifact_cache"),
    "boot-bzimage-lz4": _BOOT_LAYERS + ("compress.lz4c.decompress", "elf.reader", "core.prepared"),
    "serve-sweep": (
        "serve.engine",
        "security.audit",
        "telemetry.tracing",
        "telemetry.critical_path",
        "telemetry.timeseries",
        "serve.backend",
        "snapshot",
        "core.rerandomize",
        "lebench",
        "serve.arrivals",
    ),
    "fleet-process": (
        "monitor.executor.pool_start",
        "monitor.executor.pool_stop",
        "monitor.executor.wait",
        "monitor.sharedmem",
        "monitor.artifact_cache",
        "telemetry.stage_span",
    ),
}


def _arg(index: int):
    return lambda args, kwargs, result: len(args[index])


def _result_len(args, kwargs, result) -> int:
    return len(result)


#: (module, attribute path, span name, count) — the count callable gets
#: ``(args, kwargs, result)`` and returns the work the call did
ENTRY_POINTS = (
    ("repro.pipeline.stages", "verify_guest_kernel", "kernel.verify",
     lambda a, k, r: r.sites_checked),
    ("repro.core.relocator", "Relocator.apply", "core.relocator",
     lambda a, k, r: r),
    ("repro.compress.lz4c", "Lz4Codec.decompress", "compress.lz4c.decompress",
     _result_len),
    ("repro.compress.lz4c", "Lz4Codec.compress", "compress.lz4c.compress",
     _arg(1)),
    ("repro.core.fgkaslr", "FgkaslrEngine.plan_from_inventory",
     "core.fgkaslr.plan", lambda a, k, r: len(r.moved)),
    ("repro.core.fgkaslr", "FgkaslrEngine.load_text_shuffled",
     "core.fgkaslr.load_text", None),
    ("repro.core.fgkaslr", "FgkaslrEngine.fixup_extable", "core.fgkaslr.fixup", None),
    ("repro.core.fgkaslr", "FgkaslrEngine.fixup_kallsyms", "core.fgkaslr.fixup", None),
    ("repro.core.fgkaslr", "FgkaslrEngine.fixup_orc", "core.fgkaslr.fixup", None),
    ("repro.elf.reader", "ElfImage.__init__", "elf.reader", _arg(1)),
    ("repro.pipeline.stages", "prepare_image", "core.prepared", None),
    ("repro.core.prepared", "prepare_image", "core.prepared", None),
    ("repro.monitor.artifact_cache", "prepare_image", "core.prepared", None),
    ("repro.monitor.artifact_cache", "BootArtifactCache.lookup",
     "monitor.artifact_cache", lambda a, k, r: int(r is not None)),
    ("repro.core.inmonitor", "load_elf_segments", "core.loading", None),
    ("repro.monitor.addrspace", "build_kernel_address_space",
     "monitor.addrspace", None),
    ("repro.host.storage", "HostStorage.read", "host.storage", None),
    ("repro.telemetry", "Telemetry.stage_span", "telemetry.stage_span", None),
    ("repro.monitor.executor", "_ReplayFuture.result", "monitor.executor.wait", None),
    ("repro.monitor.sharedmem", "SharedArtifactStore.put", "monitor.sharedmem",
     _arg(1)),
    ("repro.serve.engine", "ServeEngine.run",
     lambda a: f"serve.engine.{a[0].labels.get('strategy', 'other')}",
     lambda a, k, r: r.arrivals),
    ("repro.security.audit", "KaslrAuditor.record", "security.audit", None),
    ("repro.telemetry.tracing", "RequestTracer.traces", "telemetry.tracing", None),
    ("repro.cli", "request_paths", "telemetry.critical_path", None),
    ("repro.cli", "tail_attribution", "telemetry.critical_path", None),
    ("repro.telemetry.timeseries", "TimeSeriesRecorder.to_json_dict",
     "telemetry.timeseries", None),
    ("repro.serve.backend", "SampledBackend.from_platform", "serve.backend",
     lambda a, k, r: k["n_samples"]),
    ("repro.snapshot.checkpoint", "SnapshotManager.restore", "snapshot", None),
    ("repro.snapshot.checkpoint", "SnapshotManager.restore_rebased", "snapshot", None),
    ("repro.core.rerandomize", "Rerandomizer.rebase", "core.rerandomize", None),
    ("repro.workloads.functions", "run_lebench", "lebench", None),
    ("repro.serve.engine", "generate_arrivals", "serve.arrivals", None),
    ("repro.artifacts", "build_kernel", "kernel.build", None),
    ("repro.artifacts", "build_bzimage", "bzimage.build", None),
)


def install(rec: SpanRecorder) -> None:
    """Wrap every entry point (and each boot stage's ``run``)."""
    for module_name, path, name, count in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        *owners, attr = path.split(".")
        for part in owners:
            owner = getattr(owner, part)
        rec.patch(owner, attr, lambda fn, n=name, c=count: rec.timed(n, fn, c))
    from repro.monitor.executor import ProcessBootExecutor
    from repro.pipeline import stages
    from repro.pipeline.stage import Stage

    rec.patch(
        ProcessBootExecutor,
        "launch",
        lambda fn: rec.timed_context(
            "monitor.executor.pool_start", "monitor.executor.pool_stop", fn
        ),
    )
    for cls in vars(stages).values():
        if (
            isinstance(cls, type)
            and issubclass(cls, Stage)
            and "run" in cls.__dict__
            and getattr(cls, "name", None) in STAGE_NAMES
        ):
            rec.patch(cls, "run", lambda fn, n=f"pipeline.{cls.name}": rec.timed(n, fn))


#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("kernel.verify.self_ms", "ms", "lower"),
    ("kernel.verify.sites", "count", "higher"),
    ("kernel.verify.sites_per_s", "1/s", "higher"),
    ("core.relocator.self_ms", "ms", "lower"),
    ("core.relocator.relocs", "count", "higher"),
    ("core.relocator.relocs_per_s", "1/s", "higher"),
    ("compress.lz4c.decompress_self_ms", "ms", "lower"),
    ("compress.lz4c.decompress_mb_per_s", "MB/s", "higher"),
    ("compress.lz4c.compress_mb_per_s", "MB/s", "higher"),
    ("core.fgkaslr.self_ms", "ms", "lower"),
    ("core.fgkaslr.sections_moved", "count", "higher"),
    ("elf.reader.self_ms", "ms", "lower"),
    ("elf.reader.mb_per_s", "MB/s", "higher"),
    ("core.prepared.self_ms", "ms", "lower"),
    ("monitor.artifact_cache.lookups", "count", "lower"),
    ("monitor.artifact_cache.hits", "count", "higher"),
    ("monitor.artifact_cache.hit_ratio", "ratio", "higher"),
    ("monitor.artifact_cache.self_ms", "ms", "lower"),
    *((f"pipeline.{stage}.self_ms", "ms", "lower") for stage in STAGE_NAMES),
    ("core.loading.self_ms", "ms", "lower"),
    ("monitor.addrspace.self_ms", "ms", "lower"),
    ("host.storage.self_ms", "ms", "lower"),
    ("telemetry.stage_span.calls", "count", "lower"),
    ("telemetry.stage_span.self_ms", "ms", "lower"),
    ("monitor.executor.pool_start_ms", "ms", "lower"),
    ("monitor.executor.pool_stop_ms", "ms", "lower"),
    ("monitor.executor.wait_ms", "ms", "lower"),
    ("monitor.executor.boots", "count", "higher"),
    ("monitor.executor.attempts", "count", "lower"),
    ("monitor.executor.useful_ratio", "ratio", "higher"),
    ("monitor.sharedmem.publish_ms", "ms", "lower"),
    ("monitor.sharedmem.bytes", "B", "lower"),
    ("serve.engine.self_s", "s", "lower"),
    ("serve.engine.req_per_s", "1/s", "higher"),
    *((f"serve.engine.{s}.req_per_s", "1/s", "higher") for s in STRATEGIES),
    ("security.audit.records", "count", "higher"),
    ("security.audit.us_per_record", "us", "lower"),
    ("telemetry.tracing.self_ms", "ms", "lower"),
    ("telemetry.tracing.spans", "count", "higher"),
    ("telemetry.critical_path.self_ms", "ms", "lower"),
    ("telemetry.timeseries.self_ms", "ms", "lower"),
    ("serve.backend.ms_per_production", "ms", "lower"),
    ("snapshot.self_ms", "ms", "lower"),
    ("core.rerandomize.self_ms", "ms", "lower"),
    ("lebench.self_ms", "ms", "lower"),
    ("serve.arrivals.self_ms", "ms", "lower"),
    ("kernel.build.self_s", "s", "lower"),
    ("bzimage.build.self_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.coverage_pct", "%", "higher"),
)


class _Totals:
    """Per span-name sums over one group of operations."""

    def __init__(self, spans: list[tuple], selfs: dict[int, int]) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.count: dict[str, int] = defaultdict(int)
        self.ok: dict[str, int] = defaultdict(int)
        for span in spans:
            name = span[NAME]
            self.self_ns[name] += selfs[span[SID]]
            self.total_ns[name] += span[END] - span[START]
            self.calls[name] += 1
            self.count[name] += span[COUNT]
            self.ok[name] += span[OK]

    def _sum(self, table: dict[str, int], layer: str) -> int:
        return sum(
            v for name, v in table.items() if name == layer or name.startswith(layer + ".")
        )

    def self(self, layer: str) -> int:
        return self._sum(self.self_ns, layer)

    def total(self, layer: str) -> int:
        return self._sum(self.total_ns, layer)

    def calls_of(self, layer: str) -> int:
        return self._sum(self.calls, layer)

    def count_of(self, layer: str) -> int:
        return self._sum(self.count, layer)

    def ok_of(self, layer: str) -> int:
        return self._sum(self.ok, layer)


def _rate(work: float, ns: float) -> float:
    return work / (ns / 1e9) if ns else 0.0


def layer_metrics(
    rec: SpanRecorder,
    traced_ops: list[str],
    setups: list[str],
    extra_counts: dict[str, float],
    traced_ms: list[float],
    untraced_ms: list[float],
) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric from the recorded spans.

    ``extra_counts`` carries per-operation counts read from the
    outputs rather than from a span (the request tracer's span count).
    """
    selfs = self_times(rec.spans)
    op_set, setup_set = set(traced_ops), set(setups)
    ops = _Totals([s for s in rec.spans if s[OP] in op_set and s[PARENT] is not None], selfs)
    setup = _Totals([s for s in rec.spans if s[OP] in setup_set and s[PARENT] is not None], selfs)
    n = max(len(traced_ops), 1)
    n_setup = max(len(setups), 1)

    def per_op_ms(layer: str) -> float:
        return ops.self(layer) / n / 1e6

    m: dict[str, float] = {
        "kernel.verify.self_ms": per_op_ms("kernel.verify"),
        "kernel.verify.sites": ops.count_of("kernel.verify") / n,
        "kernel.verify.sites_per_s": _rate(ops.count_of("kernel.verify"), ops.self("kernel.verify")),
        "core.relocator.self_ms": per_op_ms("core.relocator"),
        "core.relocator.relocs": ops.count_of("core.relocator") / n,
        "core.relocator.relocs_per_s": _rate(ops.count_of("core.relocator"), ops.self("core.relocator")),
        "compress.lz4c.decompress_self_ms": per_op_ms("compress.lz4c.decompress"),
        "compress.lz4c.decompress_mb_per_s": _rate(
            ops.count_of("compress.lz4c.decompress") / 1e6, ops.self("compress.lz4c.decompress")
        ),
        "compress.lz4c.compress_mb_per_s": _rate(
            setup.count_of("compress.lz4c.compress") / 1e6, setup.self("compress.lz4c.compress")
        ),
        "core.fgkaslr.self_ms": per_op_ms("core.fgkaslr"),
        "core.fgkaslr.sections_moved": ops.count_of("core.fgkaslr.plan") / n,
        "elf.reader.self_ms": per_op_ms("elf.reader"),
        "elf.reader.mb_per_s": _rate(ops.count_of("elf.reader") / 1e6, ops.self("elf.reader")),
        "core.prepared.self_ms": per_op_ms("core.prepared"),
        "monitor.artifact_cache.lookups": ops.calls_of("monitor.artifact_cache") / n,
        "monitor.artifact_cache.hits": ops.count_of("monitor.artifact_cache") / n,
        "monitor.artifact_cache.hit_ratio": (
            ops.count_of("monitor.artifact_cache") / ops.calls_of("monitor.artifact_cache")
            if ops.calls_of("monitor.artifact_cache")
            else 0.0
        ),
        "monitor.artifact_cache.self_ms": per_op_ms("monitor.artifact_cache"),
    }
    for stage in STAGE_NAMES:
        m[f"pipeline.{stage}.self_ms"] = per_op_ms(f"pipeline.{stage}")
    attempts = ops.calls_of("monitor.executor.wait")
    engine_ns = ops.total("serve.engine")
    audit_calls = ops.calls_of("security.audit")
    m.update(
        {
            "core.loading.self_ms": per_op_ms("core.loading"),
            "monitor.addrspace.self_ms": per_op_ms("monitor.addrspace"),
            "host.storage.self_ms": per_op_ms("host.storage"),
            "telemetry.stage_span.calls": ops.calls_of("telemetry.stage_span") / n,
            "telemetry.stage_span.self_ms": per_op_ms("telemetry.stage_span"),
            "monitor.executor.pool_start_ms": per_op_ms("monitor.executor.pool_start"),
            "monitor.executor.pool_stop_ms": per_op_ms("monitor.executor.pool_stop"),
            "monitor.executor.wait_ms": per_op_ms("monitor.executor.wait"),
            "monitor.executor.boots": ops.ok_of("monitor.executor.wait") / n,
            "monitor.executor.attempts": attempts / n,
            "monitor.executor.useful_ratio": (
                ops.ok_of("monitor.executor.wait") / attempts if attempts else 0.0
            ),
            "monitor.sharedmem.publish_ms": per_op_ms("monitor.sharedmem"),
            "monitor.sharedmem.bytes": ops.count_of("monitor.sharedmem") / n,
            "serve.engine.self_s": ops.self("serve.engine") / n / 1e9,
            "serve.engine.req_per_s": _rate(ops.count_of("serve.engine"), engine_ns),
            "security.audit.records": audit_calls / n,
            "security.audit.us_per_record": (
                ops.self("security.audit") / audit_calls / 1e3 if audit_calls else 0.0
            ),
            "telemetry.tracing.self_ms": per_op_ms("telemetry.tracing"),
            "telemetry.tracing.spans": extra_counts.get("telemetry.tracing.spans", 0.0),
            "telemetry.critical_path.self_ms": per_op_ms("telemetry.critical_path"),
            "telemetry.timeseries.self_ms": per_op_ms("telemetry.timeseries"),
            "serve.backend.ms_per_production": (
                ops.total("serve.backend") / ops.count_of("serve.backend") / 1e6
                if ops.count_of("serve.backend")
                else 0.0
            ),
            "snapshot.self_ms": per_op_ms("snapshot"),
            "core.rerandomize.self_ms": per_op_ms("core.rerandomize"),
            "lebench.self_ms": per_op_ms("lebench"),
            "serve.arrivals.self_ms": per_op_ms("serve.arrivals"),
            "kernel.build.self_s": setup.self("kernel.build") / n_setup / 1e9,
            "bzimage.build.self_s": setup.self("bzimage.build") / n_setup / 1e9,
            "trace.overhead_pct": (
                (median(traced_ms) / median(untraced_ms) - 1.0) * 100.0
                if traced_ms and untraced_ms
                else 0.0
            ),
            "trace.coverage_pct": coverage_pct(rec, traced_ops),
        }
    )
    for strategy in STRATEGIES:
        name = f"serve.engine.{strategy}"
        m[f"{name}.req_per_s"] = _rate(ops.count_of(name), ops.total(name))
    return m


def coverage_pct(rec: SpanRecorder, traced_ops: list[str]) -> float:
    """Median share of an operation's host time inside named-layer spans.

    Pipeline stage spans enclose a whole boot, so they do not count: an
    operation's covered time is the union of its other spans, and a layer
    whose wrapper stops firing lowers it.
    """
    traced = set(traced_ops)
    roots: dict[str, tuple] = {}
    intervals: dict[str, list[tuple[int, int]]] = defaultdict(list)
    for span in rec.spans:
        if span[OP] not in traced:
            continue
        if span[PARENT] is None and span[NAME] == "op":
            roots[span[OP]] = span
        elif not span[NAME].startswith("pipeline."):
            intervals[span[OP]].append((span[START], span[END]))
    shares = []
    for op, root in roots.items():
        if root[END] <= root[START]:
            continue
        covered = 0
        reach = root[START]
        for start, end in sorted(intervals[op]):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        shares.append(covered / (root[END] - root[START]) * 100.0)
    return median(shares) if shares else 0.0


def missing_layers(workload: str, spans: list[tuple]) -> list[str]:
    """The layers :data:`REQUIRED_LAYERS` lists for ``workload`` with no span."""
    names = {span[NAME] for span in spans}
    return [
        layer
        for layer in REQUIRED_LAYERS.get(workload, ())
        if not any(n == layer or n.startswith(layer + ".") for n in names)
    ]
