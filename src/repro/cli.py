"""Command-line interface.

Subcommands::

    python -m repro boot    --kernel aws --mode fgkaslr [--format bzimage ...]
    python -m repro fleet   --kernel aws --count 64 --workers 8   # Section 6
    python -m repro serve   --arrivals poisson --rate 40 --json   # SLO report
    python -m repro watch   --strategy restore --audit            # flight rec.
    python -m repro trace   --rate 90 --trace-id <id>             # span trees
    python -m repro metrics --kernel aws --vms 4                  # Prometheus

``boot`` and ``fleet`` accept ``--json`` (machine-readable report) and
``--trace`` (per-stage pipeline span table), plus the telemetry exports:
``--metrics`` (Prometheus text to stdout) and
``--trace-export {chrome,json,prometheus} [--trace-out trace.json]``
(Chrome ``trace_event`` JSON loads in Perfetto / ``chrome://tracing``).
Both also accept ``--profile {folded,json,table}`` (attribute every
simulated nanosecond to boot/stage/principal/charge-kind; ``folded`` is
flamegraph.pl-compatible) with ``--profile-out PATH``.
Other subcommands::
    python -m repro profile --kernel aws --count 4    # cost attribution
    python -m repro bench-compare                     # regression gate
    python -m repro sizes                     # Table 1
    python -m repro codecs  --kernel lupine   # compression stats
    python -m repro lebench                   # Figure 11 summary
    python -m repro entropy --kernel aws      # randomization entropy / leaks
    python -m repro faults                    # injectable fault kinds/stages

``boot`` and ``fleet`` accept ``--inject-fault
stage=<s>,kind=<k>[,rate=<r>][,seed=<n>][,boot=<i>]`` (repeatable) for
deterministic failure-containment runs; ``fleet`` adds ``--retries N``
(per-boot retry budget, fresh seed per retry).

``fleet``, ``serve``, and ``watch`` carry the flight recorder:
``--timeseries-out PATH`` (windowed counter rates / gauges / percentiles
as byte-stable JSON, ``--window-ms`` wide) and ``--audit`` (KASLR layout
fingerprinting: distinct-layout fraction, empirical entropy bits, and
address-validity lifetimes per strategy, to ``--audit-out``).  ``serve``
and ``watch`` evaluate alert rules at every window close
(``--slo-p99-ms``, ``--cold-budget``, ``--alert-for``).

Request-scoped tracing rides on top: ``serve --trace-requests`` attaches
per-cell p99 tail attribution (critical-path segments, slowest-request
exemplars) to the SLO report; flight-recorder histograms and firing
alerts carry exemplar trace ids; and ``repro trace`` replays the same
seeded flight to resolve any such id into its causal span tree
(``--trace-id``), list the slowest requests per cell (``--top``), or
emit the whole trace document (``--json``).  Telemetry-exporting
subcommands also accept ``--events-out PATH`` (the shared stage-event
log, streamed as JSONL).

All times are simulated milliseconds at paper scale (see DESIGN.md §7).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.analysis import render_table, run_boots
from repro.artifacts import get_bzimage, get_kernel
from repro.compress import measure as measure_codec
from repro.core import RandomizeMode
from repro.errors import BootFailure, FaultPlanError
from repro.faults import FAULT_KINDS, FaultPlan
from repro.host import HostStorage
from repro.kernel import PRESETS, KernelVariant
from repro.monitor import BootFormat, BootProtocol, Firecracker, Qemu, VmConfig
from repro.pipeline import PIPELINE_FLAVORS
from repro.security.audit import KaslrAuditor
from repro.simtime import CostModel, JitterModel
from repro.telemetry import (
    AlertManager,
    AlertRule,
    BurnRateRule,
    RequestTracer,
    Telemetry,
    TimeSeriesRecorder,
    request_paths,
    slowest,
    tail_attribution,
    to_chrome_trace,
    to_json_dump,
    to_prometheus,
)
from repro.telemetry.profiler import CostProfiler

_MODE_VARIANT = {
    RandomizeMode.NONE: KernelVariant.NOKASLR,
    RandomizeMode.KASLR: KernelVariant.KASLR,
    RandomizeMode.FGKASLR: KernelVariant.FGKASLR,
}


def _make_vmm(
    args,
    telemetry: Telemetry | None = None,
    profiler: CostProfiler | None = None,
) -> Firecracker:
    costs = CostModel(scale=args.scale, jitter=JitterModel(sigma=args.jitter))
    cls = Qemu if getattr(args, "qemu", False) else Firecracker
    return cls(
        HostStorage(),
        costs,
        telemetry=telemetry,
        profiler=profiler,
        fault_plan=_make_fault_plan(args),
    )


def _make_fault_plan(args) -> FaultPlan | None:
    """Parse every ``--inject-fault`` spec; None when the flag is absent.

    No plan object exists at all without the flag, preserving the
    zero-overhead (byte-identical output) contract for ordinary runs.
    """
    specs = getattr(args, "inject_fault", None)
    if not specs:
        return None
    return FaultPlan.parse(specs, seed=getattr(args, "fault_seed", 0))


def _make_profiler(args) -> CostProfiler | None:
    """A profiler when ``--profile`` asked for one, else None (no overhead)."""
    return CostProfiler() if getattr(args, "profile", None) else None


def _emit_profile(args, profiler: CostProfiler | None) -> None:
    """Honor ``--profile {folded,json,table}`` and ``--profile-out``."""
    if profiler is None:
        return
    content = profiler.render(args.profile)
    out = getattr(args, "profile_out", "-")
    if out == "-":
        sys.stdout.write(content)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(content)


def _write_text(path: str, content: str) -> None:
    if path == "-":
        sys.stdout.write(content)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(content)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _make_recorder(args) -> TimeSeriesRecorder | None:
    """A flight recorder when ``--timeseries-out`` asked for one."""
    if getattr(args, "timeseries_out", None) is None:
        return None
    return TimeSeriesRecorder(window_ns=int(round(args.window_ms * 1e6)))


def _emit_flight(args, recorder, auditor) -> None:
    """Honor ``--timeseries-out`` and ``--audit``/``--audit-out``."""
    if recorder is not None and getattr(args, "timeseries_out", None):
        _write_text(args.timeseries_out, _dump_json(recorder.to_json_dict()))
    if auditor is not None:
        _write_text(
            getattr(args, "audit_out", "-"), _dump_json(auditor.to_json_dict())
        )


def _render_export(telemetry: Telemetry, fmt: str) -> str:
    """One telemetry snapshot, serialized byte-stably in ``fmt``."""
    snapshot = telemetry.snapshot()
    if fmt == "prometheus":
        return to_prometheus(snapshot)
    if fmt == "chrome":
        obj = to_chrome_trace(snapshot)
    else:
        obj = to_json_dump(snapshot)
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _emit_telemetry(args, telemetry: Telemetry) -> None:
    """Honor ``--metrics``, ``--trace-export``/``--trace-out``, and
    ``--events-out`` (streamed JSONL — never materialized in memory)."""
    if getattr(args, "metrics", False):
        sys.stdout.write(to_prometheus(telemetry.snapshot()))
    fmt = getattr(args, "trace_export", None)
    if fmt:
        content = _render_export(telemetry, fmt)
        if args.trace_out == "-":
            sys.stdout.write(content)
        else:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                fh.write(content)
    events_out = getattr(args, "events_out", None)
    if events_out:
        if events_out == "-":
            telemetry.log.write_jsonl(sys.stdout)
        else:
            with open(events_out, "w", encoding="utf-8") as fh:
                telemetry.log.write_jsonl(fh)


def _build_cfg(args) -> VmConfig:
    mode = RandomizeMode(args.mode)
    kernel = get_kernel(args.kernel, _MODE_VARIANT[mode], scale=args.scale)
    if args.format == "bzimage":
        bz = get_bzimage(
            args.kernel,
            _MODE_VARIANT[mode],
            args.codec,
            scale=args.scale,
            optimized=args.optimized,
        )
        return VmConfig(
            kernel=kernel,
            boot_format=BootFormat.BZIMAGE,
            bzimage=bz,
            randomize=mode,
            mem_mib=args.mem,
            seed=args.seed,
        )
    return VmConfig(
        kernel=kernel,
        randomize=mode,
        boot_protocol=BootProtocol(args.protocol),
        mem_mib=args.mem,
        seed=args.seed,
    )


def _cmd_boot(args) -> int:
    telemetry = Telemetry()
    profiler = _make_profiler(args)
    vmm = _make_vmm(args, telemetry=telemetry, profiler=profiler)
    cfg = _build_cfg(args)
    if args.boots > 1 and (args.json or args.trace):
        print("--json/--trace report a single boot; drop --boots", file=sys.stderr)
        return 2
    if args.boots > 1:
        series = run_boots(vmm, cfg, n=args.boots, warm=not args.cold)
        print(
            render_table(
                ["metric", "mean", "min", "max"],
                [["total ms", series.total.mean, series.total.min, series.total.max]]
                + [
                    [name, stats, "", ""]
                    for name, stats in series.breakdown_means().items()
                ],
                title=f"{cfg.kernel.name} x{args.boots} boots "
                f"({'cold' if args.cold else 'cached'})",
            )
        )
        _emit_telemetry(args, telemetry)
        _emit_profile(args, profiler)
        return 0
    if not args.cold:
        vmm.warm_caches(cfg)
    else:
        cfg.drop_caches = True
    try:
        report = vmm.boot(cfg)
    except BootFailure as exc:
        # contained: report the attributed failure instead of a traceback
        if args.json:
            print(json.dumps({"failure": exc.to_json()}, indent=2))
        else:
            print(
                f"boot failed at stage {exc.stage} ({exc.kind}, "
                f"attempt {exc.attempt}): {exc}",
                file=sys.stderr,
            )
        _emit_telemetry(args, telemetry)
        _emit_profile(args, profiler)
        return 1
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        _emit_telemetry(args, telemetry)
        _emit_profile(args, profiler)
        return 0
    print(report.summary())
    if args.trace:
        print(
            render_table(
                ["stage", "principal", "start ms", "charged ms", "cache", "detail"],
                report.stage_rows(),
                title=f"pipeline stages ({report.vmm_name}, {report.boot_format})",
            )
        )
    if args.timeline:
        from repro.analysis import render_timeline

        print(render_timeline(report.timeline))
    for step, ms in sorted(report.steps_ms().items(), key=lambda kv: -kv[1]):
        if ms > 0:
            print(f"  {step:<26} {ms:9.3f} ms")
    layout = report.layout
    if layout.randomized:
        print(f"  virtual offset: {layout.voffset:#x} "
              f"({layout.total_entropy_bits:.1f} bits of entropy)")
    print(f"  verified {report.verification.functions_checked} functions / "
          f"{report.verification.sites_checked} relocation sites")
    _emit_telemetry(args, telemetry)
    _emit_profile(args, profiler)
    return 0


def _run_fleet(args):
    """Launch one seeded fleet.

    Returns ``(report, telemetry, profiler, recorder, auditor)``; the
    recorder and auditor are ``None`` unless ``--timeseries-out`` /
    ``--audit`` asked for them (zero overhead otherwise).
    """
    from repro.monitor import BootArtifactCache, FleetManager, default_workers

    recorder = _make_recorder(args)
    telemetry = Telemetry(timeseries=recorder)
    auditor = (
        KaslrAuditor(telemetry=telemetry)
        if getattr(args, "audit", False)
        else None
    )
    profiler = _make_profiler(args)
    vmm = _make_vmm(args, telemetry=telemetry, profiler=profiler)
    vmm.artifact_cache = BootArtifactCache(
        max_entries=args.cache_entries,
        registry=telemetry.registry,
        disk_path=getattr(args, "cache_dir", None),
    )
    cfg = _build_cfg(args)
    cfg.seed = None  # per-instance seeds come from the fleet manager
    workers = args.workers
    if workers is None:
        workers = default_workers(getattr(args, "workers_cap", 8))
    manager = FleetManager(
        vmm,
        workers=workers,
        auditor=auditor,
        executor=getattr(args, "executor", "thread"),
    )
    report = manager.launch(
        cfg,
        args.count,
        fleet_seed=args.seed,
        warm=not args.cold,
        retries=getattr(args, "retries", 1),
    )
    if recorder is not None:
        # the frame sequence tiles the fleet's whole wall-clock span
        recorder.close(int(round(report.makespan_ms * 1e6)))
    return report, telemetry, profiler, recorder, auditor


def _cmd_fleet(args) -> int:
    report, telemetry, profiler, recorder, auditor = _run_fleet(args)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
        _emit_telemetry(args, telemetry)
        _emit_profile(args, profiler)
        _emit_flight(args, recorder, auditor)
        return 0
    print(report.summary())
    for failure in report.failures:
        print(
            f"  boot {failure.index} failed at {failure.stage} "
            f"({failure.kind}, attempt {failure.attempt}): {failure}"
        )
    if args.trace and report.boots:
        first = report.boots[0].report
        print(
            render_table(
                ["stage", "principal", "start ms", "charged ms", "cache", "detail"],
                first.stage_rows(),
                title=f"pipeline stages (boot 0 of {report.n_vms})",
            )
        )
    print(
        render_table(
            ["stage", "p50 ms", "p99 ms", "mean ms", "max ms"],
            report.stage_rows(),
            title=f"per-boot stage latency across {report.n_vms} VMs",
        )
    )
    print(
        f"  {report.unique_layouts} distinct layouts across {report.n_vms} VMs"
    )
    _emit_telemetry(args, telemetry)
    _emit_profile(args, profiler)
    _emit_flight(args, recorder, auditor)
    return 0


def _cmd_metrics(args) -> int:
    """Run one seeded fleet and print its Prometheus metrics text."""
    _report, telemetry, _profiler, recorder, auditor = _run_fleet(args)
    sys.stdout.write(to_prometheus(telemetry.snapshot()))
    _emit_flight(args, recorder, auditor)
    return 0


def _cmd_profile(args) -> int:
    """Run a seeded fleet under the profiler and print the attribution."""
    args.profile = args.fmt  # reuse the boot/fleet profiler plumbing
    args.profile_out = args.out
    _report, _telemetry, profiler, recorder, auditor = _run_fleet(args)
    _emit_profile(args, profiler)
    _emit_flight(args, recorder, auditor)
    return 0


def _cmd_bench_compare(args) -> int:
    from repro.tools.benchgate import run_compare

    return run_compare(
        results_dir=args.results,
        baselines_path=args.baselines,
        update=args.update,
        strict=args.strict,
        write=sys.stdout.write,
    )


def _cmd_cache(args) -> int:
    """Inspect or evict the persistent on-disk artifact-cache tier."""
    from repro.monitor import DiskCacheTier

    tier = DiskCacheTier(args.dir)
    if args.clear:
        removed = tier.clear()
        print(f"evicted {removed} entries from {tier.path}")
        return 0
    if args.evict is not None:
        removed = tier.evict(args.evict)
        print(f"evicted {removed} entries matching {args.evict!r} "
              f"from {tier.path}")
        return 0
    rows = tier.entries()
    if args.json:
        print(json.dumps({"dir": str(tier.path), "entries": rows}, indent=2))
        return 0
    if not rows:
        print(f"cache tier at {tier.path} is empty")
        return 0
    print(render_table(
        ["file", "bytes", "image digest", "policy", "seed class", "valid"],
        [[r["file"], str(r["bytes"]),
          (r.get("image_digest") or "?")[:12],
          (r.get("policy") or "?")[:12],
          r.get("seed_class") or "?",
          "yes" if r.get("valid") else "NO"]
         for r in rows],
        title=f"disk cache tier at {tier.path}",
    ))
    return 0


def _cmd_sizes(args) -> int:
    rows = []
    for name in ("lupine", "aws", "ubuntu"):
        for variant in KernelVariant:
            kernel = get_kernel(name, variant, scale=args.scale)
            bz_none = get_bzimage(name, variant, "none", scale=args.scale)
            bz_lz4 = get_bzimage(name, variant, "lz4", scale=args.scale)
            mb = 1024 * 1024 / args.scale  # paper-scale MiB per actual byte
            rows.append(
                [
                    kernel.name,
                    f"{kernel.vmlinux_size / mb:.1f}M",
                    f"{bz_none.size / mb:.1f}M",
                    f"{bz_lz4.size / mb:.1f}M",
                    f"{kernel.relocs_size * args.scale // 1024}K"
                    if kernel.relocs_size
                    else "N/A",
                ]
            )
    print(
        render_table(
            ["kernel", "vmlinux", "bzImage(none)", "bzImage(lz4)", "relocs"],
            rows,
            title="Table 1 (paper scale)",
        )
    )
    return 0


def _cmd_codecs(args) -> int:
    kernel = get_kernel(args.kernel, KernelVariant.KASLR, scale=args.scale)
    rows = []
    for codec in ("none", "lz4", "lzo", "gzip", "bzip2", "xz", "lzma"):
        stats = measure_codec(codec, kernel.vmlinux)
        rows.append([codec, f"{stats.ratio:.3f}", f"{stats.savings_pct:.1f}%"])
    print(
        render_table(
            ["codec", "ratio", "savings"],
            rows,
            title=f"compression of {kernel.name} vmlinux",
        )
    )
    return 0


def _cmd_lebench(args) -> int:
    from repro.lebench import run_lebench

    vmm = _make_vmm(args)
    results = {}
    for mode in (RandomizeMode.NONE, RandomizeMode.KASLR, RandomizeMode.FGKASLR):
        kernel = get_kernel(args.kernel, _MODE_VARIANT[mode], scale=args.scale)
        cfg = VmConfig(kernel=kernel, randomize=mode, seed=args.seed)
        vmm.warm_caches(cfg)
        report = vmm.boot(cfg)
        results[mode] = run_lebench(kernel, report.layout)
    base = results[RandomizeMode.NONE]
    rows = [
        [
            name,
            f"{results[RandomizeMode.KASLR].normalized_to(base)[name]:.3f}",
            f"{results[RandomizeMode.FGKASLR].normalized_to(base)[name]:.3f}",
        ]
        for name in base.by_name()
    ]
    print(
        render_table(
            ["test", "kaslr", "fgkaslr"],
            rows,
            title=f"LEBench normalized to {args.kernel}-nokaslr",
        )
    )
    return 0


def _cmd_entropy(args) -> int:
    from repro.security import GadgetCatalog, simulate_leak_attack

    vmm = _make_vmm(args)
    for mode in (RandomizeMode.KASLR, RandomizeMode.FGKASLR):
        kernel = get_kernel(args.kernel, _MODE_VARIANT[mode], scale=args.scale)
        cfg = VmConfig(kernel=kernel, randomize=mode, seed=args.seed)
        vmm.warm_caches(cfg)
        report = vmm.boot(cfg)
        catalog = GadgetCatalog.from_kernel(kernel, n_gadgets=200, seed=0)
        leak = simulate_leak_attack(kernel, report.layout, catalog, n_leaks=1)
        print(f"{kernel.name}: {report.layout.total_entropy_bits:.1f} bits; "
              f"one leak locates {leak.located_fraction * 100:.1f}% of gadgets")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments import run_experiment

    result = run_experiment(args.id, boots=args.boots, scale=args.scale)
    print(result.table())
    return 0


def _cmd_serve(args) -> int:
    """Play open-loop traffic against warm pools; print the SLO report."""
    from repro.serve import (
        ArrivalSpec,
        AutoscalePolicy,
        SampledBackend,
        ServeConfig,
        ServeEngine,
        SloReport,
        StrategySlo,
    )
    from repro.workloads import FUNCTIONS, InstanceStrategy, ServerlessPlatform

    strategies = (
        list(InstanceStrategy)
        if args.strategy == "all"
        else [InstanceStrategy(args.strategy)]
    )
    rates = args.rate or [40.0]
    if args.function not in FUNCTIONS:
        print(
            f"unknown function {args.function!r}; "
            f"known: {', '.join(sorted(FUNCTIONS))}",
            file=sys.stderr,
        )
        return 2
    spec = FUNCTIONS[args.function]
    mode = RandomizeMode(args.mode)
    policy = AutoscalePolicy(
        min_ready=args.pool_min,
        max_ready=args.pool_max,
        scale_up_depth=args.scale_up_depth,
        idle_ns=int(round(args.idle_ms * 1e6)),
    )
    config = ServeConfig(
        policy=policy,
        provisioners=args.provisioners,
        queue_cap=args.queue_cap,
        deadline_ns=int(round(args.deadline_ms * 1e6)),
    )
    want_recorder = getattr(args, "timeseries_out", None) is not None
    # the tracer rides along whenever a flight recorder runs (so firing
    # alerts carry exemplar trace ids) or --trace-requests asked for the
    # SLO tail section; plain runs stay tracer-free and byte-identical
    tracer = (
        RequestTracer(args.seed)
        if want_recorder or args.trace_requests
        else None
    )
    telemetry = Telemetry(tracer=tracer)
    # lifecycle events (one ``serve:<cell>`` track per cell) are recorded
    # only for flights whose event log leaves the process
    lifecycle = (want_recorder or args.audit) and bool(
        args.trace_export or args.events_out
    )
    auditor = KaslrAuditor(telemetry=telemetry) if args.audit else None
    window_ns = int(round(args.window_ms * 1e6))
    slo_ms = (
        args.slo_p99_ms if args.slo_p99_ms is not None else args.deadline_ms
    )
    rows = []
    cells = []
    for strategy in strategies:
        # a fresh monitor per strategy: independent cost-jitter streams,
        # so strategies stay comparable and byte-stable in any order.
        # Each strategy writes metrics through its own scope, so counters
        # never bleed between strategies sharing this process.
        scope = telemetry.scoped(strategy=strategy.value)
        vmm = _make_vmm(args, telemetry=scope)
        kernel = get_kernel(args.kernel, _MODE_VARIANT[mode], scale=args.scale)
        platform = ServerlessPlatform(
            vmm,
            lambda seed, k=kernel, m=mode: VmConfig(
                kernel=k, randomize=m, seed=seed
            ),
            strategy=strategy,
        )
        backend = SampledBackend.from_platform(
            platform,
            spec,
            n_samples=args.samples,
            seed=args.seed,
            tracer=(
                tracer.scoped(strategy.value) if tracer is not None else None
            ),
        )
        for rate in rates:
            cell = f"{strategy.value}@{rate:g}"
            recorder = alerts = None
            if want_recorder:
                recorder = TimeSeriesRecorder(window_ns=window_ns)
                alerts = AlertManager(
                    _serve_alert_rules(args, slo_ms),
                    telemetry=telemetry,
                    track=f"alerts:{cell}",
                ).attach(recorder)
            engine = ServeEngine(
                backend,
                config,
                telemetry=scope,
                labels={"strategy": strategy.value, "mix": args.arrivals},
                recorder=recorder,
                auditor=auditor,
                track=f"serve:{cell}" if lifecycle else None,
                tracer=tracer.scoped(cell) if tracer is not None else None,
            )
            result = engine.run(
                ArrivalSpec(
                    rate_per_s=rate,
                    duration_s=args.duration,
                    mix=args.arrivals,
                    seed=args.seed,
                )
            )
            tail = (
                _cell_tail(tracer, cell)
                if tracer is not None and args.trace_requests
                else None
            )
            rows.append(
                StrategySlo.from_result(
                    result,
                    strategy=strategy.value,
                    mix=args.arrivals,
                    rate_per_s=rate,
                    duration_s=args.duration,
                    tail=tail,
                )
            )
            if recorder is not None:
                cells.append(
                    {
                        "strategy": strategy.value,
                        "mix": args.arrivals,
                        "rate_per_s": rate,
                        "timeseries": recorder.to_json_dict(),
                        "alerts": alerts.to_json_dict(),
                    }
                )
    report = SloReport(
        seed=args.seed,
        function=args.function,
        mix=args.arrivals,
        duration_s=args.duration,
        pool_min=args.pool_min,
        pool_max=args.pool_max,
        provisioners=args.provisioners,
        queue_cap=args.queue_cap,
        deadline_ms=args.deadline_ms,
        samples_per_strategy=args.samples,
        rows=tuple(rows),
    )
    if args.json:
        sys.stdout.write(report.to_json())
        _emit_telemetry(args, telemetry)
        _emit_serve_flight(args, cells, auditor)
        return 0
    print(
        render_table(
            ["strategy", "rate/s", "served", "failed", "cold%",
             "p50 ms", "p99 ms", "peak q", "busy"],
            [
                [
                    r.strategy,
                    f"{r.rate_per_s:g}",
                    r.served,
                    r.rejected + r.deadline_missed,
                    f"{r.cold_frac * 100:.1f}",
                    f"{r.p50_ms:.3f}",
                    f"{r.p99_ms:.3f}",
                    r.max_queue_depth,
                    f"{r.provisioner_busy:.2f}",
                ]
                for r in report.rows
            ],
            title=f"{args.function} under {args.arrivals} arrivals "
            f"({args.duration:g}s, pool {args.pool_min}..{args.pool_max})",
        )
    )
    for r in report.rows:
        if r.tail is not None:
            print(f"  {r.strategy}@{r.rate_per_s:g}: {_format_tail(r.tail)}")
            for s in r.tail["slowest"]:
                print(
                    f"    {s['trace_id']}  req {s['request']}  "
                    f"{s['latency_ms']:.3f} ms  "
                    f"{'cold' if s['cold'] else 'warm'}"
                )
    _emit_telemetry(args, telemetry)
    _emit_serve_flight(args, cells, auditor)
    return 0


#: exemplar trace ids pinned per tail-attribution section
_TAIL_TOP_K = 3


def _cell_tail(tracer: RequestTracer, cell: str, top: int = _TAIL_TOP_K) -> dict | None:
    """One cell's tail attribution + slowest exemplars, JSON-shaped.

    Conservation is enforced on the way through: ``request_paths``
    re-checks every critical path (segments must sum *exactly* to the
    request latency) before anything is aggregated.
    """
    prefix = f"{cell}/req/"
    paths = request_paths(
        ctx for ctx in tracer.traces() if ctx.key.startswith(prefix)
    )
    att = tail_attribution(paths)
    if att is None:
        return None
    return {
        **att.to_json(),
        "slowest": [
            {
                "trace_id": p.trace_id,
                "request": p.request,
                "latency_ms": round(p.latency_ns / 1e6, 4),
                "cold": p.cold,
            }
            for p in slowest(paths, top)
        ],
    }


def _format_tail(tail: dict) -> str:
    """'p99 requests spend 72% in provision.X / 21% in queued / ...'."""
    fractions = tail["fractions"]
    parts = " / ".join(
        f"{fractions[kind] * 100:.1f}% {kind}"
        for kind in sorted(fractions, key=lambda k: (-fractions[k], k))
    )
    return (
        f"p{tail['percentile']:g} tail ({tail['requests']} requests >= "
        f"{tail['threshold_ms']:g} ms): {parts}"
    )


def _serve_alert_rules(args, slo_ms: float) -> tuple:
    """The default serve alert set: latency threshold + cold-start burn."""
    return (
        AlertRule(
            "p99-above-slo",
            "serve_latency_ms",
            "p99",
            ">",
            slo_ms,
            for_windows=args.alert_for,
        ),
        BurnRateRule(
            "cold-start-burn",
            "serve_cold_starts",
            "serve_served",
            budget=args.cold_budget,
            long_windows=4,
            short_windows=1,
        ),
    )


def _emit_serve_flight(args, cells: list, auditor) -> None:
    """Write the per-cell flight-recorder document and the audit report."""
    if getattr(args, "timeseries_out", None):
        doc = {
            "schema_version": 1,
            "window_ms": round(args.window_ms, 6),
            "cells": cells,
        }
        _write_text(args.timeseries_out, _dump_json(doc))
    if auditor is not None:
        _write_text(args.audit_out, _dump_json(auditor.to_json_dict()))


def _cmd_watch(args) -> int:
    """Flight-recorder view of one serve cell: window table + alerts."""
    from repro.serve import (
        ArrivalSpec,
        AutoscalePolicy,
        SampledBackend,
        ServeConfig,
        ServeEngine,
    )
    from repro.workloads import FUNCTIONS, InstanceStrategy, ServerlessPlatform

    if args.function not in FUNCTIONS:
        print(
            f"unknown function {args.function!r}; "
            f"known: {', '.join(sorted(FUNCTIONS))}",
            file=sys.stderr,
        )
        return 2
    spec = FUNCTIONS[args.function]
    strategy = InstanceStrategy(args.strategy)
    mode = RandomizeMode(args.mode)
    tracer = RequestTracer(args.seed)
    telemetry = Telemetry(tracer=tracer)
    scope = telemetry.scoped(strategy=strategy.value)
    vmm = _make_vmm(args, telemetry=scope)
    kernel = get_kernel(args.kernel, _MODE_VARIANT[mode], scale=args.scale)
    platform = ServerlessPlatform(
        vmm,
        lambda seed, k=kernel, m=mode: VmConfig(
            kernel=k, randomize=m, seed=seed
        ),
        strategy=strategy,
    )
    backend = SampledBackend.from_platform(
        platform,
        spec,
        n_samples=args.samples,
        seed=args.seed,
        tracer=tracer.scoped(strategy.value),
    )
    config = ServeConfig(
        policy=AutoscalePolicy(
            min_ready=args.pool_min,
            max_ready=args.pool_max,
            scale_up_depth=args.scale_up_depth,
            idle_ns=int(round(args.idle_ms * 1e6)),
        ),
        provisioners=args.provisioners,
        queue_cap=args.queue_cap,
        deadline_ns=int(round(args.deadline_ms * 1e6)),
    )
    cell = f"{strategy.value}@{args.rate:g}"
    recorder = TimeSeriesRecorder(
        window_ns=int(round(args.window_ms * 1e6))
    )
    slo_ms = (
        args.slo_p99_ms if args.slo_p99_ms is not None else args.deadline_ms
    )
    alerts = AlertManager(
        _serve_alert_rules(args, slo_ms),
        telemetry=telemetry,
        track=f"alerts:{cell}",
    ).attach(recorder)
    auditor = KaslrAuditor(telemetry=telemetry) if args.audit else None
    engine = ServeEngine(
        backend,
        config,
        telemetry=scope,
        labels={"strategy": strategy.value, "mix": args.arrivals},
        recorder=recorder,
        auditor=auditor,
        tracer=tracer.scoped(cell),
    )
    engine.run(
        ArrivalSpec(
            rate_per_s=args.rate,
            duration_s=args.duration,
            mix=args.arrivals,
            seed=args.seed,
        )
    )
    transitions = alerts.to_json_dict()["transitions"]
    if args.json:
        doc = {
            "schema_version": 1,
            "window_ms": round(args.window_ms, 6),
            "cells": [
                {
                    "strategy": strategy.value,
                    "mix": args.arrivals,
                    "rate_per_s": args.rate,
                    "timeseries": recorder.to_json_dict(),
                    "alerts": alerts.to_json_dict(),
                }
            ],
        }
        if auditor is not None:
            doc["audit"] = auditor.to_json_dict()
        sys.stdout.write(_dump_json(doc))
        return 0

    def cnt(frame, series: str) -> int:
        return int(frame.value(series, "delta") or 0)

    print(
        render_table(
            ["win", "start ms", "arrive", "served", "cold", "evict",
             "p99 ms", "q max"],
            [
                [
                    frame.index,
                    f"{frame.start_ns / 1e6:g}",
                    cnt(frame, "serve_arrivals"),
                    cnt(frame, "serve_served"),
                    cnt(frame, "serve_cold_starts"),
                    cnt(frame, "serve_evicted"),
                    f"{frame.value('serve_latency_ms', 'p99') or 0:.3f}",
                    int(frame.value("serve_queue_depth", "max") or 0),
                ]
                for frame in recorder.windows()
            ],
            title=f"{cell} under {args.arrivals} arrivals "
            f"(window {args.window_ms:g} ms)",
        )
    )
    if transitions:
        for t in transitions:
            value = "-" if t["value"] is None else f"{t['value']:g}"
            traces = (
                " traces=" + ",".join(t["exemplars"])
                if t.get("exemplars")
                else ""
            )
            print(
                f"  [{t['at_ms']:9.1f} ms] {t['rule']}: "
                f"{t['from']} -> {t['to']} (value {value}){traces}"
            )
    else:
        print("  no alert transitions")
    if auditor is not None:
        for name, audit in sorted(
            auditor.to_json_dict()["strategies"].items()
        ):
            print(
                f"  audit {name}: {audit['distinct_layouts']} distinct "
                f"layouts / {audit['boots']} instances "
                f"({audit['entropy_bits']:.2f} bits, "
                f"{audit['duplicates']} duplicates)"
            )
    return 0


def _cmd_trace(args) -> int:
    """Replay a seeded serve flight under the tracer; resolve span trees.

    Trace ids are pure functions of ``(seed, key)``, so this command
    resolves exemplar ids found in flight-recorder documents written by
    a *separate* ``repro serve``/``repro watch`` invocation — rerun the
    same flight shape here and ``--trace-id`` lands on the same tree.
    """
    from repro.serve import (
        ArrivalSpec,
        AutoscalePolicy,
        SampledBackend,
        ServeConfig,
        ServeEngine,
    )
    from repro.workloads import FUNCTIONS, InstanceStrategy, ServerlessPlatform

    strategies = (
        list(InstanceStrategy)
        if args.strategy == "all"
        else [InstanceStrategy(args.strategy)]
    )
    rates = args.rate or [40.0]
    if args.function not in FUNCTIONS:
        print(
            f"unknown function {args.function!r}; "
            f"known: {', '.join(sorted(FUNCTIONS))}",
            file=sys.stderr,
        )
        return 2
    spec = FUNCTIONS[args.function]
    mode = RandomizeMode(args.mode)
    config = ServeConfig(
        policy=AutoscalePolicy(
            min_ready=args.pool_min,
            max_ready=args.pool_max,
            scale_up_depth=args.scale_up_depth,
            idle_ns=int(round(args.idle_ms * 1e6)),
        ),
        provisioners=args.provisioners,
        queue_cap=args.queue_cap,
        deadline_ns=int(round(args.deadline_ms * 1e6)),
    )
    tracer = RequestTracer(args.seed)
    telemetry = Telemetry(tracer=tracer)
    cells = []
    for strategy in strategies:
        scope = telemetry.scoped(strategy=strategy.value)
        vmm = _make_vmm(args, telemetry=scope)
        kernel = get_kernel(args.kernel, _MODE_VARIANT[mode], scale=args.scale)
        platform = ServerlessPlatform(
            vmm,
            lambda seed, k=kernel, m=mode: VmConfig(
                kernel=k, randomize=m, seed=seed
            ),
            strategy=strategy,
        )
        backend = SampledBackend.from_platform(
            platform,
            spec,
            n_samples=args.samples,
            seed=args.seed,
            tracer=tracer.scoped(strategy.value),
        )
        for rate in rates:
            cell = f"{strategy.value}@{rate:g}"
            engine = ServeEngine(
                backend,
                config,
                telemetry=scope,
                labels={"strategy": strategy.value, "mix": args.arrivals},
                tracer=tracer.scoped(cell),
            )
            result = engine.run(
                ArrivalSpec(
                    rate_per_s=rate,
                    duration_s=args.duration,
                    mix=args.arrivals,
                    seed=args.seed,
                )
            )
            paths = request_paths(
                ctx
                for ctx in tracer.traces()
                if ctx.key.startswith(f"{cell}/req/")
            )
            att = tail_attribution(paths)
            top = slowest(paths, args.top)
            cells.append(
                {
                    "strategy": strategy.value,
                    "mix": args.arrivals,
                    "rate_per_s": rate,
                    "arrivals": result.arrivals,
                    "served": result.served,
                    "tail": att.to_json() if att is not None else None,
                    "slowest": [p.to_json() for p in top],
                    "traces": {
                        p.trace_id: tracer.get(p.trace_id).to_json()
                        for p in top
                    },
                }
            )
    if args.trace_id:
        ctx = tracer.get(args.trace_id)
        if ctx is None:
            print(
                f"trace {args.trace_id} not found in this flight "
                f"(seed {args.seed}, {len(tracer.traces())} traces minted); "
                "rerun with the serve flags the exemplar came from",
                file=sys.stderr,
            )
            return 1
        if args.json:
            sys.stdout.write(
                _dump_json({"trace_id": ctx.trace_id, **ctx.to_json()})
            )
        else:
            _print_trace_tree(ctx)
        return 0
    if args.json:
        doc = {
            "schema_version": 1,
            "seed": args.seed,
            "function": args.function,
            "mix": args.arrivals,
            "duration_s": args.duration,
            "samples_per_strategy": args.samples,
            "cells": cells,
        }
        sys.stdout.write(_dump_json(doc))
        return 0
    for info in cells:
        label = f"{info['strategy']}@{info['rate_per_s']:g}"
        if info["tail"] is None:
            print(f"{label}: nothing served")
            continue
        print(f"{label}: {_format_tail(info['tail'])}")
        for p in info["slowest"]:
            segs = " ".join(
                f"{kind}={ns / 1e6:.3f}ms"
                for kind, ns in sorted(
                    p["segments"].items(), key=lambda kv: (-kv[1], kv[0])
                )
            )
            print(
                f"  {p['trace_id']}  req {p['request']}  "
                f"{p['latency_ns'] / 1e6:.3f} ms  "
                f"{'cold' if p['cold'] else 'warm'}  {segs}"
            )
    return 0


def _print_trace_tree(ctx) -> None:
    """Indented parent→child walk of one trace's span tree."""
    spans = ctx.spans()
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)

    def walk(span, depth: int) -> None:
        attrs = (
            "  " + json.dumps(span.attrs, sort_keys=True, default=str)
            if span.attrs
            else ""
        )
        print(
            f"  {'  ' * depth}{span.name} [{span.kind}] "
            f"{span.start_ns / 1e6:.3f}..{span.end_ns / 1e6:.3f} ms "
            f"(+{span.duration_ns / 1e6:.3f}){attrs}"
        )
        for child in children.get(span.span_id, []):
            walk(child, depth + 1)

    print(f"trace {ctx.trace_id}  key {ctx.key}  spans {len(spans)}")
    for root in children.get(None, []):
        walk(root, 0)


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--metrics", action="store_true",
                        help="print Prometheus metrics text after the report")
    parser.add_argument("--trace-export",
                        choices=["chrome", "json", "prometheus"],
                        help="export the telemetry snapshot in this format")
    parser.add_argument("--trace-out", default="-", metavar="PATH",
                        help="trace export destination ('-' = stdout)")
    parser.add_argument("--events-out", default=None, metavar="PATH",
                        help="stream the shared telemetry event log as "
                             "JSONL here ('-' = stdout)")
    parser.add_argument("--profile", choices=["folded", "json", "table"],
                        help="attribute every simulated ns and emit the "
                             "cost profile in this format")
    parser.add_argument("--profile-out", default="-", metavar="PATH",
                        help="profile destination ('-' = stdout)")


def _add_recorder_flags(
    parser: argparse.ArgumentParser, window_ms: float
) -> None:
    parser.add_argument("--timeseries-out", default=None, metavar="PATH",
                        help="record windowed time series and write the "
                             "flight-recorder JSON here ('-' = stdout)")
    parser.add_argument("--window-ms", type=float, default=window_ms,
                        help="flight-recorder window width in simulated ms "
                             f"(default {window_ms:g})")
    parser.add_argument("--audit", action="store_true",
                        help="fingerprint every produced KASLR layout "
                             "(distinct-layout fraction, entropy, lifetime)")
    parser.add_argument("--audit-out", default="-", metavar="PATH",
                        help="audit report destination ('-' = stdout)")


def _add_alert_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--slo-p99-ms", type=float, default=None,
                        help="per-window p99 latency threshold for the "
                             "alert rule (default: the request deadline)")
    parser.add_argument("--cold-budget", type=float, default=0.25,
                        help="cold-start SLO budget as a fraction of "
                             "serves (burn-rate alert; default 0.25)")
    parser.add_argument("--alert-for", type=int, default=1,
                        help="windows a threshold breach must persist "
                             "before the alert fires (default 1)")


def _add_fleet_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", choices=sorted(PRESETS), default="aws")
    parser.add_argument("--mode", choices=[m.value for m in RandomizeMode],
                        default="fgkaslr")
    parser.add_argument("--format", choices=["vmlinux", "bzimage"],
                        default="vmlinux")
    parser.add_argument("--codec", default="lz4")
    parser.add_argument("--optimized", action="store_true",
                        help="compression-none-optimized bzImage layout")
    parser.add_argument("--protocol", choices=[p.value for p in BootProtocol],
                        default="linux64")
    parser.add_argument("--mem", type=int, default=256, help="guest MiB")
    parser.add_argument("--count", "--vms", dest="count", type=int, default=64,
                        help="fleet size")
    parser.add_argument("--workers", type=int, default=None,
                        help="concurrent boot slots "
                             "(default: host cores, capped at 8)")
    parser.add_argument("--executor", choices=["thread", "process"],
                        default="thread",
                        help="boot backend: in-process threads or a "
                             "multiprocess engine with shared-memory "
                             "artifacts (default thread)")
    parser.add_argument("--seed", type=int, default=1,
                        help="fleet seed (per-VM seeds derive from it)")
    parser.add_argument("--cache-entries", type=int, default=64,
                        help="boot-artifact cache capacity")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent on-disk artifact-cache tier "
                             "(survives across invocations)")
    parser.add_argument("--cold", action="store_true",
                        help="skip warm-up (measure cold caches)")
    _add_fault_flags(parser)
    _add_recorder_flags(parser, window_ms=50.0)
    parser.add_argument("--retries", type=int, default=1,
                        help="retry budget per failed boot (default 1)")


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--inject-fault", action="append", metavar="SPEC", default=None,
        help="deterministic fault spec "
             "stage=<s>,kind=<k>[,rate=<r>][,seed=<n>][,boot=<i>] "
             "(repeatable; see 'repro faults' for stages and kinds)",
    )
    parser.add_argument("--fault-seed", type=int, default=0,
                        help="fault-plan seed (decorrelates rate draws)")


def _cmd_faults(args) -> int:
    """List the injectable fault kinds and the stage names they can target."""
    if args.json:
        print(json.dumps(
            {"kinds": FAULT_KINDS,
             "stages": {k: list(v) for k, v in PIPELINE_FLAVORS.items()}},
            indent=2, sort_keys=True,
        ))
        return 0
    print(render_table(
        ["kind", "effect"],
        [[kind, desc] for kind, desc in sorted(FAULT_KINDS.items())],
        title="injectable fault kinds",
    ))
    print(render_table(
        ["pipeline", "stages"],
        [[flavor, " ".join(stages)]
         for flavor, stages in PIPELINE_FLAVORS.items()],
        title="stage names by pipeline flavor",
    ))
    print("spec syntax: stage=<s>,kind=<k>[,rate=<r>][,seed=<n>][,boot=<i>]")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scale", type=int, default=16,
                        help="kernel build scale divisor (default 16)")
    common.add_argument("--jitter", type=float, default=0.0,
                        help="run-to-run noise sigma (default 0)")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="In-monitor (FG)KASLR reproduction (EuroSys 2022)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    boot = sub.add_parser("boot", parents=[common],
                          help="boot one microVM and print the breakdown")
    boot.add_argument("--kernel", choices=sorted(PRESETS), default="aws")
    boot.add_argument("--mode", choices=[m.value for m in RandomizeMode],
                      default="kaslr")
    boot.add_argument("--format", choices=["vmlinux", "bzimage"], default="vmlinux")
    boot.add_argument("--codec", default="lz4")
    boot.add_argument("--optimized", action="store_true",
                      help="compression-none-optimized bzImage layout")
    boot.add_argument("--protocol", choices=[p.value for p in BootProtocol],
                      default="linux64")
    boot.add_argument("--mem", type=int, default=256, help="guest MiB")
    boot.add_argument("--seed", type=int, default=1)
    boot.add_argument("--boots", type=int, default=1, help="measure N boots")
    boot.add_argument("--cold", action="store_true", help="drop caches first")
    boot.add_argument("--qemu", action="store_true", help="QEMU monitor profile")
    boot.add_argument("--timeline", action="store_true",
                      help="render an ASCII Gantt of the boot")
    boot.add_argument("--json", action="store_true",
                      help="emit the full boot report as JSON")
    boot.add_argument("--trace", action="store_true",
                      help="print the pipeline stage span table")
    _add_fault_flags(boot)
    _add_telemetry_flags(boot)
    boot.set_defaults(func=_cmd_boot)

    fleet = sub.add_parser(
        "fleet", parents=[common],
        help="boot a fleet through the artifact cache (Section 6)",
    )
    _add_fleet_options(fleet)
    fleet.add_argument("--json", action="store_true",
                       help="emit the full fleet report as JSON")
    fleet.add_argument("--trace", action="store_true",
                       help="print the first boot's pipeline stage table")
    _add_telemetry_flags(fleet)
    fleet.set_defaults(func=_cmd_fleet)

    metrics = sub.add_parser(
        "metrics", parents=[common],
        help="run a seeded fleet and print Prometheus metrics text",
    )
    _add_fleet_options(metrics)
    metrics.set_defaults(func=_cmd_metrics, count=4, workers_cap=4)

    profile = sub.add_parser(
        "profile", parents=[common],
        help="run a seeded fleet under the cost profiler and print "
             "the per-nanosecond attribution",
    )
    _add_fleet_options(profile)
    profile.add_argument("--fmt", choices=["folded", "json", "table"],
                         default="folded",
                         help="output format (folded = flamegraph stacks)")
    profile.add_argument("--out", default="-", metavar="PATH",
                         help="profile destination ('-' = stdout)")
    profile.set_defaults(func=_cmd_profile, count=4, workers_cap=4)

    bench = sub.add_parser(
        "bench-compare",
        help="compare benchmarks/results/BENCH_*.json against the "
             "committed baselines; non-zero exit on regression",
    )
    bench.add_argument("--results", default="benchmarks/results",
                       metavar="DIR", help="directory holding BENCH_*.json")
    bench.add_argument("--baselines", default="benchmarks/baselines.json",
                       metavar="PATH", help="committed baseline store")
    bench.add_argument("--update", action="store_true",
                       help="rewrite the baseline store from the results")
    bench.add_argument("--strict", action="store_true",
                       help="fail when a baselined benchmark produced no result")
    bench.set_defaults(func=_cmd_bench_compare)

    cache = sub.add_parser(
        "cache",
        help="inspect or evict the persistent boot-artifact cache tier",
    )
    cache.add_argument("--dir", required=True, metavar="DIR",
                       help="cache-tier directory (same as fleet --cache-dir)")
    cache.add_argument("--evict", metavar="PREFIX", default=None,
                       help="remove entries whose file name starts "
                            "with PREFIX")
    cache.add_argument("--clear", action="store_true",
                       help="remove every entry")
    cache.add_argument("--json", action="store_true",
                       help="emit the inventory as JSON")
    cache.set_defaults(func=_cmd_cache)

    sizes = sub.add_parser("sizes", parents=[common], help="regenerate Table 1")
    sizes.set_defaults(func=_cmd_sizes)

    codecs = sub.add_parser("codecs", parents=[common], help="compression stats for a kernel")
    codecs.add_argument("--kernel", choices=sorted(PRESETS), default="lupine")
    codecs.set_defaults(func=_cmd_codecs)

    lebench = sub.add_parser("lebench", parents=[common], help="Figure 11 summary")
    lebench.add_argument("--kernel", choices=sorted(PRESETS), default="aws")
    lebench.add_argument("--seed", type=int, default=1)
    lebench.set_defaults(func=_cmd_lebench)

    entropy = sub.add_parser("entropy", parents=[common], help="entropy and value-of-a-leak")
    entropy.add_argument("--kernel", choices=sorted(PRESETS), default="aws")
    entropy.add_argument("--seed", type=int, default=1)
    entropy.set_defaults(func=_cmd_entropy)

    experiment = sub.add_parser(
        "experiment", parents=[common],
        help="run an artifact experiment (Appendix A: e1..e5)",
    )
    experiment.add_argument("id", choices=["e1", "e2", "e3", "e4", "e5"])
    experiment.add_argument("--boots", type=int, default=20)
    experiment.set_defaults(func=_cmd_experiment)

    serve = sub.add_parser(
        "serve", parents=[common],
        help="serverless control plane: open-loop traffic against warm "
             "pools; prints the SLO report",
    )
    serve.add_argument("--kernel", choices=sorted(PRESETS), default="aws")
    serve.add_argument("--mode", choices=[m.value for m in RandomizeMode],
                       default="kaslr")
    serve.add_argument("--function", default="api-echo",
                       help="workload function (see repro.workloads.FUNCTIONS)")
    serve.add_argument("--arrivals",
                       choices=["poisson", "bursty", "diurnal"],
                       default="poisson", help="open-loop traffic shape")
    serve.add_argument("--rate", type=float, action="append", metavar="PER_S",
                       help="offered load in requests/s (repeatable; "
                            "default 40)")
    serve.add_argument("--duration", type=float, default=10.0,
                       help="simulated seconds of traffic (default 10)")
    serve.add_argument("--strategy",
                       choices=["cold-boot", "restore", "restore-rebase",
                                "all"],
                       default="all", help="instance production strategy")
    serve.add_argument("--seed", type=int, default=1,
                       help="seed for traffic and production sampling")
    serve.add_argument("--samples", type=int, default=8,
                       help="real productions measured per strategy")
    serve.add_argument("--pool-min", type=int, default=2,
                       help="warm-pool floor (prewarmed instances)")
    serve.add_argument("--pool-max", type=int, default=16,
                       help="warm-pool ceiling (autoscale cap)")
    serve.add_argument("--scale-up-depth", type=int, default=2,
                       help="queue depth that triggers scale-up")
    serve.add_argument("--idle-ms", type=float, default=2000.0,
                       help="idle time before scale-down to the floor")
    serve.add_argument("--provisioners", type=int, default=4,
                       help="parallel instance-production slots")
    serve.add_argument("--queue-cap", type=int, default=64,
                       help="admission queue bound (beyond it: rejected)")
    serve.add_argument("--deadline-ms", type=float, default=30000.0,
                       help="queued-request timeout")
    serve.add_argument("--json", action="store_true",
                       help="emit the SLO report as canonical JSON")
    serve.add_argument("--trace-requests", action="store_true",
                       help="trace every request's causal span tree and "
                            "attach p99 tail attribution to the SLO report")
    _add_fault_flags(serve)
    _add_telemetry_flags(serve)
    _add_recorder_flags(serve, window_ms=1000.0)
    _add_alert_flags(serve)
    serve.set_defaults(func=_cmd_serve)

    trace = sub.add_parser(
        "trace", parents=[common],
        help="replay a seeded serve flight and resolve request span "
             "trees, critical paths, and tail attribution",
    )
    trace.add_argument("--kernel", choices=sorted(PRESETS), default="aws")
    trace.add_argument("--mode", choices=[m.value for m in RandomizeMode],
                       default="kaslr")
    trace.add_argument("--function", default="api-echo",
                       help="workload function (see repro.workloads.FUNCTIONS)")
    trace.add_argument("--arrivals",
                       choices=["poisson", "bursty", "diurnal"],
                       default="poisson", help="open-loop traffic shape")
    trace.add_argument("--rate", type=float, action="append", metavar="PER_S",
                       help="offered load in requests/s (repeatable; "
                            "default 40)")
    trace.add_argument("--duration", type=float, default=10.0,
                       help="simulated seconds of traffic (default 10)")
    trace.add_argument("--strategy",
                       choices=["cold-boot", "restore", "restore-rebase",
                                "all"],
                       default="all", help="instance production strategy")
    trace.add_argument("--seed", type=int, default=1,
                       help="seed for traffic and production sampling")
    trace.add_argument("--samples", type=int, default=8,
                       help="real productions measured per strategy")
    trace.add_argument("--pool-min", type=int, default=2,
                       help="warm-pool floor (prewarmed instances)")
    trace.add_argument("--pool-max", type=int, default=16,
                       help="warm-pool ceiling (autoscale cap)")
    trace.add_argument("--scale-up-depth", type=int, default=2,
                       help="queue depth that triggers scale-up")
    trace.add_argument("--idle-ms", type=float, default=2000.0,
                       help="idle time before scale-down to the floor")
    trace.add_argument("--provisioners", type=int, default=4,
                       help="parallel instance-production slots")
    trace.add_argument("--queue-cap", type=int, default=64,
                       help="admission queue bound (beyond it: rejected)")
    trace.add_argument("--deadline-ms", type=float, default=30000.0,
                       help="queued-request timeout")
    trace.add_argument("--trace-id", default=None, metavar="ID",
                       help="resolve one trace id (e.g. an alert exemplar) "
                            "and print its span tree")
    trace.add_argument("--top", type=int, default=5,
                       help="slowest requests shown per cell (default 5)")
    trace.add_argument("--json", action="store_true",
                       help="emit the trace document as canonical JSON")
    _add_fault_flags(trace)
    trace.set_defaults(func=_cmd_trace)

    watch = sub.add_parser(
        "watch", parents=[common],
        help="flight recorder for one serve cell: per-window counters, "
             "alert transitions, and the live KASLR entropy audit",
    )
    watch.add_argument("--kernel", choices=sorted(PRESETS), default="aws")
    watch.add_argument("--mode", choices=[m.value for m in RandomizeMode],
                       default="kaslr")
    watch.add_argument("--function", default="api-echo",
                       help="workload function (see repro.workloads.FUNCTIONS)")
    watch.add_argument("--arrivals",
                       choices=["poisson", "bursty", "diurnal"],
                       default="poisson", help="open-loop traffic shape")
    watch.add_argument("--rate", type=float, default=40.0, metavar="PER_S",
                       help="offered load in requests/s (default 40)")
    watch.add_argument("--duration", type=float, default=10.0,
                       help="simulated seconds of traffic (default 10)")
    watch.add_argument("--strategy",
                       choices=["cold-boot", "restore", "restore-rebase"],
                       default="restore",
                       help="instance production strategy (default restore)")
    watch.add_argument("--seed", type=int, default=1,
                       help="seed for traffic and production sampling")
    watch.add_argument("--samples", type=int, default=8,
                       help="real productions measured per strategy")
    watch.add_argument("--pool-min", type=int, default=2,
                       help="warm-pool floor (prewarmed instances)")
    watch.add_argument("--pool-max", type=int, default=16,
                       help="warm-pool ceiling (autoscale cap)")
    watch.add_argument("--scale-up-depth", type=int, default=2,
                       help="queue depth that triggers scale-up")
    watch.add_argument("--idle-ms", type=float, default=2000.0,
                       help="idle time before scale-down to the floor")
    watch.add_argument("--provisioners", type=int, default=4,
                       help="parallel instance-production slots")
    watch.add_argument("--queue-cap", type=int, default=64,
                       help="admission queue bound (beyond it: rejected)")
    watch.add_argument("--deadline-ms", type=float, default=30000.0,
                       help="queued-request timeout")
    watch.add_argument("--window-ms", type=float, default=1000.0,
                       help="flight-recorder window width (default 1000)")
    watch.add_argument("--audit", action="store_true",
                       help="run the KASLR entropy auditor alongside")
    watch.add_argument("--json", action="store_true",
                       help="emit the flight-recorder document as JSON")
    _add_fault_flags(watch)
    _add_alert_flags(watch)
    watch.set_defaults(func=_cmd_watch)

    faults = sub.add_parser(
        "faults",
        help="list injectable fault kinds and targetable stage names",
    )
    faults.add_argument("--json", action="store_true",
                        help="emit the listing as JSON")
    faults.set_defaults(func=_cmd_faults)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FaultPlanError as exc:
        print(f"bad --inject-fault spec: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
