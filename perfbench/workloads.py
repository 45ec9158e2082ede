"""The four workloads: set-up, inputs drawn from the seed, one operation each.

Every workload runs the aws kernel at build scale 16 with cost jitter
off, from one process, with at most two workers.  A workload's inputs are
a fixed list drawn from the benchmark seed; the closed loop cycles
through them, so each input runs several times per run and every repeat
must reproduce the first one's simulated outputs exactly.

``op(i)`` is the timed call.  ``observe(i, out)`` runs after the timer
stops and turns the call's result into an observation:

* ``invariant`` — one dict per boot of the simulated outputs that do not
  depend on the seed: with jitter off, every stage outside the
  ``randomize`` category charges the same nanoseconds, and the
  verification oracle checks the same counts;
* ``seeded`` — outputs that do: layouts, the serve report and documents,
  the ``randomize`` stages' charges and boot totals (the FGKASLR shuffle
  charge scales with the bytes the permutation actually moved, so a
  section left in place lowers it);
* ``checks`` — pass/fail facts about this call (conservation, leaks);
* ``work`` — units the call completed (boots, arrivals, VMs);
* ``stats`` — counts reported beside the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import shutil

from repro.artifacts import clear_cache, get_bzimage, get_kernel
from repro.cli import main as cli_main
from repro.core import RandomizeMode
from repro.host import HostStorage
from repro.kernel import AWS, KernelVariant
from repro.monitor import BootFormat, Firecracker, FleetManager, VmConfig
from repro.monitor.artifact_cache import BootArtifactCache
from repro.security.audit import layout_digest
from repro.serve.engine import ServeEngine
from repro.simtime import CostModel, JitterModel
from repro.telemetry import Telemetry
from repro.workloads import InstanceStrategy

SCALE = 16
ORACLE_FIELDS = (
    "functions_checked",
    "sites_checked",
    "extable_checked",
    "kallsyms_checked",
    "kallsyms_stale",
)
SHM_DIR = "/dev/shm"


def _digest(doc) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


def _costs() -> CostModel:
    return CostModel(scale=SCALE, jitter=JitterModel(sigma=0.0))


def _boot_outputs(report) -> tuple[dict, dict, bool]:
    """``(invariant, seeded, stages sum to the total)`` of one boot."""
    spans = report.timeline.spans
    invariant = {
        "oracle": {f: getattr(report.verification, f) for f in ORACLE_FIELDS},
        "fixed_stage_ns": [[s.name, s.charged_ns] for s in spans if s.category != "randomize"],
    }
    seeded = {
        "total_ns": report.timeline.total_ns,
        "randomize_stage_ns": [[s.name, s.charged_ns] for s in spans if s.category == "randomize"],
        "voffset": report.layout.voffset,
        "layout_digest": layout_digest(report.layout),
    }
    conserved = sum(s.charged_ns for s in spans) == report.timeline.total_ns
    return invariant, seeded, conserved


class Workload:
    """Base: ``n_inputs`` seeded inputs and the closed-loop operation."""

    name = ""
    n_inputs = 1
    #: what one unit of ``work`` is, for the printed throughput name
    throughput_name = ""

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.workdir = workdir
        rng = random.Random(f"{self.name}:{seed}")
        self.input_seeds = [rng.getrandbits(64) for _ in range(self.n_inputs)]

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def observe(self, i: int, out) -> dict:
        raise NotImplementedError

    def close(self) -> None:
        """Release what set-up acquired."""


class BootDirectFgkaslr(Workload):
    """Warm in-monitor FGKASLR boots over one cached parse (Fig. 9)."""

    name = "boot-direct-fgkaslr"
    n_inputs = 8
    throughput_name = "boots_per_s"

    def setup(self) -> None:
        clear_cache()
        kernel = get_kernel(AWS, KernelVariant.FGKASLR, scale=SCALE)
        telemetry = Telemetry()
        self.vmm = Firecracker(
            HostStorage(),
            _costs(),
            artifact_cache=BootArtifactCache(registry=telemetry.registry),
            telemetry=telemetry,
        )
        self._configure(VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR))

    def _configure(self, cfg: VmConfig) -> None:
        self.vmm.warm_caches(cfg)
        self.cfgs = [dataclasses.replace(cfg, seed=s) for s in self.input_seeds]
        self.vmm.boot(self.cfgs[0])  # the untimed warm-up boot

    def op(self, i: int):
        return self.vmm.boot(self.cfgs[i % self.n_inputs])

    def observe(self, i: int, report) -> dict:
        invariant, seeded, conserved = _boot_outputs(report)
        return {
            "invariant": [invariant],
            "seeded": seeded,
            "checks": {"stages_sum_to_total": conserved},
            "work": 1,
        }


class BootBzimageLz4(BootDirectFgkaslr):
    """bzImage LZ4 KASLR boots through the bootstrap loader (Fig. 3/9)."""

    name = "boot-bzimage-lz4"

    def setup(self) -> None:
        clear_cache()
        kernel = get_kernel(AWS, KernelVariant.KASLR, scale=SCALE)
        bzimage = get_bzimage(AWS, KernelVariant.KASLR, "lz4", scale=SCALE)
        # no artifact cache: every boot decompresses and parses again
        self.vmm = Firecracker(HostStorage(), _costs(), telemetry=Telemetry())
        self._configure(
            VmConfig(
                kernel=kernel,
                boot_format=BootFormat.BZIMAGE,
                bzimage=bzimage,
                randomize=RandomizeMode.KASLR,
            )
        )


class ServeSweep(Workload):
    """One ``repro serve`` CLI call: all strategies at 15, 45 and 150 req/s."""

    name = "serve-sweep"
    throughput_name = "serve_req_per_s"
    rates = ("15", "45", "150")

    def __init__(self, seed: int, workdir: str) -> None:
        super().__init__(seed, workdir)
        self.timeseries_out = os.path.join(workdir, "serve_timeseries.json")
        self.audit_out = os.path.join(workdir, "serve_audit.json")
        self.runs: list[tuple[ServeEngine, object]] = []
        # keep every engine run's result for the conservation check; the
        # tap goes in before any span wrapper, which then wraps the tap
        self._original_run = original = ServeEngine.run

        def run(engine, spec):
            result = original(engine, spec)
            self.runs.append((engine, result))
            return result

        ServeEngine.run = run

    def setup(self) -> None:
        clear_cache()
        get_kernel(AWS, KernelVariant.KASLR, scale=SCALE)  # what the CLI fetches

    def close(self) -> None:
        ServeEngine.run = self._original_run

    def argv(self) -> list[str]:
        traffic_seed = self.input_seeds[0] & 0x7FFFFFFF
        return [
            "serve", "--kernel", "aws", "--scale", str(SCALE), "--jitter", "0",
            "--strategy", "all", *(arg for rate in self.rates for arg in ("--rate", rate)),
            "--seed", str(traffic_seed), "--json", "--trace-requests",
            "--timeseries-out", self.timeseries_out,
            "--audit", "--audit-out", self.audit_out,
        ]

    def op(self, i: int):
        self.runs = []
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli_main(self.argv())
        return code, stdout.getvalue(), self.runs

    def observe(self, i: int, out) -> dict:
        code, stdout, runs = out
        checks = {"exit_code_0": code == 0}
        checks["conservation"] = len(runs) == len(InstanceStrategy) * len(self.rates) and all(
            _conserved(result) for _engine, result in runs
        )
        seeded: dict = {}
        stats: dict = {}
        if code == 0:
            report = json.loads(stdout)
            with open(self.timeseries_out, encoding="utf-8") as f:
                timeseries = json.load(f)
            with open(self.audit_out, encoding="utf-8") as f:
                audit = json.load(f)
            cells = [f"{row['strategy']}@{row['rate_per_s']:g}" for row in report["rows"]]
            seeded["slo_row"] = dict(zip(cells, report["rows"]))
            seeded["timeseries_digest"] = {
                f"{c['strategy']}@{c['rate_per_s']:g}": _digest(c) for c in timeseries["cells"]
            }
            seeded["audit_digest"] = {
                cell: _digest(audit["strategies"][cell.split("@")[0]]) for cell in cells
            }
            traces = runs[0][0].tracer.traces() if runs else ()
            seeded["trace_digest"] = {
                cell: _digest([ctx.to_json() for ctx in traces if ctx.key.startswith(cell + "/")])
                for cell in cells
            }
            stats["telemetry.tracing.spans"] = sum(len(ctx.spans()) for ctx in traces)
        return {
            "invariant": [],
            "seeded": seeded,
            "checks": checks,
            "work": sum(result.arrivals for _engine, result in runs),
            "stats": stats,
        }


def _conserved(result) -> bool:
    try:
        result.check()
    except Exception:
        return False
    return True


class FleetProcess(Workload):
    """FGKASLR fleet launches on the process executor over a disk-tier cache."""

    name = "fleet-process"
    n_inputs = 4
    throughput_name = "fleet_vms_per_s"
    #: about two VMs per worker: small enough that a run holds some 30
    #: launches for the median and upper quartile, large enough that a
    #: worker usually boots more than once per pool
    fleet_size = 4
    workers = 2

    def setup(self) -> None:
        clear_cache()
        kernel = get_kernel(AWS, KernelVariant.FGKASLR, scale=SCALE)
        self.cfg = VmConfig(kernel=kernel, randomize=RandomizeMode.FGKASLR)
        self.cache_dir = os.path.join(self.workdir, "fleet-cache")
        shutil.rmtree(self.cache_dir, ignore_errors=True)
        vmm = Firecracker(
            HostStorage(),
            _costs(),
            artifact_cache=BootArtifactCache(disk_path=self.cache_dir),
            telemetry=Telemetry(),
        )
        self.manager = FleetManager(vmm, workers=self.workers, executor="process")
        self.modeled_rate_per_s = 0.0

    def op(self, i: int):
        before = _shm_entries()
        report = self.manager.launch(
            self.cfg, self.fleet_size, fleet_seed=self.input_seeds[i % self.n_inputs]
        )
        return report, before, _shm_entries()

    def observe(self, i: int, out) -> dict:
        report, before, after = out
        self.modeled_rate_per_s = report.engine_rate_per_s
        boots = [_boot_outputs(boot.report) for boot in report.boots]
        seeded = {
            key: [b[1][key] for b in boots]
            for key in ("total_ns", "randomize_stage_ns", "voffset", "layout_digest")
        }
        seeded["makespan_ms"] = report.makespan_ms
        checks = {
            "stages_sum_to_total": all(b[2] for b in boots),
            "no_failed_boots": not report.failures and report.retries == 0,
            "disk_tier_no_tmp": not [
                f for f in os.listdir(self.cache_dir) if f.endswith(".tmp")
            ],
        }
        if before is not None:
            checks["shm_released"] = not (after - before)
        return {
            "invariant": [b[0] for b in boots],
            "seeded": seeded,
            "checks": checks,
            "work": len(report.boots),
        }

    def close(self) -> None:
        # the shared-memory resource tracker is a process this run started
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


def _shm_entries() -> set[str] | None:
    try:
        return set(os.listdir(SHM_DIR))
    except FileNotFoundError:
        return None


WORKLOADS = {
    cls.name: cls for cls in (BootDirectFgkaslr, BootBzimageLz4, ServeSweep, FleetProcess)
}
