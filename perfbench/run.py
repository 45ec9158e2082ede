"""Host-clock benchmark of the repro library, end to end and per layer.

    python3 perfbench/run.py --workload boot-direct-fgkaslr --seed 1 --seconds 10 --trace 0

Runs one workload (or ``all`` of them, each in its own process) from the
root of a checkout: it builds its inputs from ``--seed``, sets up several
times, then runs a closed loop of operations for about ``--seconds``
seconds, timing each with the host wall clock (``perf_counter_ns``).
Every operation's simulated outputs are checked against
``expected.json``; a mismatch, an exception or a nonzero CLI exit counts
as a failed operation.  The full result, with every sample, is written
under ``perfbench/out/``.

On a shared host the same code can run twice as slowly for seconds to
minutes at a time, so the end-to-end times are speed-corrected: between
operations, never inside one, a fixed pure-Python loop that does not
touch the library (:func:`probe_ms`) is timed, and each operation's
and set-up's wall clock is scaled by :data:`PROBE_REF_MS` over the mean
of the probes just before and just after it.  The probe slows with the
host as the boot paths do; a serve call slows less, so on a 2-vCPU Xeon
KVM guest serve-sweep's corrected times read about 20% lower in a slow
period than in a quiet one.  The raw wall-clock figures are printed
beside the corrected ones and kept in the result file.
Per-layer span times are raw wall clock; the tracing overhead compares
the corrected times of traced and untraced operations.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced operations; the traced ones run with the library's
entry points wrapped in spans (see ``layers.py``) and the run prints the
per-layer metrics.  The last line of standard output is always one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--record`` runs each input of the seed once and stores its outputs in
``expected.json`` as that seed's expectations.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import struct
import subprocess
import sys
import time
from bisect import bisect_right
from contextlib import nullcontext
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"
WORKLOAD_NAMES = ("boot-direct-fgkaslr", "boot-bzimage-lz4", "serve-sweep", "fleet-process")
SETUP_REPEATS = 5
DEFAULT_SEED = 1
#: fewer samples than this and the tail is the upper quartile (see :func:`tail`)
TAIL_MIN_SAMPLES = 41
#: (name, unit, better) of every end-to-end metric
END_TO_END = (
    ("ops_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)


def import_library() -> None:
    """Put the checkout's ``src`` first on the path; fail if it has none."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"no library sources at {SRC / 'repro'}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"imported repro from {repro.__file__}, not from {SRC}")


# -- metadata ------------------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_revision() -> str | None:
    """HEAD's commit from the checkout's ``.git``, when it is a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the library's Python sources (a revision without git)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def metadata(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
        "seed": seed,
    }


def peak_rss_mib() -> float:
    """Peak resident memory: the larger of this process and its children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


# -- checking ------------------------------------------------------------------


class Checker:
    """Compares each observation with the stored expectations.

    ``invariant`` expectations hold for every seed and every boot of an
    operation (one per fleet VM); ``seeded`` ones only for seeds stored in
    ``expected.json``.  Every repeat of an input must also reproduce that
    input's first observation in the run.
    """

    def __init__(self, stored: dict, seed: int) -> None:
        self.invariant = stored.get("invariant") or {}
        self.seeded = stored.get("seeds", {}).get(str(seed))
        self.first: dict[int, dict] = {}
        self.ran: dict[str, int] = {}
        self.problems: list[str] = []

    def _expect(self, name: str, ok: bool, where: str, problems: list[str]) -> None:
        self.ran[name] = self.ran.get(name, 0) + 1
        if not ok:
            problems.append(f"{where}: {name}")

    def check(self, index: int, obs: dict, n_inputs: int, where: str) -> bool:
        problems: list[str] = []
        obs = json.loads(json.dumps(obs))  # tuples -> lists, as stored
        boots = obs["invariant"]
        for key, want in self.invariant.items():
            ok = bool(boots) and all(boot.get(key) == want for boot in boots)
            self._expect(key, ok, where, problems)
        if self.seeded is not None:
            for key, want in self.seeded[index % n_inputs].items():
                self._expect(key, obs["seeded"].get(key) == want, where, problems)
        first = self.first.setdefault(index % n_inputs, obs)
        if first is not obs:
            same = (first["invariant"], first["seeded"]) == (obs["invariant"], obs["seeded"])
            self._expect("repeat_identical", same, where, problems)
        for key, ok in obs["checks"].items():
            self._expect(key, ok, where, problems)
        self.problems.extend(problems)
        return not problems

    def fail(self, where: str, exc: BaseException) -> None:
        self.problems.append(f"{where}: raised {type(exc).__name__}: {exc}")


# -- measuring -----------------------------------------------------------------


#: one probe loop's wall-clock ms on a quiet 2-vCPU Intel Xeon KVM guest
#: under Python 3.11; a corrected time reads as host ms on that host when quiet
PROBE_REF_MS = 8.0
#: how long the probe runs after an operation, as a share of its time
PROBE_SHARE = 0.1

_U64 = struct.Struct("<Q")
#: the probe's working set: a few MiB, like a kernel image and its tables,
#: so that contention for the host's caches slows the probe as it slows
#: the program; it adds this much to ``peak_rss_mib``
_PROBE_MEM = bytearray(range(256)) * (1 << 14)
_PROBE_WORDS = len(_PROBE_MEM) // 8
_PROBE_BOUNDS = list(range(0, len(_PROBE_MEM), 4096))


def _probe_loop() -> None:
    mem, seen = _PROBE_MEM, {}
    for k in range(8192):
        off = k * 2654435761 % _PROBE_WORDS * 8  # scattered over the buffer
        value = _U64.unpack_from(mem, off)[0]
        slot = bisect_right(_PROBE_BOUNDS, off)
        _U64.pack_into(mem, off, (value + slot) & 0xFFFF_FFFF)
        seen[slot] = value


def probe_ms(after_ms: float = 0.0) -> float:
    """How fast the host runs now: ms of one fixed pure-Python loop.

    The loop's steps are the kind the library's hot paths take (a
    ``struct`` read and write at scattered offsets of a buffer, a bisect,
    a dict store), but it never calls the library, so a change to the
    program cannot move it; the garbage collector is off while it runs,
    so it never collects the program's garbage.  One untimed loop warms
    the buffer; timed loops then repeat for :data:`PROBE_SHARE` of
    ``after_ms``, the time of what just ran (at least one loop), so a long
    operation's speed is read over a longer window.
    """
    budget = PROBE_SHARE * after_ms * 1e6
    loops = 0
    gc.disable()
    try:
        _probe_loop()
        began = time.perf_counter_ns()
        while True:
            _probe_loop()
            loops += 1
            elapsed = time.perf_counter_ns() - began
            if elapsed >= budget:
                return elapsed / loops / 1e6
    finally:
        gc.enable()


def corrected(wall: list[float], probes: list[float]) -> list[float]:
    """Scale ``wall[i]`` by :data:`PROBE_REF_MS` over the mean of
    ``probes[i]`` and ``probes[i + 1]``, the probes around it."""
    return [
        w * PROBE_REF_MS / ((probes[i] + probes[i + 1]) / 2) for i, w in enumerate(wall)
    ]


def tail(values: list[float]) -> tuple[float, float, int]:
    """``(value, percentile, samples beyond)`` at the tail of ``values``.

    The highest percentile with at least ten samples beyond it is the
    11th-largest value.  With fewer than :data:`TAIL_MIN_SAMPLES` samples
    it would sit below the upper quartile, so the tail is the upper
    quartile instead; the two meet at 41 samples.  The boot workloads stay
    above that threshold, fleet-process (about 30 launches a run) and
    serve-sweep (about 5 calls) below it.
    """
    xs = sorted(values)
    n = len(xs)
    if n >= TAIL_MIN_SAMPLES:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    if n < 2:
        return xs[-1], 100.0, 0
    upper = quantiles(xs, n=4, method="inclusive")[2]
    return upper, 75.0, sum(x > upper for x in xs)


def measure(workload, seconds: float, rec, checker: Checker) -> dict:
    """The closed loop: one operation after another for about ``seconds``.

    A new operation starts only while the median operation still fits
    in the budget.  The host probe runs before the first operation and
    after each one.  With a span recorder, odd-numbered operations run
    traced and even-numbered ones untraced; a traced operation also
    fails if a layer its workload must enter recorded no span.
    """
    import layers

    probes = [probe_ms()]
    op_ms: list[float] = []
    traced: list[bool] = []
    traced_ops: list[str] = []
    stats: dict[str, list[float]] = {}
    work = failed = 0
    min_ops = 2 if rec is not None else 1
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start + median(op_ms) / 1e3 <= seconds:
        is_traced = rec is not None and i % 2 == 1
        op_id = f"op{i}"
        if is_traced:
            layers.install(rec)
            first_span = len(rec.spans)
        error = None
        began = time.perf_counter_ns()
        try:
            with rec.operation(op_id) if is_traced else nullcontext():
                out = workload.op(i)
        except Exception as exc:  # a raising operation is a failed one
            error = exc
        op_ms.append((time.perf_counter_ns() - began) / 1e6)
        if is_traced:
            rec.unpatch()
            traced_ops.append(op_id)
        probes.append(probe_ms(op_ms[-1]))
        traced.append(is_traced)
        if error is not None:
            checker.fail(op_id, error)
            failed += 1
            i += 1
            continue
        obs = workload.observe(i, out)
        if is_traced:
            missing = layers.missing_layers(workload.name, rec.spans[first_span:])
            obs["checks"]["named_layers_entered"] = not missing
            for key, value in obs.get("stats", {}).items():
                stats.setdefault(key, []).append(value)
        if checker.check(i, obs, workload.n_inputs, op_id):
            work += obs["work"]
        else:
            failed += 1
        i += 1
    return {
        "op_ms": op_ms,
        "probe_ms": probes,
        "traced": traced,
        "traced_ops": traced_ops,
        "stats": {key: sum(v) / len(v) for key, v in stats.items()},
        "work": work,
        "failed": failed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, expected: dict) -> dict:
    """Set up, measure and check one workload; returns the full result."""
    import layers
    from spans import SpanRecorder
    from workloads import WORKLOADS

    workdir = OUT / f"work-{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    workload = WORKLOADS[name](seed, str(workdir))
    rec = SpanRecorder() if trace else None
    checker = Checker(expected.get(name, {}), seed)
    setups: list[str] = []
    setup_s: list[float] = []
    setup_probes = [probe_ms()]
    try:
        for r in range(SETUP_REPEATS):
            if rec is not None:
                layers.install(rec)
                setups.append(f"setup{r}")
            began = time.perf_counter_ns()
            with rec.operation(f"setup{r}", "setup") if rec is not None else nullcontext():
                workload.setup()
            setup_s.append((time.perf_counter_ns() - began) / 1e9)
            if rec is not None:
                rec.unpatch()
            setup_probes.append(probe_ms(setup_s[-1] * 1e3))
        gc.collect()  # set-up garbage is not the first operation's to collect
        loop = measure(workload, seconds, rec, checker)
    finally:
        if rec is not None:
            rec.unpatch()
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    op_ms = loop["op_ms"]
    op_cms = corrected(op_ms, loop["probe_ms"])
    setup_cs = corrected(setup_s, setup_probes)
    tail_ms, tail_pct, tail_beyond = tail(op_cms)
    result = {
        "workload": name,
        "trace": trace,
        "meta": metadata(seed),
        "ops": len(op_ms),
        "failed": loop["failed"],
        "checks_ran": dict(sorted(checker.ran.items())),
        "stored_expectations": checker.seeded is not None,
        "problems": checker.problems[:20],
        "tail": {"percentile": tail_pct, "samples": len(op_ms), "beyond": tail_beyond},
        "throughput_name": workload.throughput_name,
        "end_to_end": {
            "ops_per_s": loop["work"] / (sum(op_cms) / 1e3),
            "op_ms_p50": median(op_cms),
            "op_ms_tail": tail_ms,
            "setup_s": median(setup_cs),
            "peak_rss_mib": peak_rss_mib(),
        },
        "wall_clock": {
            "ops_per_s": loop["work"] / (sum(op_ms) / 1e3),
            "op_ms_p50": median(op_ms),
            "op_ms_tail": tail(op_ms)[0],
            "setup_s": median(setup_s),
            "probe_ms_p50": median(loop["probe_ms"]),
        },
        "samples": {
            "op_ms": op_ms,
            "probe_ms": loop["probe_ms"],
            "setup_s": setup_s,
            "setup_probe_ms": setup_probes,
        },
    }
    if name == "fleet-process":
        result["modeled_engine_rate_per_s"] = workload.modeled_rate_per_s
    if rec is not None:
        result["per_layer"] = layers.layer_metrics(
            rec,
            loop["traced_ops"],
            setups,
            loop["stats"],
            [ms for ms, t in zip(op_cms, loop["traced"]) if t],
            [ms for ms, t in zip(op_cms, loop["traced"]) if not t],
        )
        spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
        rec.write_jsonl(str(spans_path))
        result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


# -- reporting -----------------------------------------------------------------

#: (singular, plural) of one operation, per workload
_OP_NOUN = {
    "boot-direct-fgkaslr": ("boot", "boots"),
    "boot-bzimage-lz4": ("boot", "boots"),
    "serve-sweep": ("serve call", "serve calls"),
    "fleet-process": ("launch", "launches"),
}


def report(result: dict) -> dict:
    """Print the human-readable block; return the last-line JSON object."""
    name = result["workload"]
    e2e = result["end_to_end"]
    wall = result["wall_clock"]
    meta = result["meta"]
    noun, nouns = _OP_NOUN[name]
    t = result["tail"]
    print(f"== {name}  seed {meta['seed']}  trace {int(result['trace'])}")
    print(
        f"   host: nproc {meta['nproc']}, {meta['cpu_model']}, python {meta['python']}, "
        f"git {meta['git_revision'] or 'n/a'}, source {meta['source_digest']}"
    )
    print(
        f"   times are host wall clock (perf_counter_ns) x {PROBE_REF_MS} ms / the host probe "
        f"around each {noun} (median probe {wall['probe_ms_p50']:.2f} ms); [raw wall clock]"
    )
    print(
        f"   setup_s          {e2e['setup_s']:.4f} s    median of {SETUP_REPEATS} set-ups "
        f"[{wall['setup_s']:.4f} s]"
    )
    throughput = result["throughput_name"]
    for metric in ("boots_per_s", "serve_req_per_s", "fleet_vms_per_s"):
        if metric == throughput:
            print(
                f"   {metric:<16} {e2e['ops_per_s']:.4f} 1/s  (ops_per_s) "
                f"[{wall['ops_per_s']:.4f} 1/s]"
            )
        else:
            print(f"   {metric:<16} n/a")
    label = "boot_ms" if noun == "boot" else "op_ms"
    print(
        f"   {label + '_p50':<16} {e2e['op_ms_p50']:.3f} ms  (op_ms_p50, per {noun}) "
        f"[{wall['op_ms_p50']:.3f} ms]"
    )
    print(
        f"   {label + '_tail':<16} {e2e['op_ms_tail']:.3f} ms  "
        f"(op_ms_tail) at p{t['percentile']:.1f} of {t['samples']} {nouns}, {t['beyond']} beyond "
        f"[{wall['op_ms_tail']:.3f} ms]"
    )
    print(f"   peak_rss_mib     {e2e['peak_rss_mib']:.1f} MiB")
    print(
        f"   error_rate       {result['failed'] / result['ops']:.4f}  "
        f"({result['failed']} of {result['ops']} {nouns} failed)"
    )
    if "modeled_engine_rate_per_s" in result:
        print(
            f"   fleet_vms_per_s {wall['ops_per_s']:.3f} 1/s measured (raw host wall clock) | "
            f"engine_rate_per_s {result['modeled_engine_rate_per_s']:.3f} 1/s modeled "
            "(FleetReport engine model on the simulated clock)"
        )
    source = "stored expectations" if result["stored_expectations"] else "seed-independent expectations only"
    checks = ", ".join(f"{k} x{v}" for k, v in result["checks_ran"].items())
    print(f"   checks ({source}): {checks}")
    for problem in result["problems"]:
        print(f"   FAILED {problem}")
    if result["trace"]:
        import layers

        units = {n: u for n, u, _ in layers.PER_LAYER}
        values = result["per_layer"]
        for key, unit in units.items():
            print(f"   {key:<40} {values[key]:.6g} {unit}")
        print(f"   spans written to {result['spans_file']}")
    else:
        units = {n: u for n, u, _ in END_TO_END}
        values = e2e
    return {
        "correct": result["failed"] == 0,
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }


def run_all(args) -> dict:
    """Each workload in its own process; then the measured fleet speedup."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            sys.exit(f"{name} exited with {proc.returncode}")
        results[name] = json.loads(lines[-1])
    if not args.trace:
        boot, fleet = (
            json.loads(result_path(name, args.seed, 0).read_text())["wall_clock"]["ops_per_s"]
            for name in ("boot-direct-fgkaslr", "fleet-process")
        )
        print(
            f"== measured fleet speedup (raw host wall clock): fleet_vms_per_s {fleet:.3f} / "
            f"boot-direct-fgkaslr boots_per_s {boot:.3f} = x{fleet / boot:.2f}"
        )
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {
            f"{name}.{key}": value
            for name, r in results.items()
            for key, value in r["metrics"].items()
        },
    }


def result_path(name: str, seed: int, trace: int) -> Path:
    return OUT / f"result-{name}-seed{seed}-trace{trace}.json"


def record(name: str, seed: int, expected: dict) -> None:
    """Store each input's outputs as the seed's expectations."""
    from workloads import WORKLOADS

    workdir = OUT / f"work-{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, str(workdir))
    try:
        workload.setup()
        observations = [workload.observe(i, workload.op(i)) for i in range(workload.n_inputs)]
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
    observations = json.loads(json.dumps(observations))
    boots = [boot for obs in observations for boot in obs["invariant"]]
    for obs in observations:
        failed = [k for k, ok in obs["checks"].items() if not ok]
        if failed or any(boot != boots[0] for boot in obs["invariant"]):
            sys.exit(f"{name}: refusing to record failing outputs ({failed})")
    entry = expected.setdefault(name, {})
    if boots:
        entry["invariant"] = boots[0]
    entry.setdefault("seeds", {})[str(seed)] = [obs["seeded"] for obs in observations]
    EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(observations)} inputs of {name} for seed {seed}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's outputs in expected.json")
    args = parser.parse_args(argv)
    import_library()
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    OUT.mkdir(exist_ok=True)
    if args.record:
        if args.workload == "all":
            for name in WORKLOAD_NAMES:
                record(name, args.seed, expected)
        else:
            record(args.workload, args.seed, expected)
        return 0
    if args.workload == "all":
        line = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), expected)
        result_path(args.workload, args.seed, args.trace).write_text(
            json.dumps(result, indent=1, sort_keys=True) + "\n"
        )
        line = report(result)
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
