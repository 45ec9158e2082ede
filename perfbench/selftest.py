"""Self-test of the benchmark's output check and metric lists.

    python3 perfbench/selftest.py

1. ``BENCHMARK.json`` lists exactly the metrics ``run.py`` prints.
2. For each workload, one stored expectation in a copy of
   ``expected.json`` is altered; a short run against the copy must report
   a failed operation naming the altered check, and ``correct: false``.
3. A traced run whose ``kernel.verify`` wrapper is left out must fail its
   traced boots for a required layer that recorded no span.

Exits 0 when every assertion holds.
"""

from __future__ import annotations

import copy
import json
import sys

import run

SEED = 1


def _alter_voffset(expected: dict) -> str:
    expected["boot-direct-fgkaslr"]["seeds"][str(SEED)][0]["voffset"] += 0x200000
    return "voffset"


def _alter_oracle(expected: dict) -> str:
    expected["boot-bzimage-lz4"]["invariant"]["oracle"]["sites_checked"] += 1
    return "oracle"


def _alter_slo_row(expected: dict) -> str:
    rows = expected["serve-sweep"]["seeds"][str(SEED)][0]["slo_row"]
    rows[sorted(rows)[0]]["p99_ms"] += 0.001
    return "slo_row"


def _alter_makespan(expected: dict) -> str:
    expected["fleet-process"]["seeds"][str(SEED)][0]["makespan_ms"] += 1.0
    return "makespan_ms"


ALTERATIONS = {
    "boot-direct-fgkaslr": _alter_voffset,
    "boot-bzimage-lz4": _alter_oracle,
    "serve-sweep": _alter_slo_row,
    "fleet-process": _alter_makespan,
}


def check_metric_lists() -> None:
    import layers

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]]
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert e2e == list(run.END_TO_END), "end_to_end differs from run.END_TO_END"
    assert per_layer == list(layers.PER_LAYER), "per_layer differs from layers.PER_LAYER"
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)


def check_altered_expectations() -> None:
    stored = json.loads(run.EXPECTED.read_text())
    for name, alter in ALTERATIONS.items():
        expected = copy.deepcopy(stored)
        check = alter(expected)
        result = run.run_workload(name, SEED, 0.5, False, expected)
        line = run.report(result)
        assert result["failed"] > 0 and not line["correct"], f"{name}: altered {check} passed"
        assert any(p.endswith(": " + check) for p in result["problems"]), result["problems"]
        print(f"ok: {name} reports the altered {check}")


def check_missing_layer() -> None:
    import layers

    wrapped = layers.ENTRY_POINTS
    layers.ENTRY_POINTS = tuple(e for e in wrapped if e[2] != "kernel.verify")
    try:
        expected = json.loads(run.EXPECTED.read_text())
        result = run.run_workload("boot-direct-fgkaslr", SEED, 0.5, True, expected)
    finally:
        layers.ENTRY_POINTS = wrapped
    assert result["failed"] > 0, "a traced run without kernel.verify passed"
    assert any(p.endswith(": named_layers_entered") for p in result["problems"]), result["problems"]
    print("ok: a traced run without the kernel.verify wrapper reports the missing layer")


def main() -> int:
    run.import_library()
    run.OUT.mkdir(exist_ok=True)
    check_metric_lists()
    print("ok: BENCHMARK.json lists the printed metrics")
    check_altered_expectations()
    check_missing_layer()
    return 0


if __name__ == "__main__":
    sys.exit(main())
