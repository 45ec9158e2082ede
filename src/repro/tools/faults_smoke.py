"""Fault-matrix smoke check (``make faults-smoke``).

Drives the real CLI (``repro.cli.main``) through a jitter-free fault
matrix and validates the containment contract end to end:

* a fleet with one pinned fatal fault and no retry budget completes with
  N-1 boots and exactly one attributed failure;
* the same launch with the default retry budget recovers the lost boot
  (the pinned index redraws a fresh seed but keeps its fleet index, so a
  rate-based fault clears while a pinned one stays — the matrix uses a
  rate-0-elsewhere pin to check the retry bookkeeping, not recovery);
* every fatal kind aborts a single boot with exit code 1 and a
  machine-readable ``{"failure": ...}`` report naming its stage/kind;
* ``cache-drop`` is non-fatal: a fleet on four workers completes
  full-strength with exactly one cache miss per fired fault;
* two identical seeded runs produce byte-identical JSON, and a run with
  no ``--inject-fault`` flag carries neither ``failures`` nor
  ``retries`` keys (the zero-overhead-when-disabled contract).

Exits non-zero with a one-line reason on any violation, so CI can run it
right after the CLI smoke steps.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

from repro.cli import main as cli_main
from repro.faults import FATAL_KINDS

#: every fleet run shares these: tiny scale, jitter-free, fixed seed
_FLEET = [
    "fleet", "--kernel", "aws", "--scale", "4", "--jitter", "0",
    "--count", "8", "--workers", "4", "--seed", "1", "--json",
]
_BOOT = ["boot", "--kernel", "aws", "--scale", "4", "--jitter", "0", "--json"]
_PIN = "stage=linux_boot,kind=reloc-fail,boot=3"


def _fail(reason: str) -> None:
    print(f"faults-smoke: FAIL: {reason}", file=sys.stderr)
    raise SystemExit(1)


def _run(argv: list[str]) -> tuple[int, str]:
    """One CLI invocation; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def _check_pinned_fleet() -> None:
    code, text = _run(_FLEET + ["--inject-fault", _PIN, "--retries", "0"])
    if code != 0:
        _fail(f"pinned-fault fleet exited {code}")
    report = json.loads(text)
    if len(report["boots"]) != 7:
        _fail(f"expected 7 surviving boots, got {len(report['boots'])}")
    failures = report.get("failures", [])
    if len(failures) != 1:
        _fail(f"expected 1 recorded failure, got {len(failures)}")
    failure = failures[0]
    if (failure["index"], failure["stage"], failure["kind"]) != (
        3, "linux_boot", "reloc-fail"
    ):
        _fail(f"failure misattributed: {failure}")
    if report["retries"] != 0:
        _fail(f"retries=0 run recorded {report['retries']} retries")
    # byte-identical across two runs: the determinism acceptance criterion
    code2, text2 = _run(_FLEET + ["--inject-fault", _PIN, "--retries", "0"])
    if code2 != 0 or text2 != text:
        _fail("two identical seeded fault runs diverged")


def _check_retry_budget() -> None:
    code, text = _run(_FLEET + ["--inject-fault", _PIN, "--retries", "2"])
    if code != 0:
        _fail(f"retry-budget fleet exited {code}")
    report = json.loads(text)
    # a pinned fault tracks the fleet index, so every retry re-fires:
    # the budget must be spent exactly, then the failure recorded once
    if report.get("retries") != 2:
        _fail(f"expected the full retry budget (2), got {report.get('retries')}")
    if len(report.get("failures", [])) != 1:
        _fail("retried pinned fault should still end in 1 terminal failure")
    if report["failures"][0]["attempt"] != 2:
        _fail(f"terminal failure not from last attempt: {report['failures'][0]}")


def _check_fatal_kinds() -> None:
    for kind in sorted(FATAL_KINDS):
        spec = f"stage=linux_boot,kind={kind}"
        code, text = _run(_BOOT + ["--inject-fault", spec])
        if code != 1:
            _fail(f"boot with {kind} exited {code}, want 1")
        failure = json.loads(text)["failure"]
        if failure["stage"] != "linux_boot" or failure["kind"] != kind:
            _fail(f"{kind} misattributed: {failure}")


def _check_cache_drop() -> None:
    # the fault forces a miss on its own boot only, so on four workers
    # the one pinned fault still costs exactly one miss
    code, text = _run(
        _FLEET + ["--inject-fault", "stage=prepare_image,kind=cache-drop,boot=3"]
    )
    if code != 0:
        _fail(f"cache-drop fleet exited {code}")
    report = json.loads(text)
    if len(report["boots"]) != 8 or report.get("failures"):
        _fail("cache-drop must be non-fatal")
    if report["cache"]["misses"] != 1:
        _fail(
            f"dropped entry should force exactly 1 re-parse, "
            f"got {report['cache']['misses']} misses"
        )


def _check_disabled_shape() -> None:
    code, text = _run(list(_FLEET))
    if code != 0:
        _fail(f"plain fleet exited {code}")
    report = json.loads(text)
    if "failures" in report or "retries" in report:
        _fail("fault-free launch must not carry failures/retries keys")


def main() -> int:
    _check_pinned_fleet()
    _check_retry_budget()
    _check_fatal_kinds()
    _check_cache_drop()
    _check_disabled_shape()
    print(
        "faults-smoke: OK (pinned fleet containment, retry budget, "
        f"{len(FATAL_KINDS)} fatal kinds, cache-drop, disabled shape)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
