"""Golden test: a recorded serve flight's telemetry exports are byte-stable.

The flight-recorder golden (``test_flight_golden``) pins the windowed
series and the audit report; this one pins what the same flight writes
to the shared telemetry: the JSONL event log (one ``serve:<cell>``
lifecycle track per cell, interleaved by ``seq`` with the alert events
fired at window close), the Prometheus text of every ``repro_serve_*``
and ``repro_audit_*`` series, and the Chrome trace with its serve and
per-request tracks.  The files are large, so the golden stores each
output's SHA-256.  Any intentional change to what the serve engine
records must regenerate the digests (and say so in review):

    PYTHONPATH=src python tests/test_serve_telemetry_golden.py \
        > tests/golden/serve_telemetry.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from repro.cli import main as cli_main

GOLDEN = Path(__file__).parent / "golden" / "serve_telemetry.json"

#: the flight-recorder golden's flight, recorded and audited
ARGV = [
    "serve", "--kernel", "aws", "--scale", "64", "--jitter", "0",
    "--seed", "11", "--duration", "4", "--samples", "6", "--rate", "90",
    "--arrivals", "poisson", "--strategy", "all", "--slo-p99-ms", "50",
    "--json", "--audit",
]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _fly(workdir: Path, *extra: str) -> None:
    argv = ARGV + [
        "--timeseries-out", str(workdir / "timeseries.json"),
        "--audit-out", str(workdir / "audit.json"),
        *extra,
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli_main(argv) == 0


def digests(workdir: Path) -> dict[str, str]:
    """SHA-256 of the event log, the Prometheus text and the Chrome trace."""
    events = workdir / "events.jsonl"
    prometheus = workdir / "metrics.prom"
    chrome = workdir / "trace.json"
    _fly(
        workdir, "--events-out", str(events),
        "--trace-export", "prometheus", "--trace-out", str(prometheus),
    )
    _fly(workdir, "--trace-export", "chrome", "--trace-out", str(chrome))
    return {
        "chrome": _sha256(chrome),
        "events": _sha256(events),
        "prometheus": _sha256(prometheus),
    }


def test_serve_telemetry_matches_golden_digests(tmp_path):
    assert digests(tmp_path) == json.loads(GOLDEN.read_text())


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(json.dumps(digests(Path(tmp)), indent=2) + "\n")
