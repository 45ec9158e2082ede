"""Unit tests for the live KASLR entropy auditor.

The auditor is the observability half of the paper's restore trade-off:
clones share a layout digest, so restore fleets collapse to one distinct
layout while cold-boot fleets stay fully diverse.  These tests pin the
digest semantics, the per-strategy metrics, the address-validity
lifetime accounting, and the byte stability of the JSON report.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from statistics import median

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.layout_result import LayoutResult
from repro.security import KaslrAuditor, layout_digest
from repro.telemetry import Telemetry

from reference import audit_entropy_bits

MS = 1_000_000  # ns


def _layout(voffset: int, moved=()) -> LayoutResult:
    return LayoutResult(voffset=voffset, moved=list(moved)).finalize()


def test_digest_covers_voffset_and_move_map():
    base = _layout(0x1000)
    assert layout_digest(base) == layout_digest(_layout(0x1000))
    assert layout_digest(base) != layout_digest(_layout(0x2000))
    shuffled = _layout(0x1000, moved=[(0x100, 0x40, 0x20)])
    assert layout_digest(base) != layout_digest(shuffled)
    # a restore clone resolves every address identically -> same digest
    assert layout_digest(shuffled) == layout_digest(shuffled.clone())


def test_distinct_fraction_separates_cold_from_restore():
    auditor = KaslrAuditor()
    for i in range(8):
        auditor.record(f"cold:{i}", strategy="cold-boot", t_ns=i, layout=_layout(0x1000 * (i + 1)))
    zygote = _layout(0xABC000)
    for i in range(8):
        auditor.record(f"restore:{i}", strategy="restore", t_ns=i, layout=zygote.clone())
    assert auditor.distinct_fraction("cold-boot") == 1.0
    assert auditor.distinct_fraction("restore") == 1 / 8
    doc = auditor.to_json_dict()
    assert doc["strategies"]["cold-boot"]["duplicates"] == 0
    assert doc["strategies"]["restore"]["duplicates"] == 7
    assert doc["strategies"]["cold-boot"]["entropy_bits"] == 3.0
    assert doc["strategies"]["restore"]["entropy_bits"] == 0.0


def test_record_needs_layout_or_digest():
    auditor = KaslrAuditor()
    with pytest.raises(ValueError):
        auditor.record("boot", strategy="cold-boot", t_ns=0)
    digest = auditor.record(
        "boot", strategy="cold-boot", t_ns=0, digest="feedface00000000"
    )
    assert digest == "feedface00000000"


def test_touch_extends_address_validity_lifetime():
    auditor = KaslrAuditor()
    digest = auditor.record(
        "a", strategy="restore", t_ns=0, layout=_layout(0x1000)
    )
    auditor.record("b", strategy="restore", t_ns=5 * MS, digest=digest)
    auditor.touch("restore", digest, 20 * MS)
    auditor.touch("restore", digest, 12 * MS)  # never shrinks
    lifetime = auditor.to_json_dict()["strategies"]["restore"]["lifetime_ms"]
    assert lifetime == {"mean": 20.0, "max": 20.0}
    # unknown digests and strategies are ignored, not errors
    auditor.touch("restore", "0" * 16, 99 * MS)
    auditor.touch("nope", digest, 99 * MS)


def test_metrics_exported_through_telemetry():
    telemetry = Telemetry()
    auditor = KaslrAuditor(telemetry=telemetry)
    shared = _layout(0x1000)
    auditor.record("a", strategy="restore", t_ns=0, layout=shared)
    auditor.record("b", strategy="restore", t_ns=1, layout=shared.clone())
    families = {f.name: f for f in telemetry.registry.collect()}
    (boots,) = families["repro_audit_boots_total"].points
    assert boots.value == 2
    (dupes,) = families["repro_audit_duplicate_layouts_total"].points
    assert dupes.value == 1
    (fraction,) = families["repro_audit_distinct_layout_fraction"].points
    assert fraction.value == 0.5
    (entropy,) = families["repro_audit_entropy_bits"].points
    assert entropy.value == 0.0


def test_json_report_is_byte_stable():
    def run() -> str:
        auditor = KaslrAuditor()
        for i in range(4):
            auditor.record(
                f"boot:{i}",
                strategy="cold-boot",
                t_ns=i * MS,
                layout=_layout(0x1000 * (1 + i % 2)),
            )
        return json.dumps(auditor.to_json_dict(), sort_keys=True, indent=2)

    assert run() == run()
    doc = json.loads(run())
    assert doc["schema_version"] == 1
    assert doc["strategies"]["cold-boot"]["distinct_layouts"] == 2


# -- exactness against the per-boot reference ----------------------------------

#: counts 32, 16, 8, 4, 2, 1, 1: entropy exactly 1.96875, exported 1.9688
_DYADIC = "a" * 32 + "b" * 16 + "c" * 8 + "d" * 4 + "e" * 2 + "fg"

#: serve replays its sample table cyclically; restore tables repeat digests
_cyclic = st.builds(
    lambda table, n: [table[i % len(table)] for i in range(n)],
    st.lists(st.sampled_from("abcdef"), min_size=1, max_size=10),
    st.integers(1, 300),
)
#: most boots on a few layouts, a long tail of rare ones
_skewed = st.lists(
    st.sampled_from("abc") | st.sampled_from("abcdefghijklmnop"),
    min_size=1,
    max_size=300,
)
_distinct = st.integers(1, 300).map(lambda n: [f"d{i}" for i in range(n)])
_dyadic = st.permutations(list(_DYADIC)).map(list)


@settings(max_examples=150, deadline=None)
@given(stream=st.one_of(_cyclic, _skewed, _distinct, _dyadic))
# an order in which a running sum of c*log2(c) exports 1.9687
@example(stream=list("baaaagcabbfcbaaababbaaadaaabdaacaeabadaaabaebabccacabbabcabdaaac"))
def test_entropy_matches_reference_after_every_record(stream):
    """The O(1) histogram form exports what the O(boots) sum did, exactly.

    No golden pins the ``repro_audit_*`` gauges, so this is their guard.
    """
    telemetry = Telemetry()
    auditor = KaslrAuditor(telemetry=telemetry)
    registry = telemetry.registry
    counts: dict[str, int] = {}
    for i, digest in enumerate(stream):
        auditor.record(f"boot:{i}", strategy="serve", t_ns=i, digest=digest)
        counts[digest] = counts.get(digest, 0) + 1
        entropy = round(audit_entropy_bits(counts), 4)
        fraction = round(len(counts) / (i + 1), 6)
        gauge = registry.gauge("repro_audit_entropy_bits", strategy="serve")
        assert gauge.value == entropy
        gauge = registry.gauge("repro_audit_distinct_layout_fraction", strategy="serve")
        assert gauge.value == fraction
        doc = auditor.to_json_dict()["strategies"]["serve"]
        assert doc["entropy_bits"] == entropy
        assert doc["distinct_fraction"] == fraction
        assert doc["boots"] == i + 1
        assert doc["distinct_layouts"] == len(counts)
    if sorted(stream) == sorted(_DYADIC):
        assert auditor.to_json_dict()["strategies"]["serve"]["entropy_bits"] == 1.9688


def test_duplicate_counter_appears_with_the_first_duplicate():
    telemetry = Telemetry()
    auditor = KaslrAuditor(telemetry=telemetry)
    for i, digest in enumerate("abcb"):
        auditor.record(f"boot:{i}", strategy="cold-boot", t_ns=i, digest=digest)
        names = {f.name for f in telemetry.registry.collect()}
        assert ("repro_audit_duplicate_layouts_total" in names) == (i == 3)


# -- cost per record ------------------------------------------------------------


def test_audited_serve_cost_tracks_its_length():
    """4x the simulated seconds of an audited serve costs at most 4x the CPU.

    When every record re-summed one sample per boot so far, the 40 s run
    cost ~7x the 10 s one on a 2-vCPU Xeon; with O(1) records the ratio
    stays below the request ratio.  The two lengths alternate over 5
    pairs, swapping which runs first, so a host slowdown lands on both
    arms; the gate is the median of the per-pair process-CPU ratios.
    """
    from repro.artifacts import get_kernel
    from repro.cli import main
    from repro.kernel import KernelVariant

    get_kernel("aws", KernelVariant.KASLR, scale=16)  # build outside the timing

    def cpu_s(duration: int) -> float:
        argv = [
            "serve", "--strategy", "restore", "--rate", "150", "--audit",
            "--duration", str(duration),
        ]
        start = time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return time.process_time() - start

    ratios = []
    for pair in range(5):
        if pair % 2:
            long_s = cpu_s(40)
            short_s = cpu_s(10)
        else:
            short_s = cpu_s(10)
            long_s = cpu_s(40)
        ratios.append(long_s / short_s)
    assert median(ratios) <= 4, f"per-pair CPU ratios {[round(r, 2) for r in ratios]}"
