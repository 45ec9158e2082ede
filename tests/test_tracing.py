"""Request-scoped tracing: ids, trees, scoping, and conservation.

The contracts (see :mod:`repro.telemetry.tracing` /
:mod:`repro.telemetry.critical_path`):

1. trace ids are pure functions of ``(seed, key)`` and span ids of
   ``(trace_id, seq)`` — two processes replaying one seeded run mint
   identical ids;
2. scoped tracer views share one store: a ``scoped()`` view prefixes
   keys, and ``get()`` resolves any id minted through any view;
3. a traced engine run returns byte-for-byte the same result as an
   untraced one (the disabled-path contract);
4. conservation — for *every* served request, over random backends,
   rates, and seeds, the critical path's segments sum **exactly** (``==``,
   not ``≈``) to the request's end-to-end latency, and the path set
   reconciles with the ``ServeResult``;
5. the engine's one-commit-per-trace builder writes the same trace
   document, byte for byte, as the open/close reference builder in
   ``tests/reference.py``.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import MonitorError
from repro.serve import (
    ArrivalSpec,
    AutoscalePolicy,
    ProductionSample,
    SampledBackend,
    ServeConfig,
    ServeEngine,
)
from repro.telemetry.critical_path import (
    critical_path,
    request_paths,
    slowest,
    tail_attribution,
)
from repro.telemetry.tracing import RequestTracer, derive_trace_id
from reference import build_serve_traces

MS = 1_000_000  # ns

SETTINGS = settings(max_examples=25, deadline=None)


def _backend(startups=(2, 2, 2, 2), invoke_ms: int = 1) -> SampledBackend:
    return SampledBackend(
        samples=tuple(
            ProductionSample(
                startup_ns=s * MS,
                invoke_ns=invoke_ms * MS,
                layout_offset=0x1000 * (i + 1),
                layout_digest=f"digest{i:010x}",
            )
            for i, s in enumerate(startups)
        )
    )


def _run_traced(tracer, rate=50.0, seconds=2.0, seed=3, **cfg):
    engine = ServeEngine(
        _backend(),
        ServeConfig(**cfg),
        tracer=tracer.scoped("cell") if tracer is not None else None,
    )
    return engine.run(
        ArrivalSpec(rate_per_s=rate, duration_s=seconds, seed=seed)
    )


# -- ids -----------------------------------------------------------------------


def test_trace_ids_are_pure_functions_of_seed_and_key():
    assert derive_trace_id(11, "a@90/req/5") == derive_trace_id(11, "a@90/req/5")
    assert derive_trace_id(11, "a@90/req/5") != derive_trace_id(12, "a@90/req/5")
    assert derive_trace_id(11, "a@90/req/5") != derive_trace_id(11, "a@90/req/6")
    assert len(derive_trace_id(1, "k")) == 16


def test_span_ids_derive_from_trace_and_seq():
    a = RequestTracer(7).trace("req/0")
    b = RequestTracer(7).trace("req/0")
    sa = a.span("request", "request", 0, 10)
    sb = b.span("request", "request", 0, 10)
    assert a.trace_id == b.trace_id
    assert sa.span_id == sb.span_id
    assert sa.seq == sb.seq == 0
    # a second span on the same trace gets the next seq and a new id
    s2 = a.span("queue", "queue", 0, 5, parent=sa.span_id)
    assert s2.seq == 1 and s2.span_id != sa.span_id


def test_trace_tree_json_is_byte_stable():
    def build() -> str:
        ctx = RequestTracer(3).trace("req/1")
        ctx.commit([
            ("request", "request", 100, 200, None,
             {"index": 1, "status": "served"}),
            ("queue", "queue", 100, 150, 0, None),
        ])
        return json.dumps(ctx.to_json(), sort_keys=True)

    assert build() == build()


def test_commit_links_parents_by_row_offset():
    tracer = RequestTracer(7)
    bulk = tracer.trace("bulk")
    root, queue, execute = bulk.commit([
        ("request", "request", 0, 10, None, {"index": 0}),
        ("queue", "queue", 0, 4, 0, None),
        ("execute", "execute", 4, 10, 0, None),
    ])
    assert [s.seq for s in (root, queue, execute)] == [0, 1, 2]
    assert queue.parent_id == execute.parent_id == root.span_id
    # one row at a time, parents by id: the same tree, byte for byte
    single = RequestTracer(7).trace("bulk")
    first = single.span("request", "request", 0, 10, attrs={"index": 0})
    single.span("queue", "queue", 0, 4, parent=first.span_id)
    single.span("execute", "execute", 4, 10, parent=first.span_id)
    assert single.to_json() == bulk.to_json()
    # a later commit continues the numbering and may name earlier spans
    (respond,) = bulk.commit([("respond", "respond", 10, 10, root.span_id, None)])
    assert respond.seq == 3 and respond.parent_id == root.span_id


def test_span_validation():
    ctx = RequestTracer(1).trace("t")
    with pytest.raises(ValueError):
        ctx.span("bad", "x", 10, 5)
    # a commit with one invalid row commits none of its rows
    with pytest.raises(ValueError):
        ctx.commit([
            ("ok", "x", 0, 1, None, None),
            ("bad", "x", 10, 5, 0, None),
        ])
    assert ctx.spans() == ()
    with pytest.raises(AttributeError):  # a frozen record
        ctx.span("ok", "x", 0, 1).end_ns = 2


def test_root_is_first_parentless_span():
    ctx = RequestTracer(1).trace("t")
    ctx.commit([
        ("request", "request", 0, 2, None, None),
        ("queue", "queue", 0, 1, 0, None),
    ])
    assert ctx.root().name == "request"
    assert ctx.spans()[0].seq == 0


# -- scoped views --------------------------------------------------------------


def test_scoped_views_share_one_store():
    tracer = RequestTracer(5)
    cell_a = tracer.scoped("cold-boot@90")
    cell_b = tracer.scoped("restore@90")
    ta = cell_a.trace("req/0")
    tb = cell_b.trace("req/0")
    assert ta.key == "cold-boot@90/req/0"
    assert tb.key == "restore@90/req/0"
    assert ta.trace_id != tb.trace_id
    # any view resolves ids minted through any other view
    assert tracer.get(ta.trace_id) is ta
    assert cell_b.get(ta.trace_id) is ta
    assert [ctx.key for ctx in tracer.traces()] == [ta.key, tb.key]


def test_nested_scopes_prefix_keys():
    tracer = RequestTracer(5).scoped("outer").scoped("inner")
    assert tracer.trace("x").key == "outer/inner/x"


# -- engine integration --------------------------------------------------------


def test_tracer_does_not_change_the_result():
    plain = _run_traced(None)
    traced = _run_traced(RequestTracer(3))
    assert traced == plain


def test_request_paths_reconcile_with_the_result():
    tracer = RequestTracer(3)
    result = _run_traced(tracer)
    paths = request_paths(tracer.traces())
    assert len(paths) == result.served
    assert sorted(p.latency_ns for p in paths) == sorted(result.latencies_ns)


def test_warm_requests_have_no_provision_segment():
    tracer = RequestTracer(3)
    _run_traced(tracer)
    paths = request_paths(tracer.traces())
    kinds_by_temp = {True: set(), False: set()}
    for p in paths:
        kinds_by_temp[p.cold].update(seg.kind for seg in p.segments)
    assert not any(k.startswith("provision") for k in kinds_by_temp[False])
    if kinds_by_temp[True]:  # some runs serve everything warm
        assert any(k.startswith("provision") for k in kinds_by_temp[True])


def test_critical_path_conservation_is_exact_not_approximate():
    tracer = RequestTracer(3)
    _run_traced(tracer)
    for path in request_paths(tracer.traces()):
        assert sum(seg.ns for seg in path.segments) == path.latency_ns


def test_conservation_check_rejects_an_impossible_path():
    # queued/execute decompose exactly by construction, so the only
    # constructible violation is an instance "ready" after its own
    # dispatch — a negative queued segment the check must reject
    tracer = RequestTracer(3)
    ctx = tracer.trace("req/0")
    ctx.commit([
        ("request", "request", 0, 10 * MS, None,
         {"index": 0, "status": "served", "latency_ns": 10 * MS}),
        ("execute", "execute", 5 * MS, 10 * MS, None,
         {"ready_ns": 7 * MS}),
    ])
    with pytest.raises(MonitorError, match="negative segment"):
        critical_path(ctx.spans())


def test_tail_attribution_fractions_sum_to_one():
    tracer = RequestTracer(3)
    _run_traced(tracer)
    att = tail_attribution(request_paths(tracer.traces()))
    assert att is not None
    assert abs(sum(att.fractions().values()) - 1.0) < 1e-6
    assert sum(ns for _, ns in att.ns) == att.total_ns


def test_slowest_orders_by_latency_then_request():
    tracer = RequestTracer(3)
    _run_traced(tracer)
    top = slowest(request_paths(tracer.traces()), 5)
    latencies = [p.latency_ns for p in top]
    assert latencies == sorted(latencies, reverse=True)


# -- the conservation property, adversarially ----------------------------------


@SETTINGS
@given(
    startups=st.lists(
        st.integers(min_value=1, max_value=200), min_size=1, max_size=6
    ),
    invoke_ms=st.integers(min_value=1, max_value=50),
    rate=st.floats(min_value=5.0, max_value=300.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    min_ready=st.integers(min_value=0, max_value=4),
)
def test_conservation_holds_for_every_served_request(
    startups, invoke_ms, rate, seed, min_ready
):
    tracer = RequestTracer(seed)
    engine = ServeEngine(
        _backend(tuple(startups), invoke_ms=invoke_ms),
        ServeConfig(
            policy=AutoscalePolicy(min_ready=min_ready),
            deadline_ns=500 * MS,
        ),
        tracer=tracer.scoped("cell"),
    )
    result = engine.run(
        ArrivalSpec(rate_per_s=rate, duration_s=1.0, seed=seed)
    )
    # request_paths re-runs CriticalPath.check() on every path: any
    # non-exact decomposition raises MonitorError here
    paths = request_paths(tracer.traces())
    assert len(paths) == result.served
    for path in paths:
        assert sum(seg.ns for seg in path.segments) == path.latency_ns
        assert all(seg.ns >= 0 for seg in path.segments)


# -- the builder against the open/close reference ------------------------------


class _ReferenceEngine(ServeEngine):
    """The engine with the span-by-span reference builder deferred."""

    _build_traces = staticmethod(build_serve_traces)


def _trace_documents(backend, config, spec, seed) -> tuple[str, str]:
    docs = []
    for engine_cls in (ServeEngine, _ReferenceEngine):
        tracer = RequestTracer(seed)
        engine_cls(backend, config, tracer=tracer.scoped("cell")).run(spec)
        docs.append(tracer.to_json())
    return docs[0], docs[1]


_STAGES = ("snapshot_restore", "rebase", "linux_boot", "page_tables")

_sample = st.builds(
    lambda startup_ms, invoke_ms, offset, degraded, failed, stages, source: (
        ProductionSample(
            startup_ns=startup_ms * MS,
            invoke_ns=invoke_ms * MS,
            layout_offset=0x1000 * offset,
            degraded=degraded,
            failed=failed,
            stage_ns=tuple(zip(_STAGES, stages)),
            source=f"{source:016x}" if source else "",
        )
    ),
    startup_ms=st.integers(min_value=0, max_value=120),
    invoke_ms=st.integers(min_value=0, max_value=40),
    offset=st.integers(min_value=1, max_value=64),
    degraded=st.booleans(),
    failed=st.booleans(),
    stages=st.lists(
        st.integers(min_value=0, max_value=50 * MS), max_size=len(_STAGES)
    ),
    source=st.integers(min_value=0, max_value=2**64 - 1),
)


@SETTINGS
@given(
    samples=st.lists(_sample, min_size=1, max_size=6),
    rate=st.floats(min_value=5.0, max_value=400.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    min_ready=st.integers(min_value=0, max_value=4),
    queue_cap=st.integers(min_value=1, max_value=6),
    deadline_ms=st.integers(min_value=5, max_value=200),
    idle_ms=st.integers(min_value=10, max_value=500),
)
def test_builder_matches_the_open_close_reference(
    samples, rate, seed, min_ready, queue_cap, deadline_ms, idle_ms
):
    config = ServeConfig(
        policy=AutoscalePolicy(
            min_ready=min_ready, max_ready=8, scale_up_depth=1,
            idle_ns=idle_ms * MS,
        ),
        provisioners=2,
        queue_cap=queue_cap,
        deadline_ns=deadline_ms * MS,
        max_provision_failures=4,
    )
    spec = ArrivalSpec(rate_per_s=rate, duration_s=1.0, seed=seed)
    built, reference = _trace_documents(
        SampledBackend(samples=tuple(samples)), config, spec, seed
    )
    assert built == reference


def test_builder_matches_the_reference_on_every_record_kind():
    """One pinned flight that holds every compact record the engine keeps."""
    backend = SampledBackend(
        samples=tuple(
            ProductionSample(
                startup_ns=startup_ms * MS,
                invoke_ns=15 * MS,
                layout_offset=0x1000 * (i + 1),
                degraded=i == 2,
                failed=i == 1,
                stage_ns=(("snapshot_restore", 3 * MS), ("rebase", 1 * MS)),
                source=f"{i + 1:016x}",
            )
            for i, startup_ms in enumerate((5, 40, 90, 20))
        )
    )
    config = ServeConfig(
        policy=AutoscalePolicy(
            min_ready=1, max_ready=6, scale_up_depth=1, idle_ns=150 * MS
        ),
        provisioners=2,
        queue_cap=3,
        deadline_ns=60 * MS,
    )
    spec = ArrivalSpec(rate_per_s=60.0, duration_s=1.0, mix="bursty", seed=3)
    built, reference = _trace_documents(backend, config, spec, seed=3)
    assert built == reference

    traces = json.loads(built)["traces"].values()
    pool = next(t["spans"] for t in traces if t["key"] == "cell/pool")
    assert {"prewarm", "provision", "evict"} <= {s["kind"] for s in pool}
    requests = [t["spans"] for t in traces if t["key"] != "cell/pool"]
    status = [spans[0]["attrs"]["status"] for spans in requests]
    assert "rejected" in status
    assert any(
        spans[0]["attrs"]["status"] == "deadline"
        and any(s["kind"] == "provision" for s in spans)
        for spans in requests
    )
    kinds = [[s["kind"] for s in spans] for spans in requests]
    assert any(
        "provision" in k[: k.index("execute")]
        and "provision" in k[k.index("execute"):]
        for k in kinds
        if "execute" in k
    )
