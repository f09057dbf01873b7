"""Acceptance tests for the unified telemetry: one stitched distributed
trace, the metrics exposition, and the slow-query log, all driven
through a real federation over loopback LQP servers."""

import contextlib

import pytest

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer, RemoteLQP
from repro.service.federation import FederationStats, PolygenFederation

from tests.integration.conftest import PAPER_SQL

TIMEOUT = 5.0


@contextlib.contextmanager
def _distributed(wire_format="auto"):
    """AD and CD behind real TCP servers, dialed with ``wire_format``; PD
    in-process."""
    databases = paper_databases()
    with contextlib.ExitStack() as stack:
        registry = LQPRegistry()
        for name, database in databases.items():
            lqp = RelationalLQP(database)
            if name in ("AD", "CD"):
                server = stack.enter_context(LQPServer(lqp, chunk_size=4))
                lqp = stack.enter_context(
                    RemoteLQP(server.url, timeout=TIMEOUT, wire_format=wire_format)
                )
            registry.register(lqp)
        federation = stack.enter_context(
            PolygenFederation(
                paper_polygen_schema(),
                registry,
                resolver=paper_identity_resolver(),
            )
        )
        yield federation


@pytest.fixture(scope="module")
def distributed_federation():
    with _distributed() as federation:
        yield federation


@pytest.fixture(params=["json", "binary"])
def wire_federation(request):
    """A fresh distributed federation (so its plan memo starts empty)
    whose connections speak one encoding."""
    with _distributed(request.param) as federation:
        yield request.param, federation


@pytest.fixture
def local_federation():
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    with PolygenFederation(
        paper_polygen_schema(), registry, resolver=paper_identity_resolver()
    ) as federation:
        yield federation


FRONT_END_STAGES = {"translate", "analyze", "plan", "optimize"}


def _assert_stitched(federation, wire_format, result):
    """One trace across coordinator and servers; returns its root and the
    names of the spans directly under it."""
    assert len(result.relation) == 3  # still the paper's answer
    # The connection's encoding is the one every chunk travelled in.
    for database in ("AD", "CD"):
        stats = federation.registry.get(database).inner.transport_stats()
        assert (stats.binary_chunks > 0) == (wire_format == "binary"), database
    spans = result.trace.spans
    # ONE trace: every span — coordinator and server-side — shares id.
    assert len({span.trace_id for span in spans}) == 1
    ids = {span.span_id for span in spans}
    roots = [span for span in spans if span.parent_id is None]
    assert [root.name for root in roots] == ["query"]
    # The two remote sources shipped their server-side spans back.
    serve = [span for span in spans if span.name.startswith("serve.")]
    engine_spans = [span for span in spans if span.name.startswith("engine.")]
    assert serve and engine_spans
    assert all(span.remote for span in serve + engine_spans)
    # Correct parenting via the propagated ids: serve spans hang off
    # coordinator row spans, engine spans off their serve span.
    row_ids = {span.span_id for span in spans if span.name.startswith("row ")}
    assert all(span.parent_id in row_ids for span in serve)
    serve_ids = {span.span_id for span in serve}
    assert all(span.parent_id in serve_ids for span in engine_spans)
    # Everything is reachable: no orphan parents.
    assert all(
        span.parent_id in ids for span in spans if span.parent_id is not None
    )
    stage_names = {
        span.name for span in spans if span.parent_id == roots[0].span_id
    }
    return roots[0], stage_names


class TestStitchedTrace:
    @pytest.mark.parametrize("engine", ["serial", "concurrent"])
    def test_one_trace_spans_coordinator_and_servers(self, wire_federation, engine):
        wire_format, federation = wire_federation
        options = federation.defaults.replace(engine=engine)
        # Cold: the federation has never planned this text, so the root
        # covers every pipeline stage.
        root, stages = _assert_stitched(
            federation, wire_format, federation.run(PAPER_SQL, options)
        )
        assert FRONT_END_STAGES | {"execute"} <= stages
        assert "plan" not in root.attributes

    @pytest.mark.parametrize("engine", ["serial", "concurrent"])
    def test_repeated_query_reuses_the_prepared_plan(self, wire_federation, engine):
        wire_format, federation = wire_federation
        options = federation.defaults.replace(engine=engine)
        federation.run(PAPER_SQL, options)
        # Repeat: the memoized plan runs; the front end opens no spans,
        # the root says where the plan came from, and the trace is still
        # one stitched tree.
        root, stages = _assert_stitched(
            federation, wire_format, federation.run(PAPER_SQL, options)
        )
        assert root.attributes["plan"] == "memo"
        assert "execute" in stages
        assert not stages & FRONT_END_STAGES

    def test_spans_are_closed_and_timestamped(self, distributed_federation):
        result = distributed_federation.run(PAPER_SQL)
        for span in result.trace.spans:
            assert span.finish is not None
            assert span.finish >= span.start

    def test_untraced_lqp_call_ships_no_spans(self, distributed_federation):
        # A direct registry-level call with no ambient span must not ask
        # the server for tracing (zero overhead when nobody is looking).
        remote = distributed_federation.registry.get("AD")
        relation = remote.retrieve("BUSINESS")
        assert len(relation.rows) > 0


class TestMetricsExposition:
    def test_per_source_counters_and_latency_histogram(self, local_federation):
        federation = local_federation
        session = federation.session("metrics-user")
        session.execute(PAPER_SQL)
        session.execute(PAPER_SQL)
        text = federation.metrics_text()
        # Per-source-tag query counters.
        for source in ("AD", "CD", "PD"):
            assert f'polygen_source_consulted_total{{source="{source}"}} 2' in text
        # The latency histogram with exponential buckets.
        assert 'polygen_query_seconds_bucket{le="+Inf"} 2' in text
        assert "polygen_query_seconds_sum" in text
        assert "polygen_query_seconds_count 2" in text
        # Status and per-session labels.
        assert 'polygen_queries_total{status="completed"} 2' in text
        assert 'polygen_session_queries_total{session="metrics-user"} 2' in text
        # Collector-backed gauges.
        assert "polygen_uptime_seconds" in text
        assert 'polygen_busy_seconds_total{location="PQP"}' in text

    def test_transport_gauges_for_remote_sources(self, distributed_federation):
        distributed_federation.run(PAPER_SQL)
        text = distributed_federation.metrics_text()
        assert 'polygen_transport_requests{database="AD"}' in text
        assert 'polygen_transport_requests{database="CD"}' in text

    def test_serve_metrics_endpoint_scrapes(self, local_federation):
        import socket

        local_federation.run(PAPER_SQL)
        exporter = local_federation.serve_metrics()
        with socket.create_connection(exporter.address, timeout=TIMEOUT) as sock:
            sock.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
            sock.settimeout(TIMEOUT)
            data = b""
            while True:
                piece = sock.recv(4096)
                if not piece:
                    break
                data += piece
        assert b"polygen_queries_total" in data


class TestSlowQueryLog:
    def test_fires_exactly_for_over_threshold_queries(self, local_federation):
        federation = local_federation
        fast = federation.session("fast", slow_query_ms=60_000.0)
        slow = federation.session("slow", slow_query_ms=0.0)
        fast.execute(PAPER_SQL)
        assert federation.events.records("slow_query") == []
        slow.execute(PAPER_SQL)
        records = federation.events.records("slow_query")
        assert len(records) == 1
        assert federation.metrics.counter("polygen_slow_queries_total").total() == 1

    def test_entry_carries_the_debugging_payload(self, local_federation):
        federation = local_federation
        session = federation.session("audit", slow_query_ms=0.0)
        session.execute(PAPER_SQL)
        [entry] = federation.events.records("slow_query")
        assert entry["session"] == "audit"
        assert entry["engine"] == "concurrent"
        assert entry["cache"] == "off"
        assert entry["shape"] == "rewritten"
        assert entry["sources"] == ["AD", "CD", "PD"]
        assert entry["elapsed_ms"] >= 0
        assert isinstance(entry["fingerprint"], str) and entry["fingerprint"]
        assert "PQP" in entry["busy_by_location"]
        assert "SELECT" in entry["query"]

    def test_cache_disposition_tracks_hits(self, local_federation):
        federation = local_federation
        session = federation.session("cached", slow_query_ms=0.0, cache="on")
        session.execute(PAPER_SQL)
        session.execute(PAPER_SQL)
        records = federation.events.records("slow_query")
        assert [r["cache"] for r in records] == ["miss", "hit"]


class TestStatsShapeStability:
    """The deprecation guarantee: ``stats()`` keeps its historical shape
    while the metrics registry is the source of truth underneath."""

    PINNED_FIELDS = [
        "queries_submitted",
        "queries_completed",
        "queries_failed",
        "queries_cancelled",
        "queries_active",
        "sessions_open",
        "uptime_seconds",
        "worker_threads",
        "pool_occupancy",
        "busy_by_location",
        "lqp_queries",
        "lqp_tuples_shipped",
        "calibrated_models",
        "remote_transports",
        "cost_model_error",
        "plans_calibrated",
        "cache",
    ]

    def test_field_names_are_pinned(self):
        import dataclasses

        names = [field.name for field in dataclasses.fields(FederationStats)]
        assert names == self.PINNED_FIELDS

    def test_stats_mirror_the_registry(self, local_federation):
        federation = local_federation
        federation.run(PAPER_SQL)
        with pytest.raises(Exception):
            federation.run("SELECT NOPE FROM NOWHERE")
        stats = federation.stats()
        assert stats.queries_submitted == 2
        assert stats.queries_completed == 1
        assert stats.queries_failed == 1
        assert stats.queries_cancelled == 0
        assert stats.queries_active == 0
        assert stats.queries_completed == int(
            federation.metrics.counter("polygen_queries_total").value(
                status="completed"
            )
        )
        assert set(stats.busy_by_location) == {"AD", "CD", "PD", "PQP"}
        assert stats.cache is not None
        rendered = stats.render()
        assert "queries: 2 submitted, 1 completed, 1 failed" in rendered
