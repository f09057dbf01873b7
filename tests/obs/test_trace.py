"""Unit tests for the tracing core: spans, ambient context, wire
payloads, adoption, and the bounded trace book."""

import gc
import threading
import weakref

from repro import build_paper_federation
from repro.obs.trace import (
    MAX_EVENTS,
    MAX_SPANS,
    Span,
    Tracer,
    current_span,
    span_payloads,
    spans_from_payloads,
    use_span,
)

from tests.integration.conftest import PAPER_SQL


class TestSpanLifecycle:
    def test_root_and_children_share_one_trace(self):
        tracer = Tracer("test")
        root = tracer.start("query", kind="sql")
        a = root.child("stage-a")
        b = a.child("stage-b")
        assert root.trace_id == a.trace_id == b.trace_id
        assert a.parent_id == root.span_id
        assert b.parent_id == a.span_id
        assert root.attributes == {"kind": "sql"}
        spans = root.trace_spans()
        assert [s.name for s in spans] == ["query", "stage-a", "stage-b"]

    def test_end_is_idempotent_and_first_close_wins(self):
        span = Tracer().start("op")
        span.end()
        first = span.finish
        span.end()
        assert span.finish == first
        assert span.status == "ok"

    def test_end_with_error_sets_status_and_attribute(self):
        span = Tracer().start("op")
        span.end(ValueError("boom"))
        assert span.status == "error"
        assert "boom" in span.attributes["error"]

    def test_duration_and_ordering(self):
        span = Tracer().start("op")
        span.end()
        assert span.finish >= span.start
        assert span.duration >= 0.0

    def test_events_are_capped(self):
        span = Tracer().start("op")
        for i in range(MAX_EVENTS + 10):
            span.add_event("chunk", n=i)
        assert len(span.events) == MAX_EVENTS

    def test_trace_book_caps_span_count(self):
        root = Tracer().start("query")
        for i in range(MAX_SPANS + 5):
            root.child(f"row {i}")
        assert len(root.trace_spans()) == MAX_SPANS
        assert root._book.dropped == 6  # 5 over plus the one that hit the cap

    def test_tree_orphans_hang_off_empty_key(self):
        root = Tracer().start("query")
        child = root.child("stage")
        orphan = Span(name="lost", trace_id=root.trace_id, span_id="x",
                      parent_id="never-recorded")
        root._book.add(orphan)
        tree = root.tree()
        assert [s.name for s in tree[root.span_id]] == ["stage"]
        # Roots and unknown parents both hang off "": the orphan joins
        # the root there instead of vanishing.
        assert {s.name for s in tree[""]} == {"query", "lost"}
        assert child.span_id not in tree  # leaf


class TestAmbientContext:
    def test_with_span_sets_and_restores_ambient(self):
        tracer = Tracer()
        assert current_span() is None
        with tracer.span("outer") as outer:
            assert current_span() is outer
            with tracer.span("inner") as inner:
                assert current_span() is inner
                assert inner.parent_id == outer.span_id
            assert current_span() is outer
            assert inner.finish is not None
        assert current_span() is None
        assert outer.finish is not None

    def test_use_span_does_not_end_the_span(self):
        span = Tracer().start("op")
        with use_span(span):
            assert current_span() is span
        assert span.finish is None  # cross-thread re-entry half
        assert current_span() is None

    def test_ambient_span_is_not_inherited_by_new_threads(self):
        seen = []
        span = Tracer().start("op")
        with use_span(span):
            worker = threading.Thread(target=lambda: seen.append(current_span()))
            worker.start()
            worker.join()
        assert seen == [None]

    def test_explicit_capture_and_reentry_across_threads(self):
        tracer = Tracer()
        results = []

        def work(parent):
            with use_span(parent):
                with tracer.span("on-worker") as child:
                    results.append(child)

        with tracer.span("coordinator") as root:
            worker = threading.Thread(target=work, args=(current_span(),))
            worker.start()
            worker.join()
        assert results[0].parent_id == root.span_id
        assert results[0] in root.trace_spans()


class TestWirePayloads:
    def test_round_trip(self):
        span = Tracer().start("serve.retrieve", database="AD")
        span.add_event("chunk", tuples=3)
        span.end()
        [payload] = span_payloads([span])
        [back] = spans_from_payloads([payload])
        assert back.name == span.name
        assert back.trace_id == span.trace_id
        assert back.span_id == span.span_id
        assert back.attributes == {"database": "AD"}
        assert back.events[0]["tuples"] == 3
        assert back.remote is True

    def test_open_span_payload_carries_a_finish(self):
        span = Tracer().start("op")
        payload = span.to_payload()
        assert payload["finish"] >= payload["start"]

    def test_adopt_rewrites_trace_id_and_joins_the_book(self):
        coordinator = Tracer().start("query")
        server_root = Tracer().continue_remote(
            "serve.retrieve",
            {"id": coordinator.trace_id, "span": coordinator.span_id},
        )
        engine = server_root.child("engine.retrieve")
        engine.end()
        server_root.end()
        payloads = span_payloads(server_root.trace_spans())
        adopted = coordinator.adopt(payloads)
        assert len(adopted) == 2
        assert all(s.remote for s in adopted)
        assert all(s.trace_id == coordinator.trace_id for s in adopted)
        names = [s.name for s in coordinator.trace_spans()]
        assert names == ["query", "serve.retrieve", "engine.retrieve"]
        # Parenting survived the wire: serve under query, engine under serve.
        tree = coordinator.tree()
        assert [s.name for s in tree[coordinator.span_id]] == ["serve.retrieve"]

    def test_continue_remote_without_context_starts_fresh(self):
        span = Tracer().continue_remote("serve.retrieve", {})
        assert span.parent_id is None
        assert len(span.trace_id) == 32


class TestSealedTrace:
    def test_a_closed_root_still_lists_its_trace(self):
        root = Tracer().start("query")
        child = root.child("stage")
        child.end()
        root.end()
        assert root.trace_spans() == [root, child]
        assert child._book is None
        child.child("late")  # opened after the root closed: not recorded
        assert root.trace_spans() == [root, child]

    def test_a_finished_query_frees_by_refcount(self):
        # Without the seal, Span → book → span list → Span is a cycle only
        # the cyclic collector frees; with it, dropping the result is enough.
        federation = build_paper_federation().federation
        federation.run(PAPER_SQL)  # plan memo warm: the steady-state path
        gc.collect()
        gc.disable()
        try:
            result = federation.run(PAPER_SQL)
            spans = result.trace.spans
            assert len(spans) > 1 and spans[0].name == "query"
            root, last = weakref.ref(spans[0]), weakref.ref(spans[-1])
            del result, spans
            assert root() is None and last() is None
        finally:
            gc.enable()
