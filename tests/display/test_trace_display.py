"""Tests for the span-tree and timeline renderers."""

from repro.display.trace import render_span_tree, render_timeline
from repro.obs.trace import Span, Tracer


def _sample_trace():
    tracer = Tracer()
    root = tracer.start("query", kind="sql")
    execute = root.child("execute")
    row = execute.child("row R(1)", location="AD")
    serve = Span.from_payload(
        {
            "name": "serve.retrieve",
            "trace": root.trace_id,
            "span": "srv-1",
            "parent": row.span_id,
            # Covers the root's whole extent and outlasts it, so its bar
            # fills the strip however long the root's setup took.
            "start": root.start,
            "finish": root.start + 1.0,
            "status": "ok",
        }
    )
    row._book.add(serve)
    serve.trace_id = root.trace_id
    serve._book = row._book
    row.end()
    execute.end()
    root.end()
    return root


class TestRenderSpanTree:
    def test_structure_and_flags(self):
        text = render_span_tree(_sample_trace(), attributes=False)
        lines = text.splitlines()
        assert lines[0].startswith("query")
        assert any(line.lstrip("│ ├└─").startswith("execute") for line in lines)
        # The remote span is nested under its row and flagged.
        row_index = next(i for i, l in enumerate(lines) if "row R(1)" in l)
        serve_index = next(i for i, l in enumerate(lines) if "serve.retrieve" in l)
        assert serve_index == row_index + 1
        assert "[remote]" in lines[serve_index]
        assert all("ms" in line for line in lines)

    def test_attributes_rendered_when_asked(self):
        text = render_span_tree(_sample_trace())
        assert "(kind=sql)" in text
        assert "location=AD" in text

    def test_error_status_flagged(self):
        span = Tracer().start("op")
        span.end(ValueError("nope"))
        assert "[error]" in render_span_tree([span])

    def test_accepts_query_result_like_objects(self):
        class _Trace:
            spans = _sample_trace().trace_spans()

        class _Result:
            trace = _Trace()

        assert render_span_tree(_Result()).startswith("query")

    def test_empty_trace(self):
        assert render_span_tree([]) == "(no spans)"


class TestRenderTimeline:
    def test_bars_fit_width_and_mark_remote(self):
        text = render_timeline(_sample_trace(), width=30)
        lines = text.splitlines()
        assert len(lines) == 4
        for line in lines:
            assert line.startswith("|") and "#" in line
            assert len(line.split("|")[1]) == 30
        assert any("*serve.retrieve" in line for line in lines)

    def test_longest_span_fills_the_strip(self):
        # The synthetic remote span dominates this trace's extent, so its
        # bar must run edge to edge while shorter spans stay slivers.
        text = render_timeline(_sample_trace(), width=20)
        longest = next(l for l in text.splitlines() if "serve.retrieve" in l)
        assert longest[1:21] == "#" * 20
        sliver = next(l for l in text.splitlines() if " query" in l)
        assert sliver[1:21] != "#" * 20

    def test_empty_trace(self):
        assert render_timeline([]) == "(no spans)"
