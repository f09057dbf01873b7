"""Rendering a query's distributed trace as a tree or a timeline.

A finished :class:`~repro.pqp.result.QueryResult` carries the query's
span set on ``result.trace.spans`` — coordinator spans plus any
server-side spans shipped back over the wire and stitched in
(:mod:`repro.obs.trace`).  Two views:

- :func:`render_span_tree` — the parent/child structure with durations,
  one line per span, remote spans flagged ``[remote]``;
- :func:`render_timeline` — a fixed-width Gantt strip per span, so
  overlap (concurrent rows at different LQPs) is visible at a glance.

Both accept either a span list or anything with a ``trace.spans``
attribute (a ``QueryResult``), so ``print(render_span_tree(result))``
just works.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs.trace import Span

__all__ = ["render_span_tree", "render_timeline"]


def _spans_of(source) -> List[Span]:
    trace = getattr(source, "trace", None)
    if trace is not None and hasattr(trace, "spans"):
        return list(trace.spans)
    if isinstance(source, Span):
        return source.trace_spans()
    return list(source)


def _forest(spans: Sequence[Span]) -> Dict[Optional[str], List[Span]]:
    """``parent span_id -> children`` with unknown parents promoted to
    roots (``None``), children in start order."""
    known = {span.span_id for span in spans}
    children: Dict[Optional[str], List[Span]] = {}
    for span in spans:
        parent = span.parent_id if span.parent_id in known else None
        children.setdefault(parent, []).append(span)
    for siblings in children.values():
        siblings.sort(key=lambda s: (s.start, s.span_id))
    return children


def _label(span: Span, attributes: bool) -> str:
    parts = [span.name, f"{span.duration * 1e3:.2f}ms"]
    if span.remote:
        parts.append("[remote]")
    if span.status != "ok":
        parts.append(f"[{span.status}]")
    if attributes and span.attributes:
        inner = ", ".join(
            f"{key}={value}" for key, value in sorted(span.attributes.items())
        )
        parts.append(f"({inner})")
    return " ".join(parts)


def render_span_tree(source, *, attributes: bool = True) -> str:
    """The trace as an indented tree, one line per span.

    ``source`` is a span list, a :class:`Span`, or a ``QueryResult``.
    """
    spans = _spans_of(source)
    if not spans:
        return "(no spans)"
    children = _forest(spans)
    lines: List[str] = []

    def walk(span: Span, prefix: str, tail: bool, root: bool) -> None:
        if root:
            lines.append(_label(span, attributes))
            child_prefix = ""
        else:
            lines.append(prefix + ("└─ " if tail else "├─ ") + _label(span, attributes))
            child_prefix = prefix + ("   " if tail else "│  ")
        kids = children.get(span.span_id, [])
        for i, kid in enumerate(kids):
            walk(kid, child_prefix, i == len(kids) - 1, False)

    roots = children.get(None, [])
    for root in roots:
        walk(root, "", True, True)
    return "\n".join(lines)


def render_timeline(source, *, width: int = 60) -> str:
    """The trace as a fixed-width Gantt strip, spans in start order.

    Each line is ``|..####..| name duration``; the strip spans the
    trace's full wall-clock extent, so concurrent rows at different LQPs
    show as overlapping bars.
    """
    spans = sorted(_spans_of(source), key=lambda s: (s.start, s.span_id))
    if not spans:
        return "(no spans)"
    origin = min(span.start for span in spans)
    extent = max(
        (span.finish if span.finish is not None else span.start) - origin
        for span in spans
    )
    extent = max(extent, 1e-9)
    name_width = min(32, max(len(span.name) for span in spans))
    lines = []
    for span in spans:
        begin = int((span.start - origin) / extent * (width - 1))
        finish = span.finish if span.finish is not None else span.start
        end = int((finish - origin) / extent * (width - 1))
        bar = [" "] * width
        for i in range(begin, max(begin, end) + 1):
            bar[i] = "#"
        name = span.name[:name_width].ljust(name_width)
        flag = "*" if span.remote else " "
        lines.append(
            f"|{''.join(bar)}| {flag}{name} {span.duration * 1e3:8.2f}ms"
        )
    return "\n".join(lines)
