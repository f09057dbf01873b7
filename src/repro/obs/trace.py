"""Distributed tracing: spans, the tracer, and context propagation.

A **trace** is the story of one query: a tree of :class:`Span` objects
rooted at the federation's ``query`` span, with children for the
pipeline stages (``translate``, ``optimize``, ``cache.probe``), one span
per executed plan row (``row R(3) [Retrieve]``), and — for a federation
that reaches remote LQPs — *server-side* spans created inside the
:class:`~repro.net.server.LQPServer` and shipped back over the wire.

Spans of one trace share a :class:`_TraceBook`, an append-only,
lock-guarded list capped at :data:`MAX_SPANS` (a runaway plan degrades
to dropped spans, never unbounded memory).  Ending the root seals the
book: the root keeps the span list, and the spans drop the book.  The
ambient span is carried in a :class:`contextvars.ContextVar`, so nested
instrumentation finds its parent without plumbing arguments through every
layer; code that hops threads explicitly (worker pools, the chunk-stream
reader) captures :func:`current_span` at submission time and re-enters it
with :func:`use_span` on the worker.

Propagation over the wire is deliberately tiny: a request carries
``{"id": trace_id, "span": parent_span_id}``; the server opens spans
under that parent and returns their :func:`span_payloads` on the final
``end``/``result`` frame; the coordinator calls :meth:`Span.adopt` to
stitch them in.  Timestamps are wall-clock seconds derived from a
monotonic anchor, so same-host (loopback) traces line up on one
timeline; cross-host traces remain correctly *parented* even when
clocks disagree, which is the property the tests pin.
"""

from __future__ import annotations

import contextvars
import random
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

__all__ = [
    "MAX_EVENTS",
    "MAX_SPANS",
    "Span",
    "Tracer",
    "current_span",
    "now",
    "span_payloads",
    "spans_from_payloads",
    "use_span",
]

#: Per-span cap on recorded events (chunk markers etc.).
MAX_EVENTS = 64

#: Per-trace cap on recorded spans.
MAX_SPANS = 4096

# Wall-clock timestamps computed off the monotonic clock: ``_WALL_ANCHOR
# + (perf_counter() - _PERF_ANCHOR)``.  Monotonic within a process (no
# NTP step mid-trace), comparable across processes on the same host.
_WALL_ANCHOR = time.time()
_PERF_ANCHOR = time.perf_counter()


def now() -> float:
    """The span clock: what ``Span.start``/``finish`` are read off."""
    return _WALL_ANCHOR + (time.perf_counter() - _PERF_ANCHOR)


def _new_id(bits: int = 64) -> str:
    # Ids need uniqueness, not secrecy: the module PRNG (reseeded after a
    # fork) costs a tenth of ``uuid4``'s per-call ``urandom`` syscall.
    return f"{random.getrandbits(bits):0{bits // 4}x}"


class _TraceBook:
    """The shared, bounded collection of every span in one trace."""

    __slots__ = ("_lock", "_spans", "dropped")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: List["Span"] = []
        self.dropped = 0

    def add(self, span: "Span") -> bool:
        with self._lock:
            if len(self._spans) >= MAX_SPANS:
                self.dropped += 1
                return False
            self._spans.append(span)
            return True

    def spans(self) -> List["Span"]:
        with self._lock:
            return list(self._spans)

    def opened_by(self, span: "Span") -> bool:
        """Whether ``span`` is this trace's root (the first span added;
        one list read, so no lock)."""
        spans = self._spans
        return bool(spans) and spans[0] is span

    def seal(self) -> List["Span"]:
        """Every span recorded, and no more recording: each span lets go
        of the book, so a finished trace is a tree of plain references
        that frees by refcount, not a cycle left to the cyclic GC."""
        with self._lock:
            spans, self._spans = self._spans, []
        for span in spans:
            span._book = None
        return spans


@dataclass
class Span:
    """One timed operation inside a trace.

    ``start``/``finish`` are wall-clock seconds (monotonic-derived); an
    open span has ``finish is None``.  ``remote`` marks spans adopted
    from another process.  Mutation (``set``/``add_event``/``end``) is
    single-writer by construction — each span is written by the thread
    that runs its operation — so only the shared book is locked.
    """

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start: float = 0.0
    finish: Optional[float] = None
    attributes: Dict[str, object] = field(default_factory=dict)
    events: List[Dict[str, object]] = field(default_factory=list)
    status: str = "ok"
    remote: bool = False
    _book: Optional[_TraceBook] = field(
        default=None, repr=False, compare=False
    )
    #: A closed root's trace, itself excluded (see :meth:`end`).
    _sealed: Optional[List["Span"]] = field(
        default=None, repr=False, compare=False
    )

    # -- lifecycle ---------------------------------------------------

    def child(self, name: str, **attributes: object) -> "Span":
        """Open a child span (recorded in this trace's book)."""
        span = Span(
            name=name,
            trace_id=self.trace_id,
            span_id=_new_id(),
            parent_id=self.span_id,
            start=now(),
            attributes=dict(attributes),
            _book=self._book,
        )
        if self._book is not None:
            self._book.add(span)
        return span

    def end(self, error: Optional[BaseException] = None) -> "Span":
        """Close the span; idempotent (the first close wins).

        Closing a trace's root seals its book: the root keeps the spans
        for :meth:`trace_spans`, and no span refers back to it, so the
        trace frees as soon as its last holder lets go.  Spans a running
        row opens after that are not recorded."""
        if self.finish is None:
            self.finish = now()
            if error is not None:
                self.status = "error"
                self.attributes.setdefault("error", repr(error))
            if self._book is not None and self._book.opened_by(self):
                self._sealed = self._book.seal()[1:]
        return self

    def __enter__(self) -> "Span":
        self._token = _ACTIVE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _ACTIVE.reset(self._token)
        self._token = None  # the token holds the parent span
        self.end(exc)

    # -- annotation --------------------------------------------------

    def set(self, **attributes: object) -> "Span":
        self.attributes.update(attributes)
        return self

    def add_event(self, name: str, **attributes: object) -> None:
        """Record a point-in-time marker; capped at :data:`MAX_EVENTS`."""
        if len(self.events) >= MAX_EVENTS:
            return
        event: Dict[str, object] = {"name": name, "at": now()}
        if attributes:
            event.update(attributes)
        self.events.append(event)

    # -- introspection -----------------------------------------------

    @property
    def duration(self) -> float:
        return (self.finish if self.finish is not None else now()) - self.start

    def trace_spans(self) -> List["Span"]:
        """Every span recorded in this trace so far (self included)."""
        if self._sealed is not None:
            return [self] + self._sealed
        if self._book is None:
            return [self]
        return self._book.spans()

    def tree(self) -> Dict[str, List["Span"]]:
        """``parent span_id -> children`` adjacency for the whole trace,
        children in start order.  Spans whose parent never made it into
        the book (dropped, or a remote parent) hang off ``""``."""
        spans = self.trace_spans()
        known = {span.span_id for span in spans}
        children: Dict[str, List[Span]] = {}
        for span in spans:
            parent = span.parent_id if span.parent_id in known else ""
            children.setdefault(parent, []).append(span)
        for siblings in children.values():
            siblings.sort(key=lambda s: (s.start, s.span_id))
        return children

    # -- wire --------------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "name": self.name,
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "start": self.start,
            "finish": self.finish if self.finish is not None else now(),
            "status": self.status,
        }
        if self.attributes:
            payload["attributes"] = dict(self.attributes)
        if self.events:
            payload["events"] = list(self.events)
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "Span":
        return cls(
            name=str(payload.get("name", "?")),
            trace_id=str(payload.get("trace", "")),
            span_id=str(payload.get("span", "")) or _new_id(),
            parent_id=payload.get("parent"),  # type: ignore[arg-type]
            start=float(payload.get("start", 0.0)),
            finish=float(payload.get("finish", 0.0)),
            attributes=dict(payload.get("attributes", {})),  # type: ignore[arg-type]
            events=list(payload.get("events", [])),  # type: ignore[arg-type]
            status=str(payload.get("status", "ok")),
            remote=True,
        )

    def adopt(self, payloads: Iterable[Dict[str, object]]) -> List["Span"]:
        """Stitch remote span payloads into this trace.

        The server already parented its roots on the propagated span id,
        so adoption is: rewrite the trace id (belt and braces — the
        server echoes ours), mark ``remote``, and append to the book.
        """
        adopted = []
        for payload in payloads:
            span = Span.from_payload(payload)
            span.trace_id = self.trace_id
            span._book = self._book
            if self._book is None or self._book.add(span):
                adopted.append(span)
        return adopted


_ACTIVE: contextvars.ContextVar[Optional[Span]] = contextvars.ContextVar(
    "polygen_active_span", default=None
)


def current_span() -> Optional[Span]:
    """The ambient span of the calling context, if any."""
    return _ACTIVE.get()


@contextmanager
def use_span(span: Optional[Span]) -> Iterator[Optional[Span]]:
    """Make ``span`` ambient for the duration of the block.

    Unlike ``with span:`` this does **not** end the span on exit — it is
    the re-entry half of explicit cross-thread propagation (capture with
    :func:`current_span`, re-enter on the worker).
    """
    token = _ACTIVE.set(span)
    try:
        yield span
    finally:
        _ACTIVE.reset(token)


class Tracer:
    """Factory for trace roots and ambient children.

    Stateless beyond an optional ``on_end`` hook; a federation holds one
    and calls :meth:`start` per query.  ``Tracer`` never samples — span
    creation is two clock reads and a list append, cheap enough to keep
    always-on (the CI bench gates the overhead below 5%).
    """

    def __init__(self, service: str = "polygen") -> None:
        self.service = service

    def start(self, name: str, **attributes: object) -> Span:
        """Open a new trace: a root span with a fresh trace id."""
        book = _TraceBook()
        span = Span(
            name=name,
            trace_id=_new_id(128),
            span_id=_new_id(),
            parent_id=None,
            start=now(),
            attributes=dict(attributes),
            _book=book,
        )
        book.add(span)
        return span

    def continue_remote(
        self, name: str, context: Dict[str, object], **attributes: object
    ) -> Span:
        """Open a server-side root under a propagated trace context.

        ``context`` is the wire dict ``{"id": trace_id, "span":
        parent_span_id}``.  The returned span starts a *local* book —
        the server ships its finished spans back rather than sharing
        memory with the coordinator.
        """
        book = _TraceBook()
        span = Span(
            name=name,
            trace_id=str(context.get("id", "")) or _new_id(128),
            span_id=_new_id(),
            parent_id=str(context.get("span", "")) or None,
            start=now(),
            attributes=dict(attributes),
            _book=book,
        )
        book.add(span)
        return span

    @contextmanager
    def span(self, name: str, **attributes: object) -> Iterator[Span]:
        """Context manager: child of the ambient span (or a new root),
        made ambient for the block, ended on exit."""
        parent = current_span()
        span = (
            parent.child(name, **attributes)
            if parent is not None
            else self.start(name, **attributes)
        )
        with span:
            yield span


def span_payloads(spans: Iterable[Span]) -> List[Dict[str, object]]:
    """Serialise finished spans for an ``end``/``result`` wire frame."""
    return [span.to_payload() for span in spans]


def spans_from_payloads(payloads: Iterable[Dict[str, object]]) -> List[Span]:
    """Deserialise wire payloads (standalone; see :meth:`Span.adopt` for
    stitching into an existing trace)."""
    return [Span.from_payload(payload) for payload in payloads]
