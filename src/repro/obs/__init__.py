"""Unified observability: tracing, metrics, structured events.

The polygen stack grew introspection organically — per-row timings on
:class:`~repro.pqp.executor.ExecutionTrace`, frozen counter snapshots on
the transports and the result cache, a bespoke accumulator behind
``federation.stats()`` — but nothing that follows *one query* across the
coordinator, the cache, the worker pool and the remote LQP servers it
touches.  This package is that missing layer, in three parts:

``obs.trace``
    A :class:`~repro.obs.trace.Tracer` producing nested
    :class:`~repro.obs.trace.Span` trees (``query -> optimize /
    cache-probe / plan rows / chunks``).  Trace and span ids ride the
    wire protocol (the v2 hello negotiates a ``trace`` capability), so a
    remote :class:`~repro.net.server.LQPServer` ships its server-side
    spans back and the coordinator stitches them into one distributed
    trace.

``obs.metrics``
    A thread-safe :class:`~repro.obs.metrics.MetricsRegistry` of
    counters, gauges and exponential-bucket histograms with label
    dimensions (per source tag, per session), rendered in the
    Prometheus text exposition format.  ``federation.metrics_text()``
    is the front door; :mod:`repro.obs.export` serves the same text
    over a TCP endpoint.

``obs.events``
    A structured JSONL event log with a slow-query log: any query over
    the ``slow_query_ms`` threshold records its plan fingerprint, plan
    shape, cache disposition, per-LQP busy time and consulted source
    tags.

In the spirit of the paper, telemetry is *source-tagged*: query counters
carry a ``source`` label per consulted originating database, so "which
tenants hammer which sources" is one exposition scrape away.
"""

from repro.obs.events import EventLog, slow_query_event
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
)
from repro.obs.trace import (
    Span,
    Tracer,
    current_span,
    span_payloads,
    spans_from_payloads,
    use_span,
)

__all__ = [
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "Tracer",
    "current_span",
    "global_registry",
    "slow_query_event",
    "span_payloads",
    "spans_from_payloads",
    "use_span",
]
