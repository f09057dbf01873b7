"""Per-layer tracing for the benchmark's traced pass.

Nothing under ``src/`` is edited: spans come from three places, all
recorded with the program's own public :mod:`repro.obs.trace` API so they
share its clock and its parent/child bookkeeping —

(a) the stage and row spans the federation already emits, read off
    ``QueryResult.trace.spans``;
(b) :class:`TimedLQP`, a proxy registered around each source;
(c) :class:`Shims`, timing wrappers installed for the traced pass (and
    removed after it) at public-function boundaries, patched where the
    name is looked up.

A shim opens its span as a child of the ambient span, so it lands inside
the query's own trace with the right parent; code that runs with no
ambient span (the wire decoder, on the transport's event-loop thread) is
kept as an *orphan* and re-parented by thread name and time in
:func:`link_orphans`.  A layer's self time is its span minus the part of
it its children cover (:func:`self_times`) — children may run in parallel
on worker threads, hence interval union, not a sum.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.obs.trace import Span, Tracer, current_span

__all__ = [
    "Recorder",
    "Shims",
    "SpanRecord",
    "TimedLQP",
    "covered",
    "link_orphans",
    "self_times",
    "to_records",
]


class Recorder:
    """Opens benchmark-side spans and keeps the ones with no ambient parent."""

    def __init__(self) -> None:
        self._tracer = Tracer("benchmark")
        self._lock = threading.Lock()
        self.orphans: List[Span] = []

    def root(self, name: str, **attributes) -> Span:
        """A fresh trace root (one per operation)."""
        return self._tracer.start(name, **attributes)

    @contextmanager
    def span(self, name: str, **attributes) -> Iterator[Span]:
        """A span under the ambient one, ambient itself inside the block."""
        parent = current_span()
        if parent is None:
            span = self._tracer.start(
                name, thread=threading.current_thread().name, **attributes
            )
            with self._lock:
                self.orphans.append(span)
        else:
            span = parent.child(name, **attributes)
        with span:
            yield span

    def take_orphans(self) -> List[Span]:
        with self._lock:
            orphans, self.orphans = self.orphans, []
        return orphans


class TimedLQP:
    """A transparent proxy timing the four LQP verbs of one source.

    Not a ``LocalQueryProcessor`` subclass on purpose: every attribute it
    does not time (name, capabilities, native_concurrency, catalog calls,
    chunk-stream verbs, ``transport_stats``) must resolve to the wrapped
    engine's own, and the base class's defaults would shadow them.
    """

    _VERBS = ("retrieve", "select", "retrieve_range", "select_range")

    def __init__(self, inner, recorder: Recorder, span_name: str, **attributes):
        self.inner = inner
        self._recorder = recorder
        self._span_name = span_name
        self._attributes = dict(attributes, source=inner.name)

    def __getattr__(self, name):
        attribute = getattr(self.inner, name)
        if name not in self._VERBS:
            return attribute

        def timed(*args, **kwargs):
            with self._recorder.span(self._span_name, verb=name, **self._attributes) as span:
                relation = attribute(*args, **kwargs)
                span.set(tuples=relation.cardinality)
            return relation

        return timed

    def __repr__(self) -> str:
        return f"TimedLQP({self.inner!r})"


def _cardinalities(values: Iterable) -> int:
    """Summed cardinality of every relation/store among ``values``
    (descending one level into sequences, for N-ary kernels)."""
    total = 0
    for value in values:
        if isinstance(value, (list, tuple)):
            total += _cardinalities(value)
        else:
            total += getattr(value, "cardinality", 0)
    return total


def _relation_counts(args, result) -> Dict[str, int]:
    return {
        "tuples_in": _cardinalities(args),
        "tuples_out": getattr(result, "cardinality", 0),
    }


def _decode_counts(args, result) -> Dict[str, int]:
    return {"bytes": len(args[0]), "tuples_out": int(result.get("count", 0))}


#: What the traced pass times: (defining module, class or None, name, span
#: name, counts taken from the call).  Public names only — the benchmark is
#: frozen, the program's private names are not.
_SHIM_TARGETS = (
    ("repro.lqp.tagging", None, "materialize", "materialize", _relation_counts),
    ("repro.net.binary", None, "decode_chunk_payload", "net.decode", _decode_counts),
    ("repro.pqp.fingerprint", None, "fingerprint_plan", "fingerprint", None),
    ("repro.pqp.calibrate", "CostCalibrator", "observe", "calibrate.observe", None),
    ("repro.service.cache", "ResultCache", "lookup", "cache.lookup", None),
    ("repro.service.cache", "ResultCache", "put", "cache.put", None),
)


class Shims:
    """Timing wrappers at public-function boundaries, installed on demand.

    A function is patched *where its name is looked up*: in its defining
    module and in every loaded ``repro`` module that imported it by name.
    A target a later change has moved or renamed is skipped and listed in
    :attr:`missing` (its layer then reports 0) — a refactor must not be
    rejected because the frozen benchmark cannot find a function.
    """

    def __init__(self, recorder: Recorder):
        self._recorder = recorder
        self._installed: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def _timed(self, original, span_name: str, counts):
        recorder = self._recorder

        @functools.wraps(original)
        def shim(*args, **kwargs):
            with recorder.span(span_name) as span:
                result = original(*args, **kwargs)
                if counts is not None:
                    span.set(**counts(args, result))
            return result

        return shim

    def _patch(self, owner, attribute: str, shim) -> None:
        self._installed.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, shim)

    def _wrap(self, module_name: str, class_name, attribute: str, span_name: str, counts) -> None:
        try:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            original = getattr(owner, attribute)
        except (ImportError, AttributeError):
            self.missing.append(".".join(filter(None, (module_name, class_name, attribute))))
            return
        shim = self._timed(original, span_name, counts)
        self._patch(owner, attribute, shim)
        if class_name is None:
            for name, module in list(sys.modules.items()):
                if (
                    name.startswith("repro.")
                    and module is not owner
                    and getattr(module, "__dict__", {}).get(attribute) is original
                ):
                    self._patch(module, attribute, shim)

    def install(self) -> None:
        for target in _SHIM_TARGETS:
            self._wrap(*target)
        kernels = importlib.import_module("repro.storage.kernels")
        for name in kernels.__all__:
            self._wrap("repro.storage.kernels", None, name, f"kernels.{name}", _relation_counts)

    def remove(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)


# -- analysis ----------------------------------------------------------------


@dataclass
class SpanRecord:
    """One span, flattened for analysis and for the JSONL trace file."""

    name: str
    start: float
    end: float
    id: str
    parent: Optional[str]
    #: Operation index within the traced pass (spans of one op share it).
    query: int
    attributes: Dict[str, object] = field(default_factory=dict)
    self_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "id": self.id,
            "parent": self.parent,
            "query": self.query,
            "attributes": {key: _plain(value) for key, value in self.attributes.items()},
        }


def _plain(value):
    return value if isinstance(value, (int, float, str, bool, type(None))) else repr(value)


def _layer_name(name: str) -> str:
    """Row and stream spans carry the R(#) in their name; fold them."""
    if name.startswith(("row ", "stream ")):
        return "execute.row"
    if name.startswith("serve."):
        return "net.serve"
    if name.startswith("engine."):
        return "net.engine"
    return name


def to_records(spans: Iterable[Span], query: int, parent: Optional[str] = None) -> List[SpanRecord]:
    """Flatten finished spans; a span with no parent hangs off ``parent``."""
    records = []
    for span in spans:
        if span.finish is None:
            continue
        attributes = dict(span.attributes)
        if span.remote:
            attributes["remote"] = True
        records.append(
            SpanRecord(
                name=_layer_name(span.name),
                start=span.start,
                end=span.finish,
                id=span.span_id,
                parent=span.parent_id if span.parent_id is not None else parent,
                query=query,
                attributes=attributes,
            )
        )
    return records


def link_orphans(records: List[SpanRecord], orphans: Sequence[Span]) -> List[SpanRecord]:
    """Parent each orphan on the ``net.scan`` span whose transport thread
    it ran on and whose interval holds its start; unmatched orphans are
    dropped (work that belongs to no traced operation)."""
    scans = [record for record in records if "peer" in record.attributes]
    linked = []
    for orphan in orphans:
        thread = orphan.attributes.get("thread")
        for scan in scans:
            if scan.attributes["peer"] == thread and scan.start <= orphan.start <= scan.end:
                linked.extend(to_records([orphan], scan.query, parent=scan.id))
                break
    return linked


def covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for low, high in sorted(intervals):
        low, high = max(low, cursor), min(high, end)
        if high > low:
            total += high - low
            cursor = high
    return total


def self_times(records: List[SpanRecord]) -> None:
    """Set every record's ``self_time``: its duration minus the part of
    its interval that its children cover."""
    children: Dict[Optional[str], List[SpanRecord]] = defaultdict(list)
    for record in records:
        children[record.parent].append(record)
    for record in records:
        record.self_time = record.duration - covered(
            record.start,
            record.end,
            ((child.start, child.end) for child in children.get(record.id, ())),
        )
