"""Traffic accounting and latency injection for LQP traffic.

LQP decorators subclass :class:`ForwardingLQP`, which writes the
delegation and the three relation verbs once and hands each shipped
relation to a single hook.  :class:`AccountingLQP` — the wrapper every
registered LQP sits behind — counts queries and shipped tuples in
:class:`TransferStats` (chunk streams included, as their chunks arrive);
:class:`LatencyLQP` injects *real* delay per query and per shipped tuple,
turning an in-memory engine into a slow autonomous source so the
concurrent runtime's overlap is measurable on a wall clock.

Accounting is thread-safe: the concurrent runtime drives one worker per
database, and a single LQP may serve several plans at once, so counter
updates take a lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Tuple

from repro.lqp.base import Capabilities, LocalQueryProcessor
from repro.relational.relation import Relation

__all__ = [
    "TransferStats",
    "ForwardingLQP",
    "AccountingLQP",
    "LatencyLQP",
]


@dataclass
class TransferStats:
    """Mutable traffic counters for one LQP.

    Internally locked: ``record``/``count``/``add_tuples``/``reset`` are
    atomic, so many sessions' rows hitting the same LQP concurrently
    (the federation's shared worker pool, or a multiplexed RemoteLQP)
    never lose an update.  Plain field reads stay lock-free — each is a
    single atomic int read; use :meth:`snapshot` for a consistent
    multi-field view.
    """

    queries: int = 0
    retrieves: int = 0
    selects: int = 0
    tuples_shipped: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(self, kind: str, result: Relation) -> None:
        with self._lock:
            self._count(kind)
            self.tuples_shipped += result.cardinality

    def count(self, kind: str) -> None:
        """Count one query of ``kind`` with no tuples yet (a chunk stream
        counts its rows as they flow; see :meth:`add_tuples`)."""
        with self._lock:
            self._count(kind)

    def add_tuples(self, tuples: int) -> None:
        with self._lock:
            self.tuples_shipped += tuples

    def _count(self, kind: str) -> None:
        self.queries += 1
        if kind == "retrieve":
            self.retrieves += 1
        else:
            self.selects += 1

    def snapshot(self) -> "TransferStats":
        """A consistent point-in-time copy of every counter."""
        with self._lock:
            return TransferStats(
                queries=self.queries,
                retrieves=self.retrieves,
                selects=self.selects,
                tuples_shipped=self.tuples_shipped,
            )

    def merged_with(self, other: "TransferStats") -> "TransferStats":
        mine, theirs = self.snapshot(), other.snapshot()
        return TransferStats(
            queries=mine.queries + theirs.queries,
            retrieves=mine.retrieves + theirs.retrieves,
            selects=mine.selects + theirs.selects,
            tuples_shipped=mine.tuples_shipped + theirs.tuples_shipped,
        )

    def reset(self) -> None:
        with self._lock:
            self.queries = self.retrieves = self.selects = self.tuples_shipped = 0


class _AccountedChunkStream:
    """Wraps a chunk stream so shipped tuples still hit the counters.

    The query is counted on first iteration (matching when traffic
    actually starts flowing), each chunk's rows as they arrive — so a
    stream abandoned early records only what was really shipped.
    """

    def __init__(self, inner, owner: "AccountingLQP", kind: str):
        self._inner = inner
        self._owner = owner
        self._kind = kind

    @property
    def attributes(self):
        return self._inner.attributes

    def __iter__(self):
        stats = self._owner.stats
        stats.count(self._kind)
        for chunk in self._inner:
            stats.add_tuples(chunk.count)
            yield chunk

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)


class ForwardingLQP(LocalQueryProcessor):
    """An LQP that delegates everything to an inner LQP.

    The base of every decorator: identity, capabilities, concurrency,
    overlap and catalog calls pass straight through, so decoration never
    masks the wrapped engine; the three relation verbs forward their arguments
    unchanged (``columns=`` included, which the caller only sends to an
    engine reporting ``native_projection``) and hand the shipped relation
    to :meth:`_shipped` — the one hook a subclass overrides.
    """

    def __init__(self, inner: LocalQueryProcessor):
        self._inner = inner

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def inner(self) -> LocalQueryProcessor:
        return self._inner

    @property
    def native_concurrency(self) -> int:
        return self._inner.native_concurrency

    @property
    def overlaps(self) -> bool:
        return self._inner.overlaps

    def capabilities(self) -> Capabilities:
        return self._inner.capabilities()

    def relation_names(self) -> Tuple[str, ...]:
        return self._inner.relation_names()

    def _shipped(self, kind: str, result: Relation) -> Relation:
        """Called with each verb's result (``kind`` is the verb name)."""
        return result

    def retrieve(self, *args, **kwargs) -> Relation:
        return self._shipped("retrieve", self._inner.retrieve(*args, **kwargs))

    def select(self, *args, **kwargs) -> Relation:
        return self._shipped("select", self._inner.select(*args, **kwargs))

    def select_in(self, *args, **kwargs) -> Relation:
        return self._shipped("select_in", self._inner.select_in(*args, **kwargs))


class AccountingLQP(ForwardingLQP):
    """Wraps an LQP, recording every request and its result size."""

    def __init__(self, inner: LocalQueryProcessor):
        super().__init__(inner)
        self.stats = TransferStats()

    def _shipped(self, kind: str, result: Relation) -> Relation:
        self.stats.record(kind, result)
        return result

    def __getattr__(self, name):
        # The chunk-stream verbs exist on this wrapper exactly when the
        # wrapped engine has them, so the executor's duck-typed streaming
        # probe (``getattr(lqp, "retrieve_chunks", None)``) sees through
        # the accounting layer; the stream itself is wrapped so streamed
        # tuples still land in the counters.
        if name in ("retrieve_chunks", "select_chunks"):
            inner_method = getattr(self._inner, name)
            kind = "retrieve" if name == "retrieve_chunks" else "select"

            def stream_verb(*args, **kwargs):
                return _AccountedChunkStream(
                    inner_method(*args, **kwargs), self, kind
                )

            stream_verb.__name__ = name
            return stream_verb
        raise AttributeError(
            f"{type(self).__name__} object has no attribute {name!r}"
        )


class LatencyLQP(ForwardingLQP):
    """Wraps an LQP, sleeping a configurable delay on every request.

    ``per_query`` seconds model round-trip/setup latency; ``per_tuple``
    seconds model marshalling + transfer of each shipped tuple, so a
    request costs ``per_query + per_tuple · tuples`` seconds of real wall
    clock.  Catalog lookups stay free, as metadata would be, and whole
    verbs are delayed: there are no chunk-stream verbs.  The sleep
    releases the interpreter lock, so the wrapped source ``overlaps``.
    """

    overlaps = True

    def __init__(
        self, inner: LocalQueryProcessor, per_query: float = 0.01, per_tuple: float = 0.0
    ):
        super().__init__(inner)
        self.per_query = per_query
        self.per_tuple = per_tuple

    def _shipped(self, kind: str, result: Relation) -> Relation:
        pause = self.per_query + self.per_tuple * result.cardinality
        if pause > 0:
            time.sleep(pause)
        return result
