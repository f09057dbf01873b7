"""Streaming result cursors.

A :class:`Cursor` is the row-level view of one submitted query.  Two
producer paths feed it:

- **pipelined streaming** — when the plan is a streamable spine
  (:mod:`repro.pqp.stream`), the executor's ``on_chunk`` hook delivers
  columnar batches of fresh result rows *while the scan is still in
  flight*, and the first ``fetchone`` returns long before the plan's
  trace exists;
- **whole-relation delivery** — every other plan arrives through the
  ``on_result`` hook the instant the result node completes, and the
  cursor slices it into ``fetch_size``-row columnar batches itself, so
  consumers see one uniform shape either way.

Consumers drain rows with the DB-API-flavoured ``fetchone`` /
``fetchmany`` / ``fetchall`` or plain iteration — or whole *columnar
batches* (tags and all) with :meth:`Cursor.chunks`, the zero-rowification
path for bulk consumers.  Row fetches and ``chunks()`` draw disjoint
partitions of one stream: each batch goes to whichever consumer claims it
first.  Producer and consumer never share a lockless structure: batches
cross one condition variable.

Failure is part of the stream: if the query errors or is cancelled, the
pending exception surfaces on the next fetch (and mid-iteration in
``chunks()``), so a consumer looping on a cursor cannot silently hang or
miss a lost result.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.core.relation import PolygenRelation
from repro.core.row import PolygenTuple
from repro.errors import ServiceClosedError

__all__ = ["Cursor"]


class Cursor:
    """Rows of one query, delivered in batches as execution produces them."""

    def __init__(self, fetch_size: int = 64):
        self.fetch_size = fetch_size
        self._cond = threading.Condition()
        #: Columnar batches not yet claimed by any consumer.
        self._batches: "deque[PolygenRelation]" = deque()
        #: Rows of the batch row-level fetches are consuming; the first
        #: ``_at`` of them are taken.
        self._rows: Sequence[PolygenTuple] = ()
        self._at = 0
        self._attributes: Optional[Tuple[str, ...]] = None
        self._chunked = False  # batches arrived via the streaming hook
        self._exhausted = False  # producer finished feeding
        self._closed = False  # consumer hung up
        self._close_reason: Optional[str] = None
        self._error: Optional[BaseException] = None

    # -- producer side (coordinator thread) ---------------------------------

    def _feed_chunk(self, batch: PolygenRelation) -> None:
        """Publish one streamed columnar batch (the executor's ``on_chunk``
        hook).  A no-op on a closed cursor."""
        with self._cond:
            if self._closed:
                return
            self._attributes = tuple(batch.attributes)
            self._chunked = True
            if batch.cardinality:
                self._batches.append(batch)
            self._cond.notify_all()

    def _feed(self, relation: PolygenRelation) -> None:
        """Publish the whole result relation (the ``on_result`` hook).

        After streamed chunks this only marks the end of the stream — the
        rows already went out through :meth:`_feed_chunk`.  Otherwise the
        relation is sliced into ``fetch_size``-row columnar batches here.
        A no-op on a closed cursor: a cancelled query can outrun its
        cancellation checkpoints and still complete, and its rows must not
        pile up unreadable in a cursor nobody can fetch from.
        """
        with self._cond:
            if self._closed:
                return
            self._attributes = tuple(relation.attributes)
            if not self._chunked:
                store = relation.store
                for start in range(0, store.cardinality, self.fetch_size):
                    piece = store.slice_rows(start, start + self.fetch_size)
                    self._batches.append(PolygenRelation.from_store(piece))
            self._exhausted = True
            self._cond.notify_all()

    def _fail(self, error: BaseException) -> None:
        """Publish a query failure; surfaces on the next fetch.  A no-op
        once the cursor is closed (every fetch already raises)."""
        with self._cond:
            if self._closed:
                return
            self._error = error
            self._exhausted = True
            self._cond.notify_all()

    # -- consumer side ------------------------------------------------------

    @property
    def attributes(self) -> Optional[Tuple[str, ...]]:
        """The result heading, or ``None`` until the first batch lands."""
        return self._attributes

    @property
    def closed(self) -> bool:
        return self._closed

    def _raise_closed(self) -> None:
        raise ServiceClosedError(self._close_reason or "cursor is closed")

    def _move(self, gathered: List[PolygenTuple], goal: Optional[int]) -> None:
        """Move buffered rows onto ``gathered`` until it holds ``goal``
        (``None`` = every buffered row): one slice per batch, so a take
        costs its own rows, never the rest of the batch."""
        while goal is None or len(gathered) < goal:
            if self._at == len(self._rows):
                if not self._batches:
                    return
                self._rows = self._batches.popleft().tuples
                self._at = 0
            stop = len(self._rows) if goal is None else self._at + goal - len(gathered)
            gathered += self._rows[self._at : stop]
            self._at = min(stop, len(self._rows))

    def _take(
        self, goal: Optional[int], timeout: Optional[float]
    ) -> List[PolygenTuple]:
        """Collect up to ``goal`` rows (``None`` = until end of stream).

        One critical section from wait to the last row taken: the cursor
        is shared by every reader of its handle, and a partially consumed
        batch must stay buffered while the lock is held, or a concurrent
        reader could observe a premature end of stream.  Buffered rows
        drain before a pending failure surfaces; the failure is raised on
        the first call that finds nothing buffered.
        """
        gathered: List[PolygenTuple] = []
        with self._cond:
            while True:
                if self._closed:
                    self._raise_closed()
                self._move(gathered, goal)
                if len(gathered) == goal:
                    return gathered
                if self._error is not None and not gathered:
                    raise self._error
                if self._error is not None or self._exhausted:
                    return gathered
                if not self._cond.wait(timeout):
                    raise TimeoutError("no rows arrived within the timeout")

    def fetchone(self, timeout: Optional[float] = None) -> Optional[PolygenTuple]:
        """The next result tuple, or ``None`` when the stream is done."""
        rows = self._take(1, timeout)
        return rows[0] if rows else None

    def fetchmany(
        self, size: Optional[int] = None, timeout: Optional[float] = None
    ) -> List[PolygenTuple]:
        """Up to ``size`` tuples (default ``fetch_size``); ``[]`` at end.

        Blocks until ``size`` rows are buffered or the stream ends —
        whichever comes first — so rows flow as soon as the plan produces
        them.
        """
        return self._take(size or self.fetch_size, timeout)

    def fetchall(self, timeout: Optional[float] = None) -> List[PolygenTuple]:
        """Every remaining tuple (blocks until the query finishes)."""
        return self._take(None, timeout)

    def __iter__(self) -> Iterator[PolygenTuple]:
        while True:
            row = self.fetchone()
            if row is None:
                return

            yield row

    def chunks(self, timeout: Optional[float] = None) -> Iterator[PolygenRelation]:
        """Iterate whole columnar batches as the query produces them.

        Each yielded :class:`~repro.core.relation.PolygenRelation` is one
        batch of result rows *with their tags*, backed by the columnar
        store — no row-of-cells materialization unless the consumer asks
        for it.  On a streamed plan batches surface while the scan is
        still in flight; otherwise they all appear when the result lands.
        Raises the query's failure (e.g.
        :class:`~repro.errors.QueryCancelledError` after a mid-stream
        ``cancel()``) once buffered batches are drained, and
        :class:`~repro.errors.ServiceClosedError` on a closed cursor —
        it never hangs on a dead query.
        """
        while True:
            with self._cond:
                while True:
                    if self._closed:
                        self._raise_closed()
                    if self._batches:
                        batch = self._batches.popleft()
                        break
                    if self._error is not None:
                        raise self._error
                    if self._exhausted:
                        return
                    if not self._cond.wait(timeout):
                        raise TimeoutError("no batch arrived within the timeout")
            yield batch

    def close(self, reason: Optional[str] = None) -> None:
        """Drop buffered rows and refuse further fetches.  Idempotent;
        ``reason`` customizes the :class:`~repro.errors.ServiceClosedError`
        later fetches raise (e.g. the owning session's closure)."""
        with self._cond:
            if not self._closed:
                self._closed = True
                self._close_reason = reason
            self._batches.clear()
            self._rows = ()
            self._at = 0
            self._cond.notify_all()

    def __enter__(self) -> "Cursor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else ("done" if self._exhausted else "open")
        return f"Cursor(batches={len(self._batches)}, {state})"
