"""Client sessions of a federation service.

A :class:`Session` is the per-user face of a
:class:`~repro.service.federation.PolygenFederation`: a lightweight handle
carrying that user's default :class:`~repro.service.options.QueryOptions`
and a record of outstanding queries, while all heavy state — schema,
registry, worker pool, coordinators, tag pool — stays on the shared
federation.  Opening a session allocates no threads; closing one cancels
whatever it still has in flight.  Many sessions submit concurrently; their
plans run on the federation's coordinators, and those with rows at
overlapping sources interleave on the shared per-database workers.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, List, Optional

from repro.errors import ServiceClosedError
from repro.pqp.result import QueryResult
from repro.service.cursor import Cursor
from repro.service.handle import QueryHandle
from repro.service.options import QueryOptions

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.service.federation import PolygenFederation, Query

__all__ = ["Session"]


class Session:
    """One user's window onto a shared federation."""

    def __init__(
        self, federation: "PolygenFederation", name: str, defaults: QueryOptions
    ):
        self.federation = federation
        self.name = name
        self.defaults = defaults
        #: Guards the outstanding-handle bookkeeping: one session may be
        #: driven from several client threads.
        self._lock = threading.Lock()
        self._handles: List[QueryHandle] = []
        self._closed = False
        #: A federation built *for* this session by :func:`repro.connect`;
        #: closed with the session because nobody else holds it.
        self._owned_federation: Optional["PolygenFederation"] = None

    # -- submission ---------------------------------------------------------

    def submit(
        self,
        query: "Query",
        options: QueryOptions | None = None,
        **overrides,
    ) -> QueryHandle:
        """Submit SQL text, a polygen algebra expression (text or tree), or
        a pre-built plan; returns immediately with a
        :class:`~repro.service.handle.QueryHandle`.

        Options resolve ``options`` (or this session's defaults) then
        ``**overrides`` — e.g. ``submit(q, engine="serial")``.
        """
        resolved = (options or self.defaults).replace(**overrides)
        # Closed-check, submission and handle registration are one atomic
        # step with respect to close(): a racing close() either cancels
        # this handle (registered before the swap) or makes this submit
        # raise — never a query that slips past the cancellation sweep.
        # Lock order session → federation is safe: no federation path
        # takes a session lock while holding the federation's.
        with self._lock:
            if self._closed:
                raise ServiceClosedError(f"session {self.name!r} is closed")
            handle = self.federation._submit(self, query, resolved)
            # Outstanding-work bookkeeping; settled handles are dropped so
            # a long-lived session does not accumulate history without
            # bound.
            self._handles = [h for h in self._handles if not h.done()]
            self._handles.append(handle)
        return handle

    def execute(
        self,
        query: "Query",
        options: QueryOptions | None = None,
        timeout: Optional[float] = None,
        **overrides,
    ) -> QueryResult:
        """Blocking convenience: ``submit(...).result(timeout)``."""
        return self.submit(query, options, **overrides).result(timeout)

    def cursor(
        self,
        query: "Query",
        options: QueryOptions | None = None,
        **overrides,
    ) -> Cursor:
        """Submit and return the streaming row cursor directly."""
        return self.submit(query, options, **overrides).cursor()

    # -- introspection ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def outstanding(self) -> List[QueryHandle]:
        """Handles of this session's queries that have not finished."""
        with self._lock:
            return [h for h in self._handles if not h.done()]

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Cancel unfinished queries, close their cursors, detach from the
        federation.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            handles, self._handles = self._handles, []
        for handle in handles:
            if not handle.done():
                handle.cancel()
            # The reason travels into ServiceClosedError so a fetch on a
            # cursor orphaned by session close says *why* it is dead.
            handle.cursor().close(reason=f"session {self.name!r} is closed")
        self.federation._forget_session(self)
        if self._owned_federation is not None:
            self._owned_federation.close()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"Session({self.name!r}, {len(self.outstanding())} outstanding, {state})"
