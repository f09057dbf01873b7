"""``ConnectionMux``: N in-flight requests over one LQP connection.

The paper assumes **one connection per local database**.  This module
keeps that wire-level assumption while lifting the *one request at a
time* limitation above it: a :class:`ConnectionMux` owns a single TCP
connection to an :class:`~repro.net.server.LQPServer`, driven by a
private asyncio event loop on a background thread, and multiplexes up to
``concurrency`` concurrent requests over it — frames interleave on the
socket, responses are routed back to their callers by request id.

The callers are ordinary *threads* (the worker pool's per-database
workers), so the public API is blocking: :meth:`request` submits a
coroutine to the loop and waits.  Inside the loop:

- a bounded :class:`asyncio.Semaphore` enforces the concurrency level —
  the transport-level realization of a remote LQP's ``native_concurrency``;
- every response frame must arrive within ``timeout`` seconds (timed per
  frame, so a long chunk stream is fine as long as it keeps flowing);
  a timeout sends a best-effort ``cancel`` to the server and surfaces as
  :class:`~repro.errors.RemoteTimeoutError`;
- a dropped connection fails every pending request with
  :class:`~repro.errors.ConnectionLostError`; the *blocking* wrapper then
  retries idempotent requests (every LQP op is a pure read) up to
  ``retries`` times over a fresh connection before giving up.

The mux keeps :class:`TransportStats` — requests, bytes, chunks, retries,
reconnects and the in-flight high-water mark — which
``federation.stats()`` surfaces per remote database.
"""

from __future__ import annotations

import asyncio
import itertools
import threading
import weakref
from concurrent.futures import TimeoutError as _FutureTimeoutError
from time import monotonic as _monotonic
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional

from repro.errors import (
    ConnectionLostError,
    NetworkError,
    ProtocolError,
    QueryCancelledError,
    RemoteQueryError,
    RemoteTimeoutError,
    ServiceClosedError,
)
from repro.net import protocol

__all__ = ["ConnectionMux", "TransportStats"]

#: Slack added to the outer (cross-thread) wait so the in-loop timeout is
#: what actually fires; the outer bound only guards against a wedged loop.
_OUTER_SLACK = 10.0


class _AbortedByCaller(Exception):
    """Internal: the caller's abort handle was set mid-stream."""


@dataclass(frozen=True)
class TransportStats:
    """A point-in-time snapshot of one transport's counters."""

    requests: int = 0
    chunks: int = 0
    #: Subset of ``chunks`` that arrived as binary columnar frames.
    binary_chunks: int = 0
    tuples: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    retries: int = 0
    timeouts: int = 0
    reconnects: int = 0
    #: Most requests ever simultaneously in flight — shows whether the
    #: configured concurrency level is actually being used.
    in_flight_hwm: int = 0

    def render(self) -> str:
        return (
            f"{self.requests} requests ({self.chunks} chunks, "
            f"{self.tuples} tuples), {self.bytes_sent}B out / "
            f"{self.bytes_received}B in, {self.retries} retries, "
            f"{self.timeouts} timeouts, {self.reconnects} reconnects, "
            f"in-flight hwm {self.in_flight_hwm}"
        )


def _stop_loop(loop: asyncio.AbstractEventLoop) -> None:
    """GC finalizer: a mux dropped without close() must not strand its
    event-loop thread in run_forever."""
    try:
        if not loop.is_closed():
            loop.call_soon_threadsafe(loop.stop)
    except RuntimeError:
        pass  # lost the race with the loop closing; nothing to stop


def _run_loop(loop: asyncio.AbstractEventLoop) -> None:
    """The event-loop thread's body.  A module function taking only the
    loop — were it a bound method, the running thread would hold a strong
    reference to the mux, the mux could never become unreachable, and the
    GC finalizer above would never fire for an abandoned mux."""
    asyncio.set_event_loop(loop)
    try:
        loop.run_forever()
    finally:
        loop.close()


class ConnectionMux:
    """One multiplexed connection to a remote LQP server."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        concurrency: int = 4,
        timeout: float = 10.0,
        retries: int = 1,
    ):
        if concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {concurrency}")
        if timeout <= 0:
            raise ValueError(f"timeout must be positive, got {timeout}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = port
        self.concurrency = concurrency
        self.timeout = timeout
        self.retries = retries

        self._ids = itertools.count(1)
        self._closed = False
        self._hello: Optional[Dict[str, Any]] = None

        # Everything below is touched only on the loop thread.
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Queue] = {}
        self._connect_lock: Optional[asyncio.Lock] = None
        self._semaphore: Optional[asyncio.Semaphore] = None
        self._in_flight = 0

        self._stats = TransportStats()
        self._stats_lock = threading.Lock()
        #: Liveness heartbeat for the _call watchdog: touched on request
        #: starts, every received frame, and every in-loop timeout — the
        #: events that prove the event loop is processing.
        self._last_activity = _monotonic()

        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=_run_loop,
            args=(self._loop,),
            name=f"lqp-mux-{host}:{port}",
            daemon=True,
        )
        self._thread.start()
        self._finalizer = weakref.finalize(self, _stop_loop, self._loop)

    # -- blocking API (called from worker threads) --------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> TransportStats:
        with self._stats_lock:
            return self._stats

    def hello(self) -> Dict[str, Any]:
        """The server's hello frame, connecting on first use."""
        if self._hello is None:
            self._call(self._ensure_connected())
        return dict(self._hello)

    def request(
        self,
        op: str,
        *,
        on_chunk_message: Optional[Callable[[Dict[str, Any]], None]] = None,
        abort: Optional[threading.Event] = None,
        **params: Any,
    ) -> Dict[str, Any]:
        """Execute one request; blocks until its final frame.

        Returns ``{"value": ...}`` for scalar ops, or ``{"attributes": ...,
        "columns": [...], "chunks": n}`` for streamed relation ops — the
        chunks' column vectors concatenated, ``None`` when no chunk flowed;
        either shape gains a ``"spans"`` key when the server shipped
        server-side trace spans back (see :mod:`repro.obs.trace`).
        ``on_chunk_message(message)`` fires as each chunk lands — before
        the stream is complete — with the decoded chunk message
        (``attributes``, ``columns``, ``count``, whichever format carried
        it); when given, the reply accumulates no columns — the callback
        is the stream's only consumer.

        **The callback runs on this mux's event-loop thread.**  It must
        not block: every other in-flight request on this connection shares
        that loop, so a slow callback starves their frame reads into
        spurious timeouts.  Record/enqueue and return; do heavy work on
        the consuming thread (:class:`~repro.net.client.RelationChunkStream`
        is that hand-off).

        ``abort`` (any object with ``is_set()``) cancels the stream from
        the caller's side mid-flight: the mux sends a best-effort server
        ``cancel`` and raises :class:`~repro.errors.QueryCancelledError`.

        Every LQP op is a pure read, so a :class:`ConnectionLostError` is
        retried (``retries`` times) on a fresh connection; the chunk
        callback then restarts from the first chunk (consumers that must
        not re-process rows dedup on the chunk ``seq``).
        """
        attempts = self.retries + 1
        for attempt in range(attempts):
            # Checked per attempt: a close() racing a request fails the
            # pending call with ConnectionLostError, and the retry must
            # surface the closure rather than dial a fresh connection
            # nobody will ever tear down.
            if self._closed:
                raise ServiceClosedError(
                    f"transport to {self.host}:{self.port} is closed"
                )
            try:
                return self._call(
                    self._roundtrip(op, params, on_chunk_message, abort)
                )
            except ConnectionLostError:
                if attempt == attempts - 1:
                    raise
                self._count(retries=1)
        raise AssertionError("unreachable")  # pragma: no cover

    def ping(self) -> float:
        """Round-trip one ping; returns measured seconds."""
        import time

        began = time.perf_counter()
        self.request("ping")
        return time.perf_counter() - began

    def close(self) -> None:
        """Tear the connection down and stop the loop thread.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        if self._loop.is_closed():
            return
        try:
            future = asyncio.run_coroutine_threadsafe(self._shutdown(), self._loop)
            future.result(timeout=5.0)
        except Exception:
            pass
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=5.0)

    def __enter__(self) -> "ConnectionMux":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ConnectionMux({self.host}:{self.port}, "
            f"concurrency={self.concurrency}, {state})"
        )

    # -- plumbing -----------------------------------------------------------

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            updates = {
                name: getattr(self._stats, name) + delta
                for name, delta in deltas.items()
            }
            self._stats = replace(self._stats, **updates)

    def _touch(self) -> None:
        self._last_activity = _monotonic()

    def _note_in_flight(self, now: int) -> None:
        with self._stats_lock:
            if now > self._stats.in_flight_hwm:
                self._stats = replace(self._stats, in_flight_hwm=now)

    def _call(self, coroutine) -> Any:
        """Run ``coroutine`` on the loop thread; block with a watchdog.

        Timeouts are enforced *inside* the loop, per frame — a healthy
        chunk stream may legitimately run for minutes, as long as frames
        keep flowing.  The outer wait therefore polls in slices and only
        gives up when the loop itself shows no life: the thread died, or
        no frame (nor in-loop timeout, which would have settled the
        future) has happened for the per-frame timeout plus slack.  That
        is what keeps a wedged event loop from hanging the calling worker
        (and CI) without capping the duration of healthy requests.
        """
        if self._loop.is_closed():
            raise ServiceClosedError(
                f"transport to {self.host}:{self.port} is closed"
            )
        self._touch()
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        while True:
            try:
                return future.result(timeout=0.5)
            except (_FutureTimeoutError, TimeoutError):
                stalled = not self._thread.is_alive() or (
                    _monotonic() - self._last_activity
                    > self.timeout + _OUTER_SLACK
                )
                if not stalled:
                    continue
                future.cancel()
                self._count(timeouts=1)
                raise RemoteTimeoutError(
                    f"no reply from {self.host}:{self.port} and no event-loop "
                    f"activity within {self.timeout + _OUTER_SLACK:.1f}s "
                    "(event loop stalled)"
                ) from None

    async def _ensure_connected(self) -> None:
        if self._connect_lock is None:
            self._connect_lock = asyncio.Lock()
            self._semaphore = asyncio.Semaphore(self.concurrency)
        async with self._connect_lock:
            if self._closed:
                # close() may still be joining: never dial a connection
                # that teardown would not see.
                raise ServiceClosedError(
                    f"transport to {self.host}:{self.port} is closed"
                )
            if self._writer is not None:
                return
            try:
                self._reader, self._writer = await asyncio.wait_for(
                    asyncio.open_connection(self.host, self.port),
                    timeout=self.timeout,
                )
            except (OSError, asyncio.TimeoutError) as exc:
                raise ConnectionLostError(
                    f"cannot connect to LQP server at {self.host}:{self.port}: {exc}"
                ) from exc
            sock = self._writer.get_extra_info("socket")
            if sock is not None:
                import socket as _socket

                # Request frames are tiny; Nagle + delayed ACK would cost
                # ~40ms per round trip.
                sock.setsockopt(_socket.IPPROTO_TCP, _socket.TCP_NODELAY, 1)
            try:
                hello = await asyncio.wait_for(
                    self._read_one_frame(), timeout=self.timeout
                )
                protocol.check_hello(
                    hello, f"LQP server at {self.host}:{self.port}"
                )
            except (asyncio.IncompleteReadError, OSError, asyncio.TimeoutError) as exc:
                await self._drop_connection()
                raise ConnectionLostError(
                    f"no hello from {self.host}:{self.port}: {exc}"
                ) from exc
            except ProtocolError:
                # A bad hello (wrong version, garbage frame) must not leave
                # a half-open connection behind: _writer would stay set
                # with no read loop running, and every later request would
                # stall to its timeout instead of failing loudly here.
                await self._drop_connection()
                raise
            first = self._hello is None
            self._hello = hello
            if not first:
                self._count(reconnects=1)
            self._reader_task = asyncio.ensure_future(self._read_loop())

    async def _read_one_frame(self) -> Dict[str, Any]:
        header = await self._reader.readexactly(4)
        length = int.from_bytes(header, "big")
        if length > protocol.MAX_FRAME_BYTES:
            raise ProtocolError(
                f"incoming frame announces {length} bytes "
                f"(limit {protocol.MAX_FRAME_BYTES})"
            )
        payload = await self._reader.readexactly(length)
        self._count(bytes_received=4 + length)
        self._touch()
        return protocol.decode_payload(payload)

    async def _read_loop(self) -> None:
        try:
            while True:
                message = await self._read_one_frame()
                queue = self._pending.get(message.get("id"))
                if queue is not None:
                    queue.put_nowait(message)
                # Frames for unknown ids are stale streams of timed-out or
                # cancelled requests; dropping them is the protocol.
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            await self._fail_pending(
                ConnectionLostError(
                    f"connection to {self.host}:{self.port} dropped: {exc}"
                )
            )
        except asyncio.CancelledError:
            raise
        except ProtocolError as exc:
            await self._fail_pending(exc)

    async def _fail_pending(self, error: NetworkError) -> None:
        for queue in list(self._pending.values()):
            queue.put_nowait(error)
        self._pending.clear()
        await self._drop_connection()

    async def _drop_connection(self) -> None:
        writer, self._writer, self._reader = self._writer, None, None
        task, self._reader_task = self._reader_task, None
        if task is not None and not task.done():
            task.cancel()
        if writer is not None:
            writer.close()

    async def _send(self, message: Dict[str, Any]) -> None:
        frame = protocol.encode_frame(message)
        if self._writer is None:
            raise ConnectionLostError(
                f"connection to {self.host}:{self.port} is gone"
            )
        try:
            self._writer.write(frame)
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            raise ConnectionLostError(
                f"write to {self.host}:{self.port} failed: {exc}"
            ) from exc
        self._count(bytes_sent=len(frame))

    async def _roundtrip(
        self,
        op: str,
        params: Dict[str, Any],
        on_chunk_message: Optional[Callable[[Dict[str, Any]], None]] = None,
        abort: Optional[threading.Event] = None,
    ) -> Dict[str, Any]:
        await self._ensure_connected()
        async with self._semaphore:
            self._touch()  # waiting on the semaphore is not a stall
            self._in_flight += 1
            self._note_in_flight(self._in_flight)
            request_id = next(self._ids)
            queue: asyncio.Queue = asyncio.Queue()
            self._pending[request_id] = queue
            try:
                await self._send(protocol.request_message(request_id, op, **params))
                self._count(requests=1)
                return await self._collect(
                    request_id, queue, on_chunk_message, abort
                )
            finally:
                self._pending.pop(request_id, None)
                self._in_flight -= 1

    async def _next_frame(
        self, queue: asyncio.Queue, abort: Optional[threading.Event]
    ) -> Any:
        """The next routed frame, or :class:`_AbortedByCaller` / timeout.

        With an abort handle the wait runs in short slices so a caller-side
        cancel is noticed promptly; each empty slice touches the liveness
        heartbeat (polling is activity, not a stall)."""
        if abort is None:
            return await asyncio.wait_for(queue.get(), timeout=self.timeout)
        deadline = _monotonic() + self.timeout
        while True:
            if abort.is_set():
                raise _AbortedByCaller()
            remaining = deadline - _monotonic()
            if remaining <= 0:
                raise asyncio.TimeoutError()
            try:
                return await asyncio.wait_for(
                    queue.get(), timeout=min(0.05, remaining)
                )
            except asyncio.TimeoutError:
                self._touch()

    async def _collect(
        self,
        request_id: int,
        queue: asyncio.Queue,
        on_chunk_message: Optional[Callable[[Dict[str, Any]], None]] = None,
        abort: Optional[threading.Event] = None,
    ) -> Dict[str, Any]:
        attributes: Optional[List[str]] = None
        # The reply's column vectors: the first chunk's own lists, extended
        # by every later chunk's.  A chunk-message sink is the stream's
        # sole consumer instead: accumulating here too would double the
        # peak memory of every large scan.
        columns: Optional[List[List[Any]]] = None
        chunks = 0
        while True:
            try:
                message = await self._next_frame(queue, abort)
            except _AbortedByCaller:
                # Tell the server to stop streaming a reply nobody wants.
                try:
                    await self._send(protocol.cancel_message(request_id))
                except ConnectionLostError:
                    pass
                raise QueryCancelledError(
                    f"request {request_id} to {self.host}:{self.port} "
                    "aborted by the caller"
                ) from None
            except asyncio.TimeoutError:
                self._touch()  # the in-loop timeout firing IS loop activity
                self._count(timeouts=1)
                # Tell the server to stop streaming a reply nobody will read.
                try:
                    await self._send(protocol.cancel_message(request_id))
                except ConnectionLostError:
                    pass
                raise RemoteTimeoutError(
                    f"request {request_id} to {self.host}:{self.port} got no "
                    f"frame within {self.timeout:.1f}s"
                ) from None
            if isinstance(message, BaseException):
                raise message
            kind = message.get("kind")
            if kind == "chunk":
                chunks += 1
                attributes = message.get("attributes")
                self._count(
                    chunks=1,
                    tuples=message["count"],
                    binary_chunks=1 if message.get("binary") else 0,
                )
                if on_chunk_message is not None:
                    on_chunk_message(message)
                elif columns is None:
                    columns = message["columns"]
                else:
                    # A chunk of another degree leaves ragged columns, which
                    # Relation.from_columns refuses when the reply is built.
                    for column, more in zip(columns, message["columns"]):
                        column.extend(more)
            elif kind == "end":
                if attributes is None:  # empty result: no chunk flowed
                    attributes = message.get("attributes")
                reply = {"attributes": attributes, "columns": columns, "chunks": chunks}
                spans = message.get("spans")
                if spans:
                    reply["spans"] = spans
                return reply
            elif kind == "result":
                reply = {"value": message.get("value")}
                spans = message.get("spans")
                if spans:
                    reply["spans"] = spans
                return reply
            elif kind == "error":
                hello = self._hello or {}
                raise RemoteQueryError(
                    message.get("error_type", "ExecutionError"),
                    message.get("message", ""),
                    database=hello.get("database"),
                )
            else:
                raise ProtocolError(f"unexpected frame kind {kind!r}")

    async def _shutdown(self) -> None:
        await self._fail_pending(
            ConnectionLostError(f"transport to {self.host}:{self.port} closed")
        )
