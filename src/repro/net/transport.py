"""``ConnectionMux``: N in-flight requests over one LQP connection.

The paper assumes **one connection per local database**.  A
:class:`ConnectionMux` keeps that wire-level assumption while lifting the
*one request at a time* limitation above it, on the model of
:class:`~repro.net.server.LQPServer`: blocking sockets and threads.

- One TCP connection carries every request, and one **reader thread** on
  it (``lqp-mux-{host}:{port}``) reads frames with
  :func:`~repro.net.protocol.read_frame`, decodes them, and routes each
  by request id to its caller's queue.  Frames for an id nobody waits on
  belong to a timed-out or abandoned request and are dropped.
- Callers are ordinary threads (the worker pool's per-database workers).
  Each takes one of ``concurrency`` slots — the transport-level
  realization of a remote LQP's ``native_concurrency`` — sends under the
  write lock, and waits on its own queue.  The slot is freed when the
  request leaves the wire (its closing frame is routed, the connection
  drops, or the caller gives up), not at the consumer's pace.  Every
  frame must arrive within ``timeout`` seconds (timed per frame, so a
  long chunk stream is fine as long as it keeps flowing).  A timeout, the
  caller's ``abort`` handle or an abandoned stream sends the server a
  best-effort ``cancel``.
- :meth:`ConnectionMux.stream` is the one request path.  It connects and
  reconnects, retries a dropped connection up to ``retries`` times on a
  fresh one (every LQP op is a pure read), skips the chunks a retry
  replays, and keeps the :class:`TransportStats` counts, which
  ``federation.stats()`` surfaces per remote database.
  :meth:`~ConnectionMux.request` is that stream drained;
  :class:`~repro.net.client.RelationChunkStream` iterates it on the
  consumer's own thread.

``close()`` — or the GC finalizer of a mux dropped without it — shuts
the socket down, fails pending requests with
:class:`~repro.errors.ConnectionLostError` and joins the reader.
"""

from __future__ import annotations

import functools
import itertools
import queue
import socket
import threading
import time
import weakref
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, Optional

from repro.errors import (
    ConnectionLostError,
    ProtocolError,
    QueryCancelledError,
    RemoteQueryError,
    RemoteTimeoutError,
    ServiceClosedError,
)
from repro.net import protocol

__all__ = ["ConnectionMux", "TransportStats"]

#: How often a caller waiting on a frame checks its ``abort`` handle.
_ABORT_POLL = 0.05


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


class _Channel:
    """The socket side of one mux: the live connection (replaced on a
    reconnect), its reader thread, the routing table, the concurrency
    slots and the counters.

    Neither this object nor the reader thread refers to the mux, so a mux
    dropped without ``close()`` is still collected, and its finalizer —
    :meth:`close` — reaps the thread."""

    def __init__(self, where: str, concurrency: int):
        self.where = where
        self.slots = threading.BoundedSemaphore(concurrency)
        # Reentrant: an abandoned stream's clean-up may run from the
        # garbage collector on a thread that already holds either lock.
        self.lock = threading.RLock()
        self.write_lock = threading.RLock()
        self.sock: Optional[socket.socket] = None
        self.reader: Optional[threading.Thread] = None
        self.pending: Dict[int, queue.SimpleQueue] = {}
        self.in_flight = 0
        self.counts = dict.fromkeys((field.name for field in fields(TransportStats)), 0)
        self.closed = False

    def count(self, **deltas: int) -> None:
        with self.lock:
            for name, delta in deltas.items():
                self.counts[name] += delta

    def recv(self, sock: socket.socket, count: int) -> bytes:
        data = protocol.recv_exactly(sock, count)
        self.count(bytes_received=count)
        return data

    def attach(self, sock: socket.socket) -> None:
        """Make ``sock``, handshake done, the live connection and start
        its reader (after the previous one, already woken, has exited)."""
        if self.reader is not None:
            self.reader.join(timeout=5.0)
        with self.lock:
            if self.closed:
                sock.close()
                raise ServiceClosedError(f"transport to {self.where} is closed")
            self.sock = sock
            self.reader = threading.Thread(
                target=self._read_loop,
                args=(sock,),
                name=f"lqp-mux-{self.where}",
                daemon=True,
            )
            self.reader.start()

    def _read_loop(self, sock: socket.socket) -> None:
        read_exactly = functools.partial(self.recv, sock)
        try:
            while True:
                message = protocol.read_frame(read_exactly)
                if message.get("kind") == "chunk":
                    inbox = self.pending.get(message.get("id"))
                else:  # a closing frame: the request leaves the wire
                    inbox = self.retire(message.get("id"))
                if inbox is not None:
                    inbox.put(message)
        except OSError as exc:
            error = ConnectionLostError(f"connection to {self.where} dropped: {exc}")
        except ProtocolError as exc:
            error = exc
        self.drop(sock, error)
        sock.close()

    def drop(self, sock: socket.socket, error: Exception) -> None:
        """Retire ``sock``: fail every request waiting on it with ``error``
        and shut it down, which wakes its reader (the reader closes it)."""
        with self.lock:
            if self.sock is not sock:
                return
            self.sock = None
            waiting = list(self.pending)
        for request_id in waiting:
            inbox = self.retire(request_id)
            if inbox is not None:
                inbox.put(error)
        try:
            sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def open(self, request_id: int) -> queue.SimpleQueue:
        """Take a slot, waiting for one, and route ``request_id``'s frames
        to a fresh queue."""
        self.slots.acquire()
        inbox: queue.SimpleQueue = queue.SimpleQueue()
        with self.lock:
            if self.sock is None:
                self.slots.release()
                raise ConnectionLostError(f"connection to {self.where} is gone")
            self.pending[request_id] = inbox
            self.in_flight += 1
            if self.in_flight > self.counts["in_flight_hwm"]:
                self.counts["in_flight_hwm"] = self.in_flight
        return inbox

    def retire(self, request_id: Any) -> Optional[queue.SimpleQueue]:
        """Take ``request_id`` off the wire and free its slot; its queue,
        or ``None`` when it was already retired."""
        with self.lock:
            inbox = self.pending.pop(request_id, None)
            if inbox is None:
                return None
            self.in_flight -= 1
        self.slots.release()
        return inbox

    def send(self, message: Dict[str, Any]) -> None:
        frame = protocol.encode_frame(message)
        with self.write_lock:
            sock = self.sock
            if sock is None:
                raise ConnectionLostError(f"connection to {self.where} is gone")
            try:
                sock.sendall(frame)
            except OSError as exc:
                # A partial write desyncs every later frame: retire the socket.
                error = ConnectionLostError(f"write to {self.where} failed: {exc}")
                self.drop(sock, error)
                raise error from exc
        self.count(bytes_sent=len(frame))

    def close(self) -> None:
        with self.lock:
            self.closed = True
            sock, reader = self.sock, self.reader
        if sock is not None:
            self.drop(sock, ConnectionLostError(f"transport to {self.where} closed"))
        if reader is not None and reader is not threading.current_thread():
            reader.join(timeout=5.0)


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

        self._where = f"{host}:{port}"
        self._ids = itertools.count(1)
        self._closed = False
        self._hello: Optional[Dict[str, Any]] = None
        self._connect_lock = threading.Lock()
        self._channel = _Channel(self._where, concurrency)
        self._finalizer = weakref.finalize(self, self._channel.close)

    @property
    def closed(self) -> bool:
        return self._closed

    def stats(self) -> TransportStats:
        with self._channel.lock:
            return TransportStats(**self._channel.counts)

    def hello(self) -> Dict[str, Any]:
        """The server's hello frame, connecting on first use."""
        if self._hello is None:
            self._connect()
        return dict(self._hello)

    def stream(
        self, op: str, *, abort: Optional[threading.Event] = None, **params: Any
    ) -> Iterator[Dict[str, Any]]:
        """One request's reply frames, as they land: its chunk messages
        (columnar, whichever format carried them), then its closing
        ``end`` or ``result`` message.

        An ``error`` frame raises :class:`~repro.errors.RemoteQueryError`.
        ``abort`` (any object with ``is_set()``) cancels the request from
        the caller's side: the server gets a ``cancel`` and this raises
        :class:`~repro.errors.QueryCancelledError`; closing the generator
        early cancels the same way.

        A :class:`ConnectionLostError` is retried ``retries`` times on a
        fresh connection; the server then replays the stream from its
        first chunk, and chunks whose ``seq`` was already yielded are
        skipped, so each is seen once.
        """
        next_seq = 0
        for attempt in range(self.retries + 1):
            try:
                for message in self._attempt(op, params, abort):
                    if message["kind"] == "chunk":
                        seq = message.get("seq")
                        if not isinstance(seq, int):
                            seq = message["seq"] = next_seq
                        if seq < next_seq:
                            continue  # replayed by a retry: already yielded
                        next_seq = seq + 1
                    yield message
                return
            except ConnectionLostError:
                if attempt == self.retries:
                    raise
                self._channel.count(retries=1)

    def request(self, op: str, **params: Any) -> Dict[str, Any]:
        """:meth:`stream` drained: blocks until the closing frame.

        Returns ``{"value": ...}`` for scalar ops, or ``{"attributes": ...,
        "columns": [...]}`` for relation ops — the chunks' column vectors
        concatenated, ``None`` when no chunk flowed; either shape gains a
        ``"spans"`` key when the server shipped server-side trace spans
        back (see :mod:`repro.obs.trace`).
        """
        attributes = columns = None
        for message in self.stream(op, **params):
            if message["kind"] != "chunk":
                break
            attributes = message.get("attributes")
            if columns is None:
                columns = message["columns"]
            else:
                # A chunk of another degree leaves ragged columns, which
                # Relation.from_columns refuses when the reply is built.
                for column, more in zip(columns, message["columns"]):
                    column.extend(more)
        if message["kind"] == "result":
            reply = {"value": message.get("value")}
        else:
            if attributes is None:  # empty result: no chunk flowed
                attributes = message.get("attributes")
            reply = {"attributes": attributes, "columns": columns}
        if message.get("spans"):
            reply["spans"] = message["spans"]
        return reply

    def ping(self) -> float:
        """Round-trip one ping; returns measured seconds."""
        began = time.perf_counter()
        self.request("ping")
        return time.perf_counter() - began

    def close(self) -> None:
        """Shut the connection down, fail pending requests with
        :class:`ConnectionLostError` and join the reader.  Idempotent."""
        self._closed = True
        self._finalizer()

    def __enter__(self) -> "ConnectionMux":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"ConnectionMux({self._where}, "
            f"concurrency={self.concurrency}, {state})"
        )

    # -- plumbing -----------------------------------------------------------

    def _connect(self) -> None:
        """Dial and handshake unless a connection is live."""
        with self._connect_lock:
            if self._closed:
                raise ServiceClosedError(f"transport to {self._where} is closed")
            if self._channel.sock is not None:
                return
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.timeout
                )
            except OSError as exc:
                raise ConnectionLostError(
                    f"cannot connect to LQP server at {self._where}: {exc}"
                ) from exc
            try:
                # Request frames are tiny; Nagle + delayed ACK would cost
                # ~40ms per round trip.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                hello = protocol.read_frame(functools.partial(self._channel.recv, sock))
                protocol.check_hello(hello, f"LQP server at {self._where}")
            except OSError as exc:
                sock.close()
                raise ConnectionLostError(
                    f"no hello from {self._where}: {exc}"
                ) from exc
            except ProtocolError:
                # A bad hello (wrong version, garbage frame) must not leave
                # a half-open connection behind.
                sock.close()
                raise
            sock.settimeout(None)  # the reader blocks until a frame or shutdown
            self._channel.attach(sock)
            if self._hello is not None:
                self._channel.count(reconnects=1)
            self._hello = hello

    def _attempt(
        self, op: str, params: Dict[str, Any], abort
    ) -> Iterator[Dict[str, Any]]:
        """One send of the request: its chunk frames, then its closing
        frame."""
        self._connect()
        channel = self._channel
        request_id = next(self._ids)
        inbox = channel.open(request_id)
        try:
            channel.send(protocol.request_message(request_id, op, **params))
            channel.count(requests=1)
            while True:
                message = self._next_frame(request_id, inbox, abort)
                if message.get("kind") != "chunk":
                    break
                channel.count(
                    chunks=1,
                    tuples=message["count"],
                    binary_chunks=1 if message.get("binary") else 0,
                )
                yield message
        except (RemoteTimeoutError, QueryCancelledError, GeneratorExit):
            # Tell the server to stop streaming a reply nobody will read.
            try:
                channel.send(protocol.cancel_message(request_id))
            except ConnectionLostError:
                pass
            raise
        finally:
            channel.retire(request_id)
        kind = message.get("kind")
        if kind == "error":
            raise RemoteQueryError(
                message.get("error_type", "ExecutionError"),
                message.get("message", ""),
                database=self._hello.get("database"),
            )
        if kind not in ("end", "result"):
            raise ProtocolError(f"unexpected frame kind {kind!r}")
        yield message

    def _next_frame(
        self, request_id: int, inbox: queue.SimpleQueue, abort
    ) -> Dict[str, Any]:
        """The request's next frame within the per-frame timeout, checking
        ``abort`` every :data:`_ABORT_POLL` seconds; a failure the reader
        routed here (a dropped connection, a garbage frame) is raised."""
        deadline = time.monotonic() + self.timeout
        while True:
            if abort is not None and abort.is_set():
                raise QueryCancelledError(
                    f"request {request_id} to {self._where} aborted by the caller"
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self._channel.count(timeouts=1)
                raise RemoteTimeoutError(
                    f"request {request_id} to {self._where} got no "
                    f"frame within {self.timeout:.1f}s"
                )
            try:
                message = inbox.get(
                    timeout=remaining if abort is None else min(remaining, _ABORT_POLL)
                )
            except queue.Empty:
                continue
            if isinstance(message, BaseException):
                raise message
            return message
