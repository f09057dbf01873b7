"""``LQPServer``: expose any Local Query Processor at a TCP address.

The paper's prototype put each autonomous source behind its own access
path; :class:`LQPServer` is that boundary made literal — a threaded TCP
server wrapping any existing :class:`~repro.lqp.base.LocalQueryProcessor`
(relational, CSV, latency-injected, …) and serving the wire protocol of
:mod:`repro.net.protocol`.  One server per database, exactly as Figure 1
draws the federation.

Concurrency model:

- an **accept thread** takes connections; each connection gets a **reader
  thread** that parses request frames;
- every request is served on its own short-lived thread, so N in-flight
  requests from one multiplexed client connection really do overlap — the
  whole point of the client's per-LQP concurrency level.  Response frames
  from concurrent requests interleave on the socket under a per-connection
  write lock (frames are atomic; streams are keyed by request id);
- relation results stream as bounded **chunks**; between chunks the server
  checks the request's cancel event (set by a client ``cancel`` frame), so
  a cancelled retrieve stops shipping tuples mid-stream.  The underlying
  LQP call itself is never interrupted — autonomous sources owe us no
  preemption, matching the cooperative-cancel semantics of the runtime.

``stop()`` is clean and idempotent: the listener closes, every open
connection is shut down — which wakes any thread blocked in ``recv`` or
``sendall`` on it — and all threads are joined under bounded waits, so a
dead peer cannot wedge shutdown (nor CI).
"""

from __future__ import annotations

import functools
import socket
import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from repro.catalog.schema import PolygenSchema
from repro.catalog.serialize import schema_to_dict
from repro.core.predicate import Theta
from repro.errors import ProtocolError, QueryCancelledError
from repro.lqp.base import LocalQueryProcessor, project_columns
from repro.net import binary, protocol
from repro.obs.trace import Span, Tracer, span_payloads, use_span

__all__ = ["LQPServer", "ServerStats"]

#: Server-side spans: opened under the trace context a request propagates
#: (``message["trace"]``), shipped back on the closing frame.
_TRACER = Tracer("lqp-server")

#: The *accept* loop wakes at this cadence to notice a stop request.
#: Connection sockets are fully blocking: their reads and writes are woken
#: by ``close()``'s ``shutdown()`` instead (see ``_connection_loop``).
_POLL_SECONDS = 0.2


@dataclass
class ServerStats:
    """Mutable service counters of one :class:`LQPServer` (thread-safe
    reads are approximate; the tests poll them with deadlines)."""

    connections: int = 0
    requests: int = 0
    chunks_sent: int = 0
    #: Subset of ``chunks_sent`` that went out as binary columnar frames.
    binary_chunks_sent: int = 0
    tuples_sent: int = 0
    cancelled: int = 0
    errors: int = 0


def _shipped_spans(span: Optional[Span]):
    """End a server-side root span and serialise its trace for the
    closing frame (``None`` when the request carried no context)."""
    if span is None:
        return None
    span.end()
    return span_payloads(span.trace_spans())


class _PeerGoneError(ConnectionError):
    """A reply could not be written because the client hung up.

    Raised only by :meth:`_Connection.send`, so the request-serving path
    can tell a dead peer (nothing left to do) apart from an LQP failure
    (which must be answered with an error frame) — even when the LQP's
    own failure is an ``OSError``, as a file-backed source's would be.
    """


class _Connection:
    """One client connection: a reader thread plus a frame write lock."""

    def __init__(self, sock: socket.socket, peer: Tuple[str, int]):
        self.sock = sock
        self.peer = peer
        self.write_lock = threading.Lock()
        #: request id → cancel event of an in-flight request.
        self.inflight: Dict[int, threading.Event] = {}
        self.inflight_lock = threading.Lock()
        self.closed = threading.Event()

    def send(self, message: Dict[str, Any]) -> None:
        self.send_frame(protocol.encode_frame(message))

    def send_raw(self, payload: bytes) -> None:
        """Frame and send an already-encoded (binary) payload."""
        self.send_frame(protocol.frame_raw(payload))

    def send_frame(self, frame: bytes) -> None:
        with self.write_lock:
            try:
                self.sock.sendall(frame)
            except OSError as exc:
                raise _PeerGoneError(str(exc)) from exc

    def close(self) -> None:
        if self.closed.is_set():
            return
        self.closed.set()
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()


class LQPServer:
    """A TCP server fronting one Local Query Processor."""

    def __init__(
        self,
        lqp: LocalQueryProcessor,
        host: str = "127.0.0.1",
        port: int = 0,
        *,
        chunk_size: int = protocol.DEFAULT_CHUNK_TUPLES,
        schema: PolygenSchema | None = None,
    ):
        """``port=0`` binds an ephemeral port (read it back off
        :attr:`address` / :attr:`url` after :meth:`start`).  ``schema``
        optionally serves the federation's polygen schema over the wire
        (the ``schema`` op, via :mod:`repro.catalog.serialize`), so a
        remote client can bootstrap its catalog from the server."""
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self._lqp = lqp
        self._host = host
        self._requested_port = port
        self._chunk_size = chunk_size
        self._schema = schema
        self.stats = ServerStats()
        self._stats_lock = threading.Lock()
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: list[threading.Thread] = []
        self._threads_lock = threading.Lock()
        self._connections: list[_Connection] = []
        self._stopping = threading.Event()
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "LQPServer":
        """Bind, listen, and serve on background threads.  Returns self."""
        if self._started:
            raise RuntimeError("LQPServer.start() called twice")
        self._started = True
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((self._host, self._requested_port))
        listener.listen()
        listener.settimeout(_POLL_SECONDS)
        self._listener = listener
        self._accept_thread = threading.Thread(
            target=self._accept_loop,
            name=f"lqp-server-{self._lqp.name}",
            daemon=True,
        )
        self._accept_thread.start()
        return self

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)``."""
        if self._listener is None:
            raise RuntimeError("server is not started")
        return self._listener.getsockname()[:2]

    @property
    def url(self) -> str:
        """This server's ``polygen://host:port`` registration URL."""
        host, port = self.address
        return protocol.format_url(host, port)

    @property
    def database(self) -> str:
        return self._lqp.name

    def stop(self) -> None:
        """Close the listener and every connection; join all threads."""
        if not self._started or self._stopping.is_set():
            self._stopping.set()
            return
        self._stopping.set()
        if self._listener is not None:
            try:  # wakes a blocked accept() now, not at its next poll
                self._listener.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            self._listener.close()
        for connection in list(self._connections):
            connection.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        with self._threads_lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(timeout=5.0)

    def __enter__(self) -> "LQPServer":
        return self.start() if not self._started else self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- serving ------------------------------------------------------------

    def _count(self, **deltas: int) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                setattr(self.stats, name, getattr(self.stats, name) + delta)

    def _track(self, thread: threading.Thread) -> None:
        with self._threads_lock:
            # Opportunistically drop finished threads so a long-lived
            # server doesn't accumulate Thread objects without bound.
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)

    def _accept_loop(self) -> None:
        while not self._stopping.is_set():
            try:
                sock, peer = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed by stop()
            # Frames are small and latency-bound; Nagle + delayed ACK
            # would add ~40ms to every request on loopback.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _Connection(sock, peer)
            self._connections.append(connection)
            self._count(connections=1)
            thread = threading.Thread(
                target=self._connection_loop,
                args=(connection,),
                name=f"lqp-conn-{self._lqp.name}-{peer[1]}",
                daemon=True,
            )
            self._track(thread)
            thread.start()

    def _connection_loop(self, connection: _Connection) -> None:
        # Blocking socket: reads are woken by close()'s shutdown() when the
        # server stops (recv returns b"" or raises OSError), and sends must
        # honour TCP backpressure — a short socket timeout here would also
        # cap sendall(), and a timed-out sendall leaves an undefined number
        # of bytes written, desyncing every later frame on the connection.
        connection.sock.settimeout(None)
        read_exactly = functools.partial(protocol.recv_exactly, connection.sock)
        try:
            try:
                connection.send(self._hello())
            except _PeerGoneError:
                return  # connected and dropped before reading (port scanner)
            while not self._stopping.is_set() and not connection.closed.is_set():
                try:
                    message = protocol.read_frame(read_exactly)
                except (ConnectionError, OSError):
                    return
                except ProtocolError:
                    # A peer speaking garbage gets disconnected, not served.
                    return
                self._dispatch(connection, message)
        finally:
            # Wake in-flight request threads so they stop streaming.
            with connection.inflight_lock:
                for event in connection.inflight.values():
                    event.set()
            connection.close()
            try:
                self._connections.remove(connection)
            except ValueError:
                pass

    def _hello(self) -> Dict[str, Any]:
        """The frame that opens every connection."""
        return protocol.hello_message(self._lqp.name, self._lqp.relation_names())

    def _dispatch(self, connection: _Connection, message: Dict[str, Any]) -> None:
        op = message.get("op")
        if op == "cancel":
            target = message.get("target")
            with connection.inflight_lock:
                event = connection.inflight.get(target)
            if event is not None:
                event.set()
            return
        request_id = message.get("id")
        if not isinstance(request_id, int):
            return  # unroutable request; nothing to key a reply to
        cancel = threading.Event()
        with connection.inflight_lock:
            connection.inflight[request_id] = cancel
        thread = threading.Thread(
            target=self._serve_request,
            args=(connection, request_id, op, message, cancel),
            name=f"lqp-req-{self._lqp.name}-{request_id}",
            daemon=True,
        )
        self._track(thread)
        thread.start()

    def _serve_request(
        self,
        connection: _Connection,
        request_id: int,
        op: str,
        message: Dict[str, Any],
        cancel: threading.Event,
    ) -> None:
        self._count(requests=1)
        # A request carrying a trace context gets a server-side span tree,
        # parented on the propagated span id and shipped back with the
        # closing frame so the coordinator stitches one distributed trace.
        trace_ctx = message.get("trace")
        span: Optional[Span] = None
        if isinstance(trace_ctx, dict) and trace_ctx.get("id"):
            span = _TRACER.continue_remote(
                f"serve.{op}",
                trace_ctx,
                database=self._lqp.name,
                request=request_id,
            )
        try:
            try:
                with use_span(span):
                    if op in ("retrieve", "select", "select_in"):
                        self._serve_relation(
                            connection, request_id, op, message, cancel, span
                        )
                    else:
                        value = self._scalar_result(op, message)
                        connection.send(
                            protocol.result_message(
                                request_id, value, _shipped_spans(span)
                            )
                        )
            except QueryCancelledError as exc:
                self._count(cancelled=1)
                if span is not None:
                    span.end(exc)
                connection.send(protocol.error_message(request_id, exc))
            except _PeerGoneError:
                raise  # a send failed — the outer handler gives up quietly
            except Exception as exc:
                # *Any* LQP/request failure — including an OSError from a
                # file-backed source, which only _PeerGoneError lets us
                # tell apart from a dead socket — is answered with a typed
                # error frame, so the client raises RemoteQueryError
                # instead of stalling to its timeout.
                self._count(errors=1)
                if span is not None:
                    span.end(exc)
                connection.send(protocol.error_message(request_id, exc))
        except _PeerGoneError:
            # The peer is gone (or a write failed partway, which poisons
            # the frame stream): nothing left to tell it — and the
            # connection must not be reused for interleaved replies.
            connection.close()
        finally:
            with connection.inflight_lock:
                connection.inflight.pop(request_id, None)

    def _serve_relation(
        self,
        connection: _Connection,
        request_id: int,
        op: str,
        message: Dict[str, Any],
        cancel: threading.Event,
        span: Optional[Span] = None,
    ) -> None:
        relation_name = message.get("relation")
        if not isinstance(relation_name, str):
            raise ProtocolError(f"{op} request lacks a relation name")
        # Projection pushed over the wire: forwarded to an LQP that can
        # narrow at the source, applied here otherwise — either way only
        # the requested columns travel back to the client.
        columns = message.get("columns")
        forward = self._lqp.capabilities().native_projection
        kwargs = {"columns": list(columns)} if columns is not None and forward else {}
        engine_span = (
            span.child(f"engine.{op}", relation=relation_name)
            if span is not None
            else None
        )
        if op == "retrieve":
            relation = self._lqp.retrieve(relation_name, **kwargs)
        elif op == "select_in":
            values = message.get("values")
            if not isinstance(values, list):
                raise ProtocolError("select_in request lacks a values list")
            relation = self._lqp.select_in(
                relation_name, message.get("attribute"), values, **kwargs
            )
        else:
            theta = Theta.from_symbol(message.get("theta", ""))
            relation = self._lqp.select(
                relation_name,
                message.get("attribute"),
                theta,
                message.get("value"),
                **kwargs,
            )
        if engine_span is not None:
            engine_span.set(tuples=len(relation)).end()
        if columns is not None and not forward:
            relation = project_columns(relation, columns)
        if cancel.is_set():
            raise QueryCancelledError(f"request {request_id} cancelled by client")
        attributes = list(relation.attributes)
        # A client may ask for binary chunk frames; JSON frames are the
        # default.  Either holds this server's chunk size.
        use_binary = message.get("format") == "binary"
        chunk_size = self._chunk_size
        chunks = tuples = 0
        if use_binary:
            stream = binary.relation_chunk_payloads(request_id, relation, chunk_size)
        else:
            stream = (
                (protocol.chunk_message(request_id, seq, attributes, rows), len(rows))
                for seq, rows in enumerate(protocol.relation_chunks(relation, chunk_size))
            )
        for chunk, nrows in stream:
            if cancel.is_set():
                self._count(chunks_sent=chunks, tuples_sent=tuples)
                raise QueryCancelledError(
                    f"request {request_id} cancelled mid-stream "
                    f"after {chunks} chunk(s)"
                )
            if use_binary:
                connection.send_raw(chunk)
            else:
                connection.send(chunk)
            chunks += 1
            tuples += nrows
        self._count(
            chunks_sent=chunks,
            tuples_sent=tuples,
            binary_chunks_sent=chunks if use_binary else 0,
        )
        if span is not None:
            span.set(
                chunks=chunks,
                tuples=tuples,
                format="binary" if use_binary else "json",
            )
        connection.send(
            protocol.end_message(
                request_id, chunks, tuples, attributes, _shipped_spans(span)
            )
        )

    def _scalar_result(self, op: str, message: Dict[str, Any]) -> Any:
        if op == "relation_names":
            return list(self._lqp.relation_names())
        if op == "capabilities":
            # From the client's seat "native" means "executed on this side
            # of the wire": selections and projections both run here before
            # any tuple ships (the engine's own power or _serve_relation's
            # fallback), so those two flags are forced True.  Write
            # signalling is a property of the engine itself and passes
            # through untouched.
            inner = self._lqp.capabilities()
            return protocol.capabilities_payload(
                replace(inner, native_select=True, native_projection=True)
            )
        if op == "schema":
            if self._schema is None:
                raise ProtocolError(
                    f"LQP server for {self._lqp.name!r} serves no polygen schema"
                )
            return schema_to_dict(self._schema)
        if op == "ping":
            return "pong"
        raise ProtocolError(f"unknown wire operation {op!r}")

    def __repr__(self) -> str:
        state = (
            "stopped"
            if self._stopping.is_set()
            else ("listening" if self._started else "unstarted")
        )
        where = ""
        if self._listener is not None and not self._stopping.is_set():
            where = f" at {self.url}"
        return f"LQPServer({self._lqp.name!r}{where}, {state})"
