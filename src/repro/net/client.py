"""``RemoteLQP``: a Local Query Processor living across the network.

The drop-in client of the wire protocol: a :class:`RemoteLQP` implements
the exact :class:`~repro.lqp.base.LocalQueryProcessor` contract —
``retrieve`` / ``select`` / ``relation_names`` / ``capabilities`` —
against an :class:`~repro.net.server.LQPServer`, so the registry, the
executors and the optimizer all treat a remote database exactly like an
in-process one.  Results are tag-identical by construction: the wire
carries the same *untagged* local rows an in-process LQP returns, and
tagging still happens at the PQP boundary (:mod:`repro.lqp.tagging`).

What changes is the concurrency contract.  An in-process LQP advertises
``native_concurrency == 1`` (the paper's single-connection assumption); a
``RemoteLQP`` advertises its multiplexer's concurrency level, and the
worker pool gives its database that many workers — N requests in flight
over one connection, which is what the ``concurrency=4 vs 1`` network
benchmark measures.

Construction connects eagerly: the server's hello frame names the
database (needed by ``registry.register``) and lists its relations, so a
bad address fails at registration time, not mid-query.  The transport's
measured latency flows into every :class:`~repro.pqp.executor.RowTiming`
exactly as local compute does, so the result cache weighs a remote
subtree by its *network-inclusive* recompute time without any new wiring.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.catalog.schema import PolygenSchema
from repro.catalog.serialize import schema_from_dict
from repro.core.predicate import Theta
from repro.errors import ProtocolError, RemoteQueryError
from repro.lqp.base import Capabilities, LocalQueryProcessor
from repro.net import protocol
from repro.net.transport import ConnectionMux, TransportStats
from repro.obs.trace import current_span
from repro.relational.relation import Relation

__all__ = ["RemoteLQP", "RelationChunkStream", "WireChunk"]


@dataclass(frozen=True)
class WireChunk:
    """One streamed chunk of a remote relation: the per-attribute value
    vectors as decoded off the wire (a binary frame's own, a JSON frame's
    transposed at the codec) and the frame's tuple count."""

    attributes: Tuple[str, ...]
    seq: int
    columns: List[List[Any]]
    count: int

    def relation(self) -> Relation:
        """The chunk as an untagged relation (set semantics: duplicate
        tuples within the chunk collapse, so it may hold fewer than
        ``count``)."""
        return Relation.from_columns(self.attributes, self.columns)


class RelationChunkStream:
    """A pull-style, one-shot iterator over a streamed relation request.

    Iterating runs the transport's :meth:`~repro.net.transport.
    ConnectionMux.stream` on the caller's own thread: the request is sent
    on first iteration and each chunk is handed over as it lands, before
    the stream is complete.  Abandoning the iterator early (``break``, an
    exception, garbage collection) sends the server a ``cancel`` so it
    stops shipping tuples nobody will read.  A transport retry replays
    the stream, and the transport skips chunks already delivered, so the
    consumer sees every chunk exactly once.
    """

    def __init__(
        self,
        mux: ConnectionMux,
        op: str,
        params: Dict[str, Any],
        abort: threading.Event | None = None,
    ):
        self._mux = mux
        self._op = op
        self._params = params
        self._abort = abort
        self._attributes: Optional[Tuple[str, ...]] = None
        self._iterated = False
        # The span the end frame's server spans stitch into: the one
        # ambient where the stream was opened, wherever it is iterated.
        self._span = current_span()

    @property
    def attributes(self) -> Optional[Tuple[str, ...]]:
        """The relation's heading — known once a chunk (or, for an empty
        result, the end frame) has been consumed."""
        return self._attributes

    def __iter__(self) -> Iterator[WireChunk]:
        if self._iterated:
            raise RuntimeError("RelationChunkStream supports a single iteration")
        self._iterated = True
        for message in self._mux.stream(self._op, abort=self._abort, **self._params):
            if message["kind"] == "chunk":
                self._attributes = tuple(message.get("attributes") or ())
                yield WireChunk(
                    self._attributes, message["seq"], message["columns"], message["count"]
                )
                continue
            if self._attributes is None and message.get("attributes") is not None:
                self._attributes = tuple(message["attributes"])
            if self._span is not None and message.get("spans"):
                self._span.adopt(message["spans"])


class RemoteLQP(LocalQueryProcessor):
    """A ``LocalQueryProcessor`` backed by a multiplexed TCP connection.

    >>> lqp = RemoteLQP("polygen://127.0.0.1:9470")     # doctest: +SKIP
    >>> registry.register(lqp)                          # doctest: +SKIP
    """

    def __init__(
        self,
        url: str | None = None,
        *,
        host: str | None = None,
        port: int | None = None,
        concurrency: int = 4,
        timeout: float = 10.0,
        retries: int = 1,
        wire_format: str = "binary",
    ):
        """Address either as a ``polygen://host:port`` URL or as
        ``host=``/``port=``.  ``concurrency`` is this LQP's native
        concurrency level — how many requests the transport keeps in
        flight at once; ``timeout``/``retries`` govern the transport (see
        :class:`~repro.net.transport.ConnectionMux`).  ``wire_format``
        picks the chunk encoding for every relation result on this
        connection — the only place it is chosen: ``"binary"`` (columnar
        frames; a server that does not advertise them is refused here) or
        ``"json"``."""
        if wire_format not in ("json", "binary"):
            raise ValueError(
                f'wire_format must be "json" or "binary", got {wire_format!r}'
            )
        if url is not None:
            if host is not None or port is not None:
                raise ValueError("pass either a URL or host/port, not both")
            host, port = protocol.parse_url(url)
        if host is None or port is None:
            raise ValueError("RemoteLQP needs a polygen:// URL or host and port")
        self._mux = ConnectionMux(
            host, port, concurrency=concurrency, timeout=timeout, retries=retries
        )
        try:
            hello = self._mux.hello()
            self._binary = wire_format == "binary"
            if self._binary and not protocol.supports_binary(hello):
                raise ProtocolError(
                    f"LQP server at {host}:{port} does not advertise binary "
                    'chunk frames, and this client was built with wire_format="binary"'
                )
        except BaseException:
            # A failed handshake (dead port, version mismatch) must not
            # strand the mux's reader thread behind the raise.
            self._mux.close()
            raise
        self._trace = protocol.supports_trace(hello)
        #: The chunk-encoding request key every relation request carries.
        self._format: Dict[str, Any] = {"format": "binary"} if self._binary else {}
        self._name: str = hello["database"]
        self._relations: Tuple[str, ...] = tuple(hello.get("relations", ()))
        #: Guards the capabilities cache below.
        self._catalog_lock = threading.Lock()
        #: The server-side engine's capability descriptor, fetched once —
        #: capabilities are fixed for an engine's lifetime.
        self._capabilities: Optional[Capabilities] = None

    # -- identity / catalog -------------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def url(self) -> str:
        return protocol.format_url(self._mux.host, self._mux.port)

    @property
    def native_concurrency(self) -> int:
        return self._mux.concurrency

    #: A request waits on a socket, outside the interpreter lock.
    overlaps = True

    def relation_names(self) -> Tuple[str, ...]:
        return self._relations

    def capabilities(self) -> Capabilities:
        """The remote engine's capabilities, served over the wire and
        cached for the connection's lifetime.

        A pre-capability server answers the op with a typed error; the
        fallback descriptor then matches what such servers demonstrably
        do: select and project server-side, so dropped tuples and columns
        never cross the wire.  Those two flags are forced True either way
        — "native" here means "on the far side of the wire" (see the
        server's ``capabilities`` op).
        """
        with self._catalog_lock:
            if self._capabilities is not None:
                return self._capabilities
        try:
            payload = self._mux.request("capabilities")["value"]
            capabilities = protocol.capabilities_from_payload(payload)
        except RemoteQueryError:
            capabilities = Capabilities()
        capabilities = replace(
            capabilities, native_select=True, native_projection=True
        )
        with self._catalog_lock:
            if self._capabilities is None:
                self._capabilities = capabilities
            return self._capabilities

    def fetch_schema(self) -> PolygenSchema:
        """The polygen schema the server was configured to publish —
        travelling as the :mod:`repro.catalog.serialize` document, so a
        remote client can bootstrap a whole federation from its sources."""
        return schema_from_dict(self._mux.request("schema")["value"])

    def ping(self) -> float:
        """One round trip; measured seconds (network + server dispatch)."""
        return self._mux.ping()

    # -- the two LQP operations --------------------------------------------

    @property
    def binary_negotiated(self) -> bool:
        """Whether relation results on this connection travel as binary
        chunk frames."""
        return self._binary

    @property
    def trace_negotiated(self) -> bool:
        """Whether the server advertised the trace capability at hello."""
        return self._trace

    def _trace_param(self) -> Dict[str, Any]:
        """The request's trace-context key: sent only when the server
        negotiated the capability *and* the calling context has an
        ambient span (no span, nothing to stitch server spans into)."""
        if not self._trace:
            return {}
        span = current_span()
        if span is None:
            return {}
        return {"trace": {"id": span.trace_id, "span": span.span_id}}

    def _request_keys(self, columns) -> Dict[str, Any]:
        """The keys every relation request shares: the projection (omitted
        entirely when not narrowing), the connection's chunk encoding and
        the trace context."""
        keys = {} if columns is None else {"columns": list(columns)}
        return {**keys, **self._format, **self._trace_param()}

    def _ship(self, op: str, columns, **params: Any) -> Relation:
        """One whole-relation request.  The reply's chunk columns become
        the shipped relation's column view as they are; server-side spans
        stitch into the ambient span's trace."""
        reply = self._mux.request(op, **params, **self._request_keys(columns))
        span = current_span()
        if span is not None and reply.get("spans"):
            span.adopt(reply["spans"])
        return protocol.relation_from_wire(reply.get("attributes"), reply.get("columns"))

    def _stream(
        self, op: str, params: Dict[str, Any], columns, abort
    ) -> "RelationChunkStream":
        params.update(self._request_keys(columns))
        return RelationChunkStream(self._mux, op, params, abort)

    def retrieve(self, relation_name: str, columns=None) -> Relation:
        return self._ship("retrieve", columns, relation=relation_name)

    def select(
        self,
        relation_name: str,
        attribute: str,
        theta: Theta,
        value: Any,
        columns=None,
    ) -> Relation:
        return self._ship(
            "select",
            columns,
            relation=relation_name,
            attribute=attribute,
            theta=theta.symbol,
            value=protocol.wire_value(value),
        )

    def select_in(
        self, relation_name: str, attribute: str, values, columns=None
    ) -> Relation:
        """One ``select_in`` request carrying the matchable values."""
        return self._ship(
            "select_in",
            columns,
            relation=relation_name,
            attribute=attribute,
            values=[protocol.wire_value(value) for value in values],
        )

    def retrieve_chunks(
        self,
        relation_name: str,
        *,
        columns: Sequence[str] | None = None,
        abort: threading.Event | None = None,
    ) -> "RelationChunkStream":
        """A pull-style stream of a remote relation's chunks.

        Returns a :class:`RelationChunkStream` — iterate it on the calling
        thread to receive :class:`WireChunk` batches (attributes + column
        vectors) as they land, while later chunks are still in flight:
        first tuples are usable at first-chunk latency instead of
        whole-result latency.  This is the executor's pipelined-scan entry
        point: chunks hold the server's ``chunk_size`` tuples, and
        ``abort`` (any ``threading.Event``) cancels the stream mid-flight
        from the consumer's side.
        """
        return self._stream("retrieve", {"relation": relation_name}, columns, abort)

    def select_chunks(
        self,
        relation_name: str,
        attribute: str,
        theta: Theta,
        value: Any,
        *,
        columns: Sequence[str] | None = None,
        abort: threading.Event | None = None,
    ) -> "RelationChunkStream":
        """Like :meth:`retrieve_chunks` for a pushed-down selection."""
        params = {
            "relation": relation_name,
            "attribute": attribute,
            "theta": theta.symbol,
            "value": protocol.wire_value(value),
        }
        return self._stream("select", params, columns, abort)

    # -- transport observability / lifecycle --------------------------------

    def transport_stats(self) -> TransportStats:
        """A snapshot of this LQP's transport counters."""
        return self._mux.stats()

    @property
    def transport(self) -> ConnectionMux:
        return self._mux

    def close(self) -> None:
        self._mux.close()

    def __enter__(self) -> "RemoteLQP":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._mux.closed else "open"
        return (
            f"RemoteLQP({self._name!r} at {self.url}, "
            f"concurrency={self.native_concurrency}, {state})"
        )
