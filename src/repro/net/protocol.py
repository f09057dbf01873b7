"""The polygen wire protocol: versioned, length-prefixed frames.

Every message between a PQP-side client and an :class:`~repro.net.server.
LQPServer` is one **frame**: a 4-byte big-endian payload length followed by
the payload.  Control messages are UTF-8 JSON objects — JSON keeps the
protocol inspectable (``tcpdump`` of a federation is readable) and exactly
matches the catalog's existing serialization (:mod:`repro.catalog.
serialize`), which rides along as the ``schema`` payload.  *Chunk* frames
may instead use the binary columnar encoding of :mod:`repro.net.binary`
when the request asks for it (the first payload byte discriminates; see
:func:`decode_payload`).  The length prefix makes framing trivial at both
ends — the threaded server and the client's reader thread read frames
with the same :func:`read_frame` over :func:`recv_exactly` — and lets
either side reject an oversized or garbage frame before parsing it.

Message vocabulary (``kind`` discriminates server→client frames, ``op``
client→server requests)::

    server → client on connect:
      {"kind": "hello", "protocol": 4, "min_protocol": 4,
       "formats": ["binary", "json"], "trace": true,
       "database": "AD", "relations": [...]}

    client → server:
      {"id": 7, "op": "retrieve",    "relation": "ALUMNUS"}
      {"id": 8, "op": "select",      "relation": ..., "attribute": ...,
                                     "theta": "=", "value": ...}
      {"id": 9, "op": "select_in",   "relation": ..., "attribute": ...,
                                     "values": [...]}
      any relation request may add {"format": "binary"}
      {"id": 10, "op": "relation_names" | "capabilities" | "schema"
                                     | "ping"}
      {"op": "cancel", "target": 7}            # no id: fire-and-forget

Any request may carry ``"trace": {"id": <trace-id>, "span": <span-id>}``
when the server's hello advertised ``"trace": true``; the server opens
its spans under that parent and ships them back on the closing frame.

    server → client, keyed to the request id:
      {"id": 7, "kind": "chunk",  "seq": 0, "attributes": [...], "rows": [...]}
      {"id": 7, "kind": "end",    "chunks": 3, "tuples": 700,
                                  "spans": [...]}   # when tracing
      {"id": 10, "kind": "result", "value": ..., "spans": [...]}
      {"id": 8, "kind": "error",  "error_type": "UnknownRelationError",
                                  "message": "..."}

Relations travel as **bounded chunks** (the server's ``chunk_size``
tuples per frame),
so a large remote result streams instead of landing as one giant frame —
the client can hand rows onward while later chunks are still in flight,
and per-frame memory stays bounded on both sides.

Data values on the wire are the JSON scalars — exactly the value domain of
the reproduction's local engines (str/int/float/bool, ``None`` for the
paper's nil).  Anything else is refused *before* transmission with a
:class:`~repro.errors.ProtocolError` rather than silently coerced.
"""

from __future__ import annotations

import json
import socket
import struct
from typing import Any, Callable, Dict, Iterator, List, Sequence, Tuple

from repro.errors import ProtocolError
from repro.lqp.base import Capabilities
from repro.net import binary
from repro.relational.relation import Relation

__all__ = [
    "PROTOCOL_VERSION",
    "MIN_PROTOCOL_VERSION",
    "WIRE_FORMATS",
    "MAX_FRAME_BYTES",
    "DEFAULT_CHUNK_TUPLES",
    "URL_SCHEME",
    "encode_frame",
    "frame_raw",
    "decode_payload",
    "recv_exactly",
    "read_frame",
    "hello_message",
    "check_hello",
    "negotiate_version",
    "supports_binary",
    "supports_trace",
    "request_message",
    "cancel_message",
    "chunk_message",
    "end_message",
    "result_message",
    "error_message",
    "wire_value",
    "wire_rows",
    "capabilities_payload",
    "capabilities_from_payload",
    "relation_chunks",
    "relation_from_wire",
    "parse_url",
    "format_url",
]

#: The protocol this build speaks.  Version 2 added the binary columnar
#: chunk encoding and the trace capability; version 3 replaced the binary
#: layout by whole-vector columns (:mod:`repro.net.binary`); version 4
#: added the ``select_in`` operation.
PROTOCOL_VERSION = 4

#: The oldest protocol this build accepts: only its own.  Both ends run
#: one build, so no peer speaks an older version, and every connection
#: has the binary layout, the trace capability and ``select_in``.
MIN_PROTOCOL_VERSION = PROTOCOL_VERSION

#: Chunk encodings this build can produce and consume, in preference
#: order.  Advertised in the hello frame.
WIRE_FORMATS = ("binary", "json")

#: Hard ceiling on one frame's JSON payload.  Generous for chunked tuples
#: (a 1024-tuple chunk of wide string rows is well under 1 MiB) while
#: stopping a garbage length prefix from provoking a gigabyte allocation.
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Default tuples per chunk frame.
DEFAULT_CHUNK_TUPLES = 256

#: The registration URL scheme: ``polygen://host:port``.
URL_SCHEME = "polygen"

_LENGTH = struct.Struct(">I")

# ``parse_constant=float`` gives every NaN cell its own float, as a local
# relation and the binary decoder do.  The stock decoder hands back one
# shared NaN object, so two rows (nan, x) would compare equal and the
# reassembled relation would keep only one of them.
_JSON_DECODER = json.JSONDecoder(parse_constant=float)

#: The JSON-native scalar types — identical to the local engines' value
#: domain (bool listed before int since bool is an int subclass).
_WIRE_SCALARS = (bool, int, float, str)


# -- framing ----------------------------------------------------------------


def encode_frame(message: Dict[str, Any]) -> bytes:
    """``message`` → length-prefixed UTF-8 JSON bytes."""
    try:
        payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"message is not JSON-serializable: {exc}") from exc
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def frame_raw(payload: bytes) -> bytes:
    """Length-prefix an already-encoded payload (binary chunk frames)."""
    if len(payload) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _LENGTH.pack(len(payload)) + payload


def decode_payload(payload: bytes) -> Dict[str, Any]:
    """Payload bytes → message dict (framing already stripped).

    Routes on the first payload byte: :data:`repro.net.binary.MAGIC_BYTE`
    selects the binary chunk decoder, anything else is parsed as the
    JSON message shape.  Either way a ``chunk`` message comes out
    columnar (``columns`` + ``count``), so nothing past this function has
    two shapes to handle; only binary ones carry ``"binary": True``.
    """
    if payload[:1] == bytes((binary.MAGIC_BYTE,)):
        return binary.decode_chunk_payload(payload)
    try:
        message = _JSON_DECODER.decode(payload.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"undecodable frame payload: {exc}") from exc
    if not isinstance(message, dict):
        raise ProtocolError(
            f"frame payload must be a JSON object, got {type(message).__name__}"
        )
    if message.get("kind") == "chunk":
        _transpose_chunk(message)
    return message


def _transpose_chunk(message: Dict[str, Any]) -> None:
    """Replace a JSON chunk's row-major ``rows`` by ``columns`` +
    ``count`` — the one transpose JSON-shipped data ever gets."""
    rows = message.pop("rows", None) or ()
    attributes = message.get("attributes") or ()
    try:
        columns = [list(column) for column in zip(*rows, strict=True)]
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed chunk frame: {exc}") from exc
    if not rows:  # nothing to transpose: the degree comes from the heading
        columns = [[] for _ in attributes]
    elif len(columns) != len(attributes):
        raise ProtocolError(
            f"chunk rows of degree {len(columns)} under {len(attributes)} attributes"
        )
    message["columns"] = columns
    message["count"] = len(rows)


def recv_exactly(sock: socket.socket, count: int) -> bytes:
    """Exactly ``count`` bytes off a blocking socket, received into one
    buffer; raises :class:`ConnectionError` when the peer hangs up first."""
    buffer = bytearray(count)
    view = memoryview(buffer)
    filled = 0
    while filled < count:
        received = sock.recv_into(view[filled:])
        if not received:
            raise ConnectionError("peer hung up")
        filled += received
    return bytes(buffer)


def read_frame(read_exactly: Callable[[int], bytes]) -> Dict[str, Any]:
    """Read one frame through ``read_exactly(n) -> n bytes``.

    Shared by the threaded server and the client's reader thread, both
    over :func:`recv_exactly`.  Raises :class:`ProtocolError` on a length
    prefix beyond :data:`MAX_FRAME_BYTES`.
    """
    (length,) = _LENGTH.unpack(read_exactly(_LENGTH.size))
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"incoming frame announces {length} bytes "
            f"(limit {MAX_FRAME_BYTES}); refusing to read it"
        )
    return decode_payload(read_exactly(length))


# -- message builders -------------------------------------------------------


def hello_message(database: str, relations: Sequence[str]) -> Dict[str, Any]:
    return {
        "kind": "hello",
        "protocol": PROTOCOL_VERSION,
        "min_protocol": MIN_PROTOCOL_VERSION,
        "formats": list(WIRE_FORMATS),
        "trace": True,
        "database": database,
        "relations": list(relations),
    }


def negotiate_version(message: Dict[str, Any], where: str = "peer") -> int:
    """The protocol version this connection will run at.

    Both ends advertise ``[min_protocol, protocol]`` and the connection
    runs at ``min(ours, theirs)`` — refused when that falls below either
    end's floor, which for this build is :data:`PROTOCOL_VERSION` itself.
    A hello without ``min_protocol`` speaks exactly its ``protocol``.
    """
    version = message.get("protocol")
    if not isinstance(version, int) or isinstance(version, bool):
        raise ProtocolError(f"{where} hello frame carries no protocol version")
    floor = message.get("min_protocol")
    if not isinstance(floor, int) or isinstance(floor, bool):
        floor = version
    negotiated = min(PROTOCOL_VERSION, version)
    if negotiated < floor or negotiated < MIN_PROTOCOL_VERSION:
        raise ProtocolError(
            f"no common protocol version: {where} speaks {floor}..{version}, "
            f"this peer speaks {MIN_PROTOCOL_VERSION}..{PROTOCOL_VERSION}"
        )
    return negotiated


def supports_binary(message: Dict[str, Any]) -> bool:
    """Whether the hello's sender advertises binary columnar chunks."""
    return "binary" in (message.get("formats") or ())


def supports_trace(message: Dict[str, Any]) -> bool:
    """Whether the hello's sender accepts trace contexts on requests and
    ships server-side spans back on ``end``/``result`` frames."""
    return message.get("trace") is True


def check_hello(message: Dict[str, Any], where: str) -> Dict[str, Any]:
    """Validate a server's hello frame; raises :class:`ProtocolError`."""
    if message.get("kind") != "hello":
        raise ProtocolError(
            f"{where} did not open with a hello frame (got {message.get('kind')!r})"
        )
    negotiate_version(message, where)
    if not isinstance(message.get("database"), str) or not message["database"]:
        raise ProtocolError(f"{where} hello frame lacks a database name")
    return message


def request_message(request_id: int, op: str, **params: Any) -> Dict[str, Any]:
    message = {"id": request_id, "op": op}
    message.update(params)
    return message


def cancel_message(target: int) -> Dict[str, Any]:
    return {"op": "cancel", "target": target}


def chunk_message(
    request_id: int, seq: int, attributes: Sequence[str], rows: List[List[Any]]
) -> Dict[str, Any]:
    return {
        "id": request_id,
        "kind": "chunk",
        "seq": seq,
        "attributes": list(attributes),
        "rows": rows,
    }


def end_message(
    request_id: int,
    chunks: int,
    tuples: int,
    attributes: Sequence[str],
    spans: List[Dict[str, Any]] | None = None,
) -> Dict[str, Any]:
    """Stream terminator.  Carries the heading too: an empty relation
    ships zero chunk frames, and the receiver still needs its attributes
    to reconstruct the (empty) relation faithfully.  When the request
    carried a trace context, ``spans`` ships the server-side span
    payloads back for stitching (see :mod:`repro.obs.trace`)."""
    message = {
        "id": request_id,
        "kind": "end",
        "chunks": chunks,
        "tuples": tuples,
        "attributes": list(attributes),
    }
    if spans:
        message["spans"] = spans
    return message


def result_message(
    request_id: int, value: Any, spans: List[Dict[str, Any]] | None = None
) -> Dict[str, Any]:
    message = {"id": request_id, "kind": "result", "value": value}
    if spans:
        message["spans"] = spans
    return message


def error_message(request_id: int, error: BaseException) -> Dict[str, Any]:
    return {
        "id": request_id,
        "kind": "error",
        "error_type": type(error).__name__,
        "message": str(error),
    }


# -- value / relation payloads ----------------------------------------------


def wire_value(value: Any) -> Any:
    """Check one datum is wire-representable (JSON scalar or nil)."""
    if value is None or isinstance(value, _WIRE_SCALARS):
        return value
    raise ProtocolError(
        f"value of type {type(value).__name__} is not wire-representable "
        "(the polygen wire protocol carries JSON scalars and nil)"
    )


def wire_rows(rows: Sequence[Sequence[Any]]) -> List[List[Any]]:
    """Relation rows → JSON-ready lists, validating every datum."""
    return [[wire_value(value) for value in row] for row in rows]


def capabilities_payload(capabilities: Capabilities) -> Dict[str, Any]:
    """A :class:`~repro.lqp.base.Capabilities` as a ``capabilities``
    result value (plain flag mapping; unknown future flags ride along)."""
    return capabilities.to_dict()


def capabilities_from_payload(payload: Dict[str, Any]) -> Capabilities:
    """Inverse of :func:`capabilities_payload`.  Tolerant of versions:
    unknown flags are dropped and missing ones default, so a newer peer
    never breaks an older one.  Strict on types: a known flag must be a
    JSON boolean, or the payload raises :class:`~repro.errors.ProtocolError`."""
    if not isinstance(payload, dict):
        raise ProtocolError(f"malformed capabilities payload: {payload!r}")
    try:
        return Capabilities.from_dict(payload)
    except ValueError as exc:
        raise ProtocolError(f"malformed capabilities payload: {exc}") from None


def relation_chunks(
    relation: Relation, chunk_size: int = DEFAULT_CHUNK_TUPLES
) -> Iterator[List[List[Any]]]:
    """Split a relation's rows into wire-ready chunks.

    An empty relation yields no chunks at all; its heading reaches the
    receiver on the ``end`` frame (see :func:`end_message`).
    """
    if chunk_size < 1:
        raise ProtocolError(f"chunk_size must be >= 1, got {chunk_size}")
    rows = relation.rows
    for start in range(0, len(rows), chunk_size):
        yield wire_rows(rows[start : start + chunk_size])


def relation_from_wire(
    attributes: Sequence[str] | None, columns: Sequence[Sequence[Any]] | None
) -> Relation:
    """Rebuild a :class:`Relation` from a reply's decoded chunk columns.

    ``columns`` is ``None`` when the result was empty and no chunk flowed;
    ``attributes`` is then the heading the ``end`` frame carried.
    """
    if attributes is None:
        raise ProtocolError(
            "cannot reconstruct a relation: neither a chunk nor the end "
            "frame carried a heading"
        )
    if columns is None:
        return Relation(list(attributes))
    return Relation.from_columns(list(attributes), columns)


# -- URLs -------------------------------------------------------------------


def parse_url(url: str) -> Tuple[str, int]:
    """``polygen://host:port`` → ``(host, port)``.

    Accepts IPv6 literals in brackets (``polygen://[::1]:9470``).
    """
    prefix = f"{URL_SCHEME}://"
    if not url.startswith(prefix):
        raise ProtocolError(
            f"remote LQP URLs use the {prefix}host:port form, got {url!r}"
        )
    rest = url[len(prefix) :]
    host, separator, port_text = rest.rpartition(":")
    if not separator or not host:
        raise ProtocolError(f"remote LQP URL {url!r} lacks a host:port pair")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    try:
        port = int(port_text)
    except ValueError:
        raise ProtocolError(f"remote LQP URL {url!r} has a non-numeric port") from None
    if not 0 < port < 65536:
        raise ProtocolError(f"remote LQP URL {url!r} has an out-of-range port")
    return host, port


def format_url(host: str, port: int) -> str:
    if ":" in host:  # IPv6 literal
        return f"{URL_SCHEME}://[{host}]:{port}"
    return f"{URL_SCHEME}://{host}:{port}"
