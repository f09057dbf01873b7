"""The network layer: a wire protocol and remote LQP transport.

The paper's Figure-1 architecture connects the PQP to each autonomous
Local Query Processor over its own connection — but until this package
existed, every LQP in the reproduction ran *in-process*: the federation
was heterogeneous in dialect, not in deployment.  ``repro.net`` closes
that gap, in the polystore-middleware tradition (BigDAWG's engine shims):

- :mod:`repro.net.protocol` — a versioned, length-prefixed wire protocol
  carrying LQP operations, catalog/schema payloads, tuples in bounded
  chunks, errors, and cancellation; JSON control frames throughout, with
  chunk frames chosen per connection between JSON and the v3 binary
  columnar encoding;
- :mod:`repro.net.binary` — the v3 chunk encoding itself: per-column
  typed vectors of untagged local data, each written and read whole, so
  a shipped relation reaches the columnar engine without rowification;
- :mod:`repro.net.server` — :class:`~repro.net.server.LQPServer`, a
  threaded TCP server exposing any existing
  :class:`~repro.lqp.base.LocalQueryProcessor` at an address;
- :mod:`repro.net.transport` — :class:`~repro.net.transport.ConnectionMux`,
  one connection and its reader thread, carrying N in-flight requests;
- :mod:`repro.net.client` — :class:`~repro.net.client.RemoteLQP`, a
  drop-in ``LocalQueryProcessor`` backed by that multiplexer, registrable
  straight into an :class:`~repro.lqp.registry.LQPRegistry` by
  ``polygen://host:port`` URL, with pull-style chunk streaming through
  :class:`~repro.net.client.RelationChunkStream`.
"""

from repro.net.client import RelationChunkStream, RemoteLQP, WireChunk
from repro.net.protocol import (
    MIN_PROTOCOL_VERSION,
    PROTOCOL_VERSION,
    WIRE_FORMATS,
    format_url,
    parse_url,
)
from repro.net.server import LQPServer
from repro.net.transport import ConnectionMux, TransportStats

__all__ = [
    "MIN_PROTOCOL_VERSION",
    "PROTOCOL_VERSION",
    "WIRE_FORMATS",
    "ConnectionMux",
    "LQPServer",
    "RelationChunkStream",
    "RemoteLQP",
    "TransportStats",
    "WireChunk",
    "format_url",
    "parse_url",
]
