"""End-to-end pipelined streaming: first-row latency on a million-tuple scan.

A single remote source serves a 10^6-tuple relation; the client is three
lines — ``repro.connect(url)``, ``session.submit``, ``cursor.chunks()``.
The demo measures what the streaming pipeline buys:

1. **first-row latency** — the first columnar batch is usable after one
   chunk's work at every layer (server slice → wire frame → executor
   select/project → cursor), while the whole-result path must wait for
   the entire scan to cross the wire;
2. **negotiated binary wire format** — the connection speaks binary
   columnar v3 frames (negotiated at hello, JSON v1 kept as fallback),
   and the transport counters show the byte savings against a JSON-forced
   connection carrying identical rows.

Run with::

    PYTHONPATH=src python examples/streaming_pipeline.py

``STREAMING_PIPELINE_ROWS`` scales the relation (default 1,000,000).
"""

import os
import time

import repro
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer, RemoteLQP
from repro.catalog.mapping import AttributeMapping
from repro.catalog.schema import PolygenSchema
from repro.catalog.scheme import PolygenScheme
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema

ROWS = int(os.environ.get("STREAMING_PIPELINE_ROWS", "1000000"))
SERVER_CHUNK = 8192
STREAM_CHUNK = 1024


def build_schema() -> PolygenSchema:
    schema = PolygenSchema()
    schema.add(
        PolygenScheme(
            "PREADING",
            {
                "RID": [AttributeMapping("SENSORS", "READINGS", "RID")],
                "STATION": [AttributeMapping("SENSORS", "READINGS", "STATION")],
                "VALUE": [AttributeMapping("SENSORS", "READINGS", "VALUE")],
            },
            primary_key=["RID"],
        )
    )
    return schema


def main() -> None:
    database = LocalDatabase("SENSORS")
    database.load(
        RelationSchema("READINGS", ["RID", "STATION", "VALUE"], key=["RID"]),
        [(i, f"station-{i % 50}", float(i % 997)) for i in range(ROWS)],
    )

    with LQPServer(
        RelationalLQP(database), chunk_size=SERVER_CHUNK, schema=build_schema()
    ) as server:
        print(f"Remote source serving {ROWS:,} tuples at {server.url}")

        # -- one call from URL to session: schema comes from the server ----
        with repro.connect(server.url, stream_chunk_size=STREAM_CHUNK) as session:
            query = "(PREADING [RID, VALUE])"

            began = time.perf_counter()
            handle = session.submit(query)
            whole = handle.result(timeout=300)
            whole_seconds = time.perf_counter() - began
            print(
                f"\nWhole-result delivery: {whole.relation.cardinality:,} "
                f"tuples in {whole_seconds:.2f}s"
            )

            began = time.perf_counter()
            handle = session.submit(query)
            batches = 0
            streamed = 0
            first_seconds = None
            for batch in handle.stream().chunks(timeout=300):
                if first_seconds is None:
                    first_seconds = time.perf_counter() - began
                batches += 1
                streamed += batch.cardinality
            total_seconds = time.perf_counter() - began
            print(
                f"Pipelined delivery:    first batch after {first_seconds*1e3:.1f}ms, "
                f"{streamed:,} tuples / {batches:,} batches in {total_seconds:.2f}s"
            )
            print(
                f"First-row latency improvement: "
                f"{whole_seconds / first_seconds:.0f}x"
            )
            assert streamed == whole.relation.cardinality

        # -- what the negotiated binary frames saved on the wire -----------
        sizes = {}
        for wire_format in ("binary", "json"):
            with RemoteLQP(server.url, wire_format=wire_format) as remote:
                for _ in remote.retrieve_chunks("READINGS", chunk_size=SERVER_CHUNK):
                    pass
                stats = remote.transport_stats()
                sizes[wire_format] = stats.bytes_received
                label = "binary v3" if stats.binary_chunks else "JSON v1  "
                print(
                    f"{label} scan: {stats.bytes_received:,} bytes received "
                    f"({stats.chunks} chunks, {stats.binary_chunks} binary)"
                )
        print(
            f"Bytes-on-wire reduction from the v3 format: "
            f"{sizes['json'] / sizes['binary']:.1f}x"
        )


if __name__ == "__main__":
    main()
