"""A real distributed federation: three LQP servers on loopback.

Everything the other examples do in-process, this one does over the wire:

1. each of the paper's three local databases (AD, PD, CD) is exposed by
   its own :class:`~repro.net.server.LQPServer` — a separate TCP endpoint,
   exactly the autonomous-source topology of the paper's Figure 1;
2. the PQP side registers them by ``polygen://host:port`` URL — the
   registry dials each server and learns the database name from its hello
   frame — and runs the paper's worked CEO query end-to-end, verifying the
   answer is tag-identical to the in-process federation;
3. a bulk source then shows what chunked streaming buys: first tuples of
   a large remote retrieve are usable at first-chunk latency, long before
   the whole result has crossed the wire;
4. the federation's stats report the new per-transport counters.

Run with::

    PYTHONPATH=src python examples/remote_federation.py
"""

import time

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer, RemoteLQP
from repro.pqp.processor import PolygenQueryProcessor
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema
from repro.service.federation import PolygenFederation

PAPER_SQL = """
SELECT ONAME, CEO
FROM PORGANIZATION, PALUMNUS
WHERE CEO = ANAME AND ONAME IN
    (SELECT ONAME FROM PCAREER WHERE AID# IN
        (SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA"))
"""

BULK_ROWS = 20_000


def main() -> None:
    schema = paper_polygen_schema()

    # -- 1. three autonomous sources, each behind its own TCP server -------
    servers = [
        LQPServer(RelationalLQP(database)).start()
        for database in paper_databases().values()
    ]
    print("Local databases now serving on loopback:")
    for server in servers:
        print(f"  {server.database}: {server.url}")

    # -- 2. a federation over nothing but URLs ------------------------------
    registry = LQPRegistry()
    for server in servers:
        registry.register(server.url, concurrency=4, timeout=10.0)

    with PolygenFederation(
        schema, registry, resolver=paper_identity_resolver()
    ) as federation:
        with federation.session(name="wan-client") as session:
            result = session.execute(PAPER_SQL)
        print("\nThe paper's CEO query, executed over the network:")
        print(result.render())

        reference = _in_process_reference().run_sql(PAPER_SQL)
        identical = (
            result.relation == reference.relation
            and result.lineage == reference.lineage
        )
        print(f"\ntag-identical to the in-process federation: {identical}")

        # -- 4. the transport counters show what crossed the wire ----------
        print("\nFederation stats (note the per-transport counters):")
        print(federation.stats().render())

    for server in servers:
        server.stop()

    # -- 3. streamed vs batch: first tuples before the last ones land ------
    bulk = LocalDatabase("BULK")
    bulk.load(
        RelationSchema("EVENTS", ["EID", "KIND", "WEIGHT"], key=["EID"]),
        [(i, f"kind-{i % 7}", float(i % 100)) for i in range(BULK_ROWS)],
    )
    with LQPServer(RelationalLQP(bulk), chunk_size=256) as bulk_server:
        with RemoteLQP(bulk_server.url, timeout=30.0) as remote:
            began = time.perf_counter()
            whole = remote.retrieve("EVENTS")
            batch_seconds = time.perf_counter() - began

            first_chunk_at = None
            streamed = 0
            began = time.perf_counter()
            for chunk in remote.retrieve_chunks("EVENTS"):
                if first_chunk_at is None:
                    first_chunk_at = time.perf_counter() - began
                streamed += chunk.count
            stream_seconds = time.perf_counter() - began

    assert streamed == whole.cardinality
    print(
        f"\nStreaming a {BULK_ROWS}-tuple remote relation "
        f"(256-tuple chunks):"
    )
    print(f"  whole result landed after  {batch_seconds * 1e3:8.1f} ms")
    print(
        f"  first rows usable after    {first_chunk_at * 1e3:8.1f} ms "
        f"(complete after {stream_seconds * 1e3:.1f} ms)"
    )
    print(
        f"  first-row latency improvement: "
        f"{batch_seconds / first_chunk_at:.1f}x"
    )


def _in_process_reference() -> PolygenQueryProcessor:
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    return PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=registry,
        resolver=paper_identity_resolver(),
    )


if __name__ == "__main__":
    main()
