#!/usr/bin/env python3
"""The federation as a service: sessions, handles, cursors, stats.

The paper's PQP (Figure 2) is a system that serves *many users* over a
federation of autonomous databases.  This example runs it that way: one
long-lived :class:`~repro.service.federation.PolygenFederation` over the
paper's three databases (each injecting a little latency, as a real
autonomous source would), three user sessions submitting queries
concurrently, a streaming cursor, a per-call option override, and the
service's own accounting at the end.

Run:  python examples/federation_service.py
"""

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.cost import LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.service.federation import PolygenFederation

#: Simulated per-query latency of each autonomous database, in seconds.
LATENCY = 0.01

PAPER_SQL = """
SELECT ONAME, CEO
FROM PORGANIZATION, PALUMNUS
WHERE CEO = ANAME AND ONAME IN
    (SELECT ONAME FROM PCAREER WHERE AID# IN
        (SELECT AID# FROM PALUMNUS WHERE DEGREE = "MBA"))
"""


def main() -> None:
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(LatencyLQP(RelationalLQP(database), per_query=LATENCY))

    with PolygenFederation(
        paper_polygen_schema(),
        registry,
        resolver=paper_identity_resolver(),
        max_concurrent_queries=8,
    ) as federation:
        print("Three users, one federation, queries in flight together")
        print("-------------------------------------------------------")
        alice = federation.session(name="alice")
        bob = federation.session(name="bob")
        carol = federation.session(name="carol", engine="serial")

        # All three submitted before any result is awaited.
        mba_ceos = alice.submit(PAPER_SQL)
        banking = bob.submit('(PORGANIZATION [INDUSTRY = "High Tech"]) [ONAME, INDUSTRY]')
        serial_run = carol.submit('(PCAREER [POSITION = "CEO"]) [ONAME]')

        print("alice — the paper's §I query (Table 9):")
        for row in mba_ceos.result().relation:
            print(f"  {row.data[0]}, CEO {row.data[1]}")

        print("bob — streaming High Tech organizations through a cursor:")
        cursor = banking.cursor()
        while True:
            batch = cursor.fetchmany(2)
            if not batch:
                break
            for row in batch:
                print(
                    f"  {row.data[0]} (origins {sorted(row[0].origins)})"
                )

        print("carol — serial engine by session option override:")
        workers = {t.worker for t in serial_run.result().trace.timings.values()}
        print(
            f"  {serial_run.result().relation.cardinality} organizations with a CEO"
            f" on record, executed by {sorted(workers)}"
        )
        print()

        print("What the service measured (alice's query)")
        trace = mba_ceos.result().trace
        print(f"  measured makespan:  {trace.wall_clock:.3f}s")
        print(f"  summed busy time:   {trace.busy_time:.3f}s")
        print(f"  overlap (busy time / makespan): {trace.busy_time / trace.wall_clock:.1f}x")
        print()

        print("Federation stats")
        print("----------------")
        print(federation.stats().render())


if __name__ == "__main__":
    main()
