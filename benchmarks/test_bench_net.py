"""Network-layer benchmarks: per-LQP concurrency and chunked streaming.

Two measurements over a real loopback federation (``LQPServer`` +
``RemoteLQP``), both recorded for ``--bench-json`` and gated by
``check_regression.py`` (their metric names carry the speedup-class
markers):

- **remote_concurrency_speedup** — the same four-Retrieve Merge plan
  against one latency-injected remote server, executed with per-LQP
  concurrency 1 (the paper's single-connection assumption) and 4 (the
  multiplexer's in-flight window).  The four injected delays overlap
  server-side only when the transport keeps four requests in flight, so
  the makespan ratio measures exactly what ``native_concurrency`` buys.
- **streaming_first_row_improvement** — a large remote retrieve consumed
  whole versus chunk-streamed: with 256-tuple chunks the first rows are
  usable after one chunk's marshalling instead of the whole result's.

Every socket operation in this module carries a hard timeout, so a dead
peer fails the bench rather than hanging CI.
"""

import time

from repro.lqp.cost import LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer, RemoteLQP
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.processor import PolygenQueryProcessor
from repro.catalog.mapping import AttributeMapping
from repro.catalog.schema import PolygenSchema
from repro.catalog.scheme import PolygenScheme
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema

#: Injected per-query latency (seconds) at the remote source, and how many
#: same-database Retrieves the plan issues.
DELAY = 0.08
FANOUT = 4

#: Transport timeout: generous for loaded CI runners, hard for dead sockets.
TIMEOUT = 15.0

BULK_ROWS = 20_000
CHUNK = 256


def _bulk_database() -> LocalDatabase:
    database = LocalDatabase("XD")
    for ordinal in range(FANOUT):
        database.load(
            RelationSchema(f"T{ordinal}", ["NAME", "VALUE"], key=["NAME"]),
            [(f"n{ordinal}-{i}", i) for i in range(25)],
        )
    return database


def _xd_schema() -> PolygenSchema:
    schema = PolygenSchema()
    schema.add(
        PolygenScheme(
            "PTHING",
            {
                "NAME": [
                    AttributeMapping("XD", f"T{i}", "NAME") for i in range(FANOUT)
                ],
                "VALUE": [
                    AttributeMapping("XD", f"T{i}", "VALUE") for i in range(FANOUT)
                ],
            },
            primary_key=["NAME"],
        )
    )
    return schema


def _merge_plan() -> IntermediateOperationMatrix:
    """FANOUT Retrieves at the same database, folded by one Merge — the
    shape where per-LQP concurrency (not cross-database overlap) decides
    the makespan."""
    rows = [
        MatrixRow(
            ResultOperand(i + 1),
            Operation.RETRIEVE,
            LocalOperand(f"T{i}"),
            el="XD",
            scheme="PTHING",
        )
        for i in range(FANOUT)
    ]
    rows.append(
        MatrixRow(
            ResultOperand(FANOUT + 1),
            Operation.MERGE,
            tuple(ResultOperand(i + 1) for i in range(FANOUT)),
            el="PQP",
            scheme="PTHING",
        )
    )
    return IntermediateOperationMatrix(rows)


def _remote_processor(url: str, concurrency: int) -> PolygenQueryProcessor:
    registry = LQPRegistry()
    registry.register(url, concurrency=concurrency, timeout=TIMEOUT)
    return PolygenQueryProcessor(_xd_schema(), registry, concurrent=True)


def test_remote_concurrency_beats_single_connection(record_bench):
    """Concurrency 4 overlaps the four injected delays over one multiplexed
    connection: >= 2x measured makespan improvement vs concurrency 1."""
    plan = _merge_plan()
    with LQPServer(LatencyLQP(RelationalLQP(_bulk_database()), per_query=DELAY)) as server:
        narrow = _remote_processor(server.url, concurrency=1)
        wide = _remote_processor(server.url, concurrency=FANOUT)
        try:
            # Warm both transports (connection + first-request costs).
            narrow.registry.get("XD").retrieve("T0")
            wide.registry.get("XD").retrieve("T0")

            began = time.perf_counter()
            serial_run = narrow.run_plan(plan)
            serial_seconds = time.perf_counter() - began

            began = time.perf_counter()
            concurrent_run = wide.run_plan(plan)
            concurrent_seconds = time.perf_counter() - began
        finally:
            for processor in (narrow, wide):
                for lqp in processor.registry:
                    lqp.inner.close()
                processor.close()

    assert concurrent_run.relation == serial_run.relation
    speedup = serial_seconds / concurrent_seconds
    record_bench(
        "remote_lqp_concurrency",
        fanout=FANOUT,
        per_query_delay_s=DELAY,
        concurrency1_seconds=round(serial_seconds, 4),
        concurrency4_seconds=round(concurrent_seconds, 4),
        remote_concurrency_speedup=round(speedup, 2),
    )
    # Four delays serialized vs overlapped: ideal ratio FANOUT, gate at 2x.
    assert speedup >= 2.0
    # Each local row's measured time is delay+network for its request; it
    # must be dominated by the injection (loopback is sub-millisecond).
    local_rows = [row.result.index for row in concurrent_run.iom if row.is_local]
    assert all(
        concurrent_run.trace.timings[index].duration >= DELAY * 0.8
        for index in local_rows
    )


def test_chunked_streaming_beats_whole_result_first_row(record_bench):
    """First tuples of a 20k-row remote retrieve are usable after one
    256-tuple chunk — well before the whole result lands."""
    database = LocalDatabase("BULK")
    database.load(
        RelationSchema("EVENTS", ["EID", "KIND", "WEIGHT"], key=["EID"]),
        [(i, f"kind-{i % 7}", float(i % 100)) for i in range(BULK_ROWS)],
    )
    batch_best = first_row_best = None
    with LQPServer(RelationalLQP(database), chunk_size=CHUNK) as server:
        with RemoteLQP(server.url, timeout=TIMEOUT) as remote:
            for _ in range(3):  # best-of-3 damps runner noise
                began = time.perf_counter()
                whole = remote.retrieve("EVENTS")
                batch_seconds = time.perf_counter() - began
                batch_best = min(batch_best or batch_seconds, batch_seconds)

                first_row = None
                streamed = 0
                began = time.perf_counter()
                for chunk in remote.retrieve_chunks("EVENTS"):
                    if first_row is None:
                        first_row = time.perf_counter() - began
                    streamed += chunk.count
                first_row_best = min(first_row_best or first_row, first_row)

    assert streamed == whole.cardinality
    assert whole.cardinality == BULK_ROWS
    improvement = batch_best / first_row_best
    record_bench(
        "remote_streaming_first_row",
        tuples=BULK_ROWS,
        chunk_size=CHUNK,
        whole_result_seconds=round(batch_best, 4),
        first_row_seconds=round(first_row_best, 4),
        # The gated ratio is capped: the raw value divides by a ~1ms
        # first-chunk latency, and runner micro-jitter would swing an
        # uncapped 40x to 25x (a 37% "regression" of nothing).  Capped,
        # the gate still fires on what matters — chunking breaking would
        # collapse the ratio to ~1.
        streaming_first_row_improvement=round(min(improvement, 10.0), 2),
        uncapped_ratio=round(improvement, 2),
    )
    assert improvement >= 2.0
