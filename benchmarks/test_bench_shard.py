"""Scan-sharding and hash-Merge benchmarks: parallelism inside one relation.

Three measurements, all recorded for ``--bench-json`` and gated by
``check_regression.py`` (their metric names carry the speedup-class
markers):

- **shard_scan_local.makespan_improvement** — one 100k-tuple Retrieve
  against a latency-injected in-process source, whole versus sharded
  into four key-range partial scans (:func:`repro.pqp.shard
  .shard_retrieves`).  The injected per-tuple transfer cost is the
  dominant term, exactly the regime the pass targets: four quarter-scans
  overlap on the widened worker group while the whole scan pays the full
  shipping bill serially.
- **shard_scan_remote.makespan_improvement** — the same comparison over
  a real loopback federation (``LQPServer`` + ``RemoteLQP``,
  per-LQP concurrency 4).  The shard pass reads its key statistics over
  the wire (``relation_stats``), and the four ``retrieve_range``
  requests multiplex on one connection.
- **merge_hash_vs_fold.hash_merge_speedup** — a 6-branch, 30k-tuple
  Merge evaluated by the hash-partitioned one-pass kernel
  (:func:`repro.core.derived.merge`) versus the paper's literal fold of
  Outer Natural Total Joins (``tests/reference/fold.py``).
  The fold rescans its growing accumulator once per operand; the hash
  kernel touches each input row once.

Both scan benches assert the sharded answer equals the unsharded one —
a speedup over a wrong answer is worthless — and every socket operation
carries a hard timeout so a dead peer fails the bench rather than
hanging CI.
"""

import gc
import time

from repro.catalog.mapping import AttributeMapping
from repro.catalog.schema import PolygenSchema
from repro.catalog.scheme import PolygenScheme
from repro.core.derived import merge
from repro.core.relation import PolygenRelation
from repro.lqp.cost import LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.processor import PolygenQueryProcessor
from repro.pqp.shard import shard_retrieves
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema

from tests.reference.fold import merge_fold

#: Relation size and shard width under test (the acceptance regime).
ROWS = 100_000
WIDTH = 4

#: Injected source latency (seconds).  ``PER_TUPLE`` dominates — at 100k
#: tuples the whole scan ships for 8s while each quarter-scan ships for
#: 2s — so the measured ratio reflects shipping overlap, not the
#: GIL-bound tagging/reassembly constant both runs pay.
PER_QUERY = 0.05
PER_TUPLE = 8e-5

#: The remote bench ships every tuple through JSON framing on top of the
#: injected delay; the marshalling constant is GIL-serialized, so the
#: injection is heavier there to keep the ratio measuring overlap.
REMOTE_PER_TUPLE = 1.2e-4

#: Transport knobs: generous timeout for loaded CI runners, hard for
#: dead sockets; large chunks keep framing overhead out of the ratio.
TIMEOUT = 60.0
CHUNK = 4096

MERGE_BRANCHES = 6
MERGE_ROWS = 5_000


def _database() -> LocalDatabase:
    database = LocalDatabase("AD")
    database.load(
        RelationSchema("EMP", ["ID", "K"], key=["ID"]),
        [(i, i) for i in range(ROWS)],
    )
    return database


def _schema() -> PolygenSchema:
    return PolygenSchema(
        [
            PolygenScheme(
                "PEMP",
                {
                    "ID": [AttributeMapping("AD", "EMP", "ID")],
                    "K": [AttributeMapping("AD", "EMP", "K")],
                },
                primary_key=["ID"],
            )
        ]
    )


def _scan_plan() -> IntermediateOperationMatrix:
    return IntermediateOperationMatrix(
        [
            MatrixRow(
                ResultOperand(1),
                Operation.RETRIEVE,
                LocalOperand("EMP"),
                el="AD",
                scheme="PEMP",
            )
        ]
    )


def _measure_whole_vs_sharded(registry: LQPRegistry):
    """Run the one-Retrieve plan whole and sharded on one concurrent
    engine; return ``(whole_seconds, sharded_seconds, report)``."""
    schema = _schema()
    engine = PolygenQueryProcessor(
        schema=schema, registry=registry, concurrent=True, optimize=False
    )
    try:
        began = time.perf_counter()
        whole = engine.run_plan(_scan_plan())
        whole_seconds = time.perf_counter() - began

        sharded_plan, report = shard_retrieves(
            _scan_plan(), registry, width=WIDTH, schema=schema, min_tuples=1
        )
        began = time.perf_counter()
        sharded = engine.run_plan(sharded_plan)
        sharded_seconds = time.perf_counter() - began
    finally:
        engine.close()
    assert report.retrieves_sharded == 1
    assert sharded.relation == whole.relation
    assert sharded.lineage == whole.lineage
    return whole_seconds, sharded_seconds, report


def test_sharded_scan_beats_whole_scan_locally(record_bench):
    """Four key-range quarter-scans of a 100k-tuple latency-injected
    relation overlap their shipping delays: >= 2.5x measured makespan
    improvement over the whole scan."""
    registry = LQPRegistry()
    registry.register(
        LatencyLQP(RelationalLQP(_database()), per_query=PER_QUERY, per_tuple=PER_TUPLE)
    )
    whole_seconds, sharded_seconds, _ = _measure_whole_vs_sharded(registry)
    improvement = whole_seconds / sharded_seconds
    record_bench(
        "shard_scan_local",
        tuples=ROWS,
        shard_width=WIDTH,
        per_query_delay_s=PER_QUERY,
        per_tuple_delay_s=PER_TUPLE,
        whole_scan_seconds=round(whole_seconds, 2),
        sharded_scan_seconds=round(sharded_seconds, 2),
        makespan_improvement=round(improvement, 2),
    )
    # Ideal ratio approaches WIDTH on the shipping term; the GIL-bound
    # tagging constant both runs pay caps the measured ratio near 3.
    assert improvement >= 2.5


def test_sharded_scan_beats_whole_scan_over_loopback(record_bench):
    """The same comparison across a real socket: stats arrive over the
    wire, and the four retrieve_range requests multiplex on one
    connection at per-LQP concurrency 4."""
    inner = LatencyLQP(
        RelationalLQP(_database()), per_query=PER_QUERY, per_tuple=REMOTE_PER_TUPLE
    )
    with LQPServer(inner, chunk_size=CHUNK) as server:
        registry = LQPRegistry()
        registry.register(server.url, concurrency=WIDTH, timeout=TIMEOUT)
        try:
            registry.get("AD").relation_names()  # warm the transport
            whole_seconds, sharded_seconds, _ = _measure_whole_vs_sharded(registry)
        finally:
            for lqp in registry:
                lqp.inner.close()
    improvement = whole_seconds / sharded_seconds
    record_bench(
        "shard_scan_remote",
        tuples=ROWS,
        shard_width=WIDTH,
        concurrency=WIDTH,
        chunk_size=CHUNK,
        per_query_delay_s=PER_QUERY,
        per_tuple_delay_s=REMOTE_PER_TUPLE,
        whole_scan_seconds=round(whole_seconds, 2),
        sharded_scan_seconds=round(sharded_seconds, 2),
        makespan_improvement=round(improvement, 2),
    )
    assert improvement >= 2.5


def test_hash_merge_beats_fold_on_wide_merge(record_bench):
    """One hash-partitioned pass over six 5k-tuple branches versus the
    fold's five accumulator rescans (best-of-3 damps runner noise)."""
    operands = [
        PolygenRelation.from_data(
            ["K", "V", "W"],
            [
                (f"k{branch}-{i}", f"v{i % 17}", float(i % 101))
                for i in range(MERGE_ROWS)
            ],
            origins=[f"DB{branch}"],
        )
        for branch in range(MERGE_BRANCHES)
    ]
    # One untimed pass warms the allocator arenas both kernels draw from.
    merge_fold(operands, key=["K"])
    merge(operands, key=["K"])
    fold_best = hash_best = None
    for _ in range(3):
        # Collect before each timed section: the scan benches above leave
        # enough garbage that an unlucky mid-kernel GC pause would swamp
        # the ~0.2s gap this bench measures.
        gc.collect()
        began = time.perf_counter()
        folded = merge_fold(operands, key=["K"])
        fold_seconds = time.perf_counter() - began
        fold_best = min(fold_best or fold_seconds, fold_seconds)

        gc.collect()
        began = time.perf_counter()
        hashed = merge(operands, key=["K"])
        hash_seconds = time.perf_counter() - began
        hash_best = min(hash_best or hash_seconds, hash_seconds)
    assert hashed.cardinality == folded.cardinality == MERGE_BRANCHES * MERGE_ROWS
    speedup = fold_best / hash_best
    record_bench(
        "merge_hash_vs_fold",
        branches=MERGE_BRANCHES,
        tuples_per_branch=MERGE_ROWS,
        fold_seconds=round(fold_best, 4),
        hash_seconds=round(hash_best, 4),
        hash_merge_speedup=round(speedup, 2),
    )
    # The fold's five accumulator rescans cost ~1.7x fresh; allocator
    # pressure from the scan benches narrows it on shared runners, so the
    # gate asks only that one-pass reliably beats the fold.
    assert speedup >= 1.15
