"""Supplementary benchmark: Merge cost versus federation size.

Merge is the polygen model's distinctive operator — the fold of Outer
Natural Total Joins that fuses overlapping autonomous databases into one
tagged relation.  This bench scales the number of databases and measures
plan execution.  Each extra database adds one Retrieve to the plan and one
operand to the single n-ary Merge (``storage/kernels.py:hash_merge``),
which partitions all operands' rows by key in one pass; no database adds
an Outer Natural Total Join of its own.

**hash_merge_speedup** (asserted in-test, >= 1.15) is that one pass
against the paper's literal fold of Outer Natural Total Joins
(``tests/reference/fold.py``) on a 6-branch, 30k-tuple Merge: the fold
rescans its growing accumulator once per operand; the hash kernel touches
each input row once.
"""

import gc
import time

import pytest

from repro.core.derived import merge
from repro.core.relation import PolygenRelation
from repro.datasets.generators import FederationSpec, generate_federation

from tests.reference.fold import merge_fold

DATABASE_COUNTS = [2, 4, 8, 16]

MERGE_BRANCHES = 6
MERGE_ROWS = 5_000


@pytest.mark.parametrize("databases", DATABASE_COUNTS)
def test_merge_scaling_with_databases(benchmark, databases):
    """Merge GORGANIZATION over N overlapping databases (fixed universe)."""
    federation = generate_federation(
        FederationSpec(
            databases=databases,
            organizations=200,
            coverage=0.4,
            people_per_database=5,
            seed=23,
        )
    )
    pqp = federation.processor()

    result = benchmark(pqp.run_algebra, "GORGANIZATION [NAME, INDUSTRY]")
    covered = set()
    for database in federation.databases.values():
        covered |= {row[0] for row in database.relation("ORG")}
    assert {row.data[0] for row in result.relation} == covered
    # The plan reflects the federation's width: N retrieves + 1 merge.
    retrieves = [row for row in result.iom if row.op.value == "Retrieve"]
    assert len(retrieves) == databases


@pytest.mark.parametrize("coverage", [0.2, 0.5, 0.9])
def test_merge_scaling_with_overlap(benchmark, coverage):
    """Merge cost versus overlap fraction (fixed 6 databases).

    Higher coverage means more matched tuples per ONTJ (more coalesces),
    lower coverage means more nil-padding.
    """
    federation = generate_federation(
        FederationSpec(
            databases=6,
            organizations=200,
            coverage=coverage,
            people_per_database=5,
            seed=29,
        )
    )
    pqp = federation.processor()
    result = benchmark(pqp.run_algebra, "GORGANIZATION [NAME, INDUSTRY]")
    assert result.relation.cardinality > 0


def test_hash_merge_beats_fold_on_wide_merge():
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
        # Collect before each timed section: earlier benches in the session
        # can leave enough garbage that an unlucky mid-kernel GC pause
        # would swamp the ~0.2s gap this bench measures.
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
    # The fold's five accumulator rescans cost ~1.7x fresh; allocator
    # pressure from earlier benches narrows it on shared runners, so the
    # gate asks only that one-pass reliably beats the fold.
    assert speedup >= 1.15
