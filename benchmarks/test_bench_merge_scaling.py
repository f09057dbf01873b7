"""Supplementary benchmark: Merge cost versus federation size.

Merge is the polygen model's distinctive operator — the fold of Outer
Natural Total Joins that fuses overlapping autonomous databases into one
tagged relation.  This bench scales the number of databases and measures
plan execution.  Each extra database adds one Retrieve to the plan and one
operand to the single n-ary Merge (``storage/kernels.py:hash_merge``),
which partitions all operands' rows by key in one pass; no database adds
an Outer Natural Total Join of its own.
"""

import pytest

from repro.datasets.generators import FederationSpec, generate_federation

DATABASE_COUNTS = [2, 4, 8, 16]


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
