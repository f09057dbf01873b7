"""Supplementary benchmark: optimizer ablation.

The paper leaves the Query Optimizer out of scope; ours performs safe
retrieve/merge deduplication and dead-row pruning.  This bench runs a
query that references the multi-source PORGANIZATION scheme twice, with
and without optimization, and reports the traffic difference that
EXPERIMENTS.md records.
"""

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.processor import PolygenQueryProcessor

SELF_UNION = (
    '((PORGANIZATION [INDUSTRY = "Banking"]) [ONAME, INDUSTRY]) UNION '
    '((PORGANIZATION [INDUSTRY = "Hotel"]) [ONAME, INDUSTRY])'
)


def build_pqp(optimize: bool) -> PolygenQueryProcessor:
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    return PolygenQueryProcessor(
        paper_polygen_schema(),
        registry,
        resolver=paper_identity_resolver(),
        optimize=optimize,
    )


def test_unoptimized_duplicate_scheme_references(benchmark):
    """Naive plan: BUSINESS and CORPORATION retrieved twice, merged twice."""
    pqp = build_pqp(optimize=False)
    result = benchmark(pqp.run_algebra, SELF_UNION)
    assert result.relation.cardinality == 2  # Citicorp (Banking) + Langley Castle (Hotel)
    retrieves = [row for row in result.iom if row.op.value == "Retrieve"]
    assert len(retrieves) == 4


def test_optimized_duplicate_scheme_references(benchmark):
    """Optimized plan: shared retrieves and a single merge."""
    pqp = build_pqp(optimize=True)
    result = benchmark(pqp.run_algebra, SELF_UNION)
    assert result.relation.cardinality == 2
    retrieves = [row for row in result.iom if row.op.value == "Retrieve"]
    assert len(retrieves) == 2
    assert result.optimization.retrieves_deduplicated == 2
    assert result.optimization.merges_deduplicated == 1


def test_optimizer_traffic_reduction(benchmark):
    """Measured LQP traffic: optimized vs naive (the ablation headline)."""

    def run_both():
        naive = build_pqp(optimize=False)
        optimized = build_pqp(optimize=True)
        naive.run_algebra(SELF_UNION)
        optimized.run_algebra(SELF_UNION)
        return naive.registry.total_stats(), optimized.registry.total_stats()

    naive_stats, optimized_stats = benchmark(run_both)
    assert optimized_stats.queries < naive_stats.queries
    assert optimized_stats.tuples_shipped < naive_stats.tuples_shipped
