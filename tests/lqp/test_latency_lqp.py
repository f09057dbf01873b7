"""LatencyLQP injects real delay: the measured trace sees it."""

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.cost import LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.processor import PolygenQueryProcessor

from tests.integration.conftest import PAPER_SQL


def test_injected_latency_lower_bounds_the_measured_rows():
    """A LatencyLQP's delays are real: every row it serves measures at
    least ``per_query + per_tuple × tuples shipped`` — the measured record
    the result cache weighs entries by."""
    databases = paper_databases()
    slow = LatencyLQP(RelationalLQP(databases.pop("AD")), per_query=0.01, per_tuple=0.001)
    registry = LQPRegistry()
    registry.register(slow)
    for database in databases.values():
        registry.register(RelationalLQP(database))
    run = PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=registry,
        resolver=paper_identity_resolver(),
    ).run_sql(PAPER_SQL)
    served = [row for row in run.iom if row.el == "AD"]
    assert served
    for row in served:
        index = row.result.index
        charged = slow.per_query + slow.per_tuple * run.trace.results[index].cardinality
        assert run.trace.timings[index].duration >= charged
