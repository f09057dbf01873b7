"""Unit tests for the concurrent federated execution runtime."""

import pytest

from repro.datasets.paper import (
    build_paper_federation,
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.errors import ExecutionError
from repro.lqp.cost import LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.matrix import IntermediateOperationMatrix
from repro.pqp.processor import PolygenQueryProcessor
from repro.pqp.runtime import ConcurrentExecutor

from tests.integration.conftest import PAPER_SQL


def _processor(latency=0.0, **kwargs) -> PolygenQueryProcessor:
    registry = LQPRegistry()
    for database in paper_databases().values():
        lqp = RelationalLQP(database)
        registry.register(LatencyLQP(lqp, per_query=latency) if latency else lqp)
    return PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=registry,
        resolver=paper_identity_resolver(),
        **kwargs,
    )


@pytest.fixture(scope="module")
def serial_run():
    return build_paper_federation().run_sql(PAPER_SQL)


class TestEquivalence:
    def test_same_relation_and_tags_as_serial(self, serial_run):
        concurrent = _processor(concurrent=True).run_sql(PAPER_SQL)
        assert concurrent.relation == serial_run.relation
        assert concurrent.lineage == serial_run.lineage

    def test_same_intermediates_as_serial(self, serial_run):
        concurrent = _processor(concurrent=True).run_sql(PAPER_SQL)
        assert set(concurrent.trace.results) == set(serial_run.trace.results)
        for index, relation in serial_run.trace.results.items():
            assert concurrent.trace.results[index] == relation

    def test_accounting_matches_serial(self):
        serial = _processor()
        serial.run_sql(PAPER_SQL)
        concurrent = _processor(concurrent=True)
        concurrent.run_sql(PAPER_SQL)
        assert (
            concurrent.registry.total_stats().tuples_shipped
            == serial.registry.total_stats().tuples_shipped
        )

    def test_executor_property_reports_engine(self):
        assert isinstance(_processor(concurrent=True).executor, ConcurrentExecutor)
        assert not isinstance(_processor().executor, ConcurrentExecutor)


class TestPool:
    def test_a_pool_is_required(self):
        with pytest.raises(TypeError, match="pool"):
            ConcurrentExecutor(paper_polygen_schema(), _processor().registry)


class TestTimings:
    def test_dependencies_respected_in_time(self):
        run = _processor(concurrent=True).run_sql(PAPER_SQL)
        timings = run.trace.timings
        for row in run.iom:
            for ref in row.referenced_results():
                assert (
                    timings[row.result.index].start
                    >= timings[ref.index].finish - 1e-9
                )

    def test_local_rows_overlap_across_databases(self):
        # With a real per-query delay, the three merge retrieves (AD, PD,
        # CD) run concurrently: wall clock stays well under busy time.
        run = _processor(latency=0.03, concurrent=True).run_sql(PAPER_SQL)
        trace = run.trace
        assert trace.wall_clock < trace.busy_time
        locations = {t.location for t in trace.timings.values()}
        assert {"AD", "PD", "CD", "PQP"} <= locations

    def test_same_database_rows_serialize(self):
        run = _processor(latency=0.01, concurrent=True).run_sql(PAPER_SQL)
        ad = sorted(
            (t for t in run.trace.timings.values() if t.location == "AD"),
            key=lambda t: t.start,
        )
        for earlier, later in zip(ad, ad[1:]):
            assert later.start >= earlier.finish - 1e-9


class TestErrors:
    def test_local_failure_propagates_with_row_context(self):
        pqp = _processor(concurrent=True)
        run = pqp.run_sql(PAPER_SQL)
        # Re-execute a plan referencing a relation the LQP does not serve.
        from dataclasses import replace

        from repro.pqp.matrix import LocalOperand

        broken_rows = list(run.iom.rows)
        broken_rows[1] = replace(broken_rows[1], lhr=LocalOperand("NO_SUCH"))
        broken = IntermediateOperationMatrix(broken_rows)
        with pytest.raises(ExecutionError):
            pqp.executor.execute(broken)

