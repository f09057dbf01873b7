"""Unit tests for the executor's pooled and inline schedulers."""

import time

import pytest

from repro.datasets.paper import (
    build_paper_federation,
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.errors import ExecutionError
from repro.lqp.cost import ForwardingLQP, LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.executor import Executor
from repro.pqp.matrix import IntermediateOperationMatrix
from repro.pqp.pool import WorkerPool
from repro.pqp.processor import PolygenQueryProcessor

from tests.integration.conftest import PAPER_SQL

LONE_ROW_SQL = 'SELECT ANAME, MAJOR FROM PALUMNUS WHERE DEGREE = "MBA"'


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
        concurrent = _processor(concurrent=True)
        assert concurrent.executor.pool is concurrent.federation.pool
        assert _processor().executor.pool is None


class BusyLQP(ForwardingLQP):
    """An in-process source whose every verb holds the interpreter lock
    for ``seconds`` of work: it cannot overlap another in-process row, but
    a row waiting on a sleep or a socket can overlap it."""

    def __init__(self, inner, seconds):
        super().__init__(inner)
        self.seconds = seconds

    def _shipped(self, kind, result):
        deadline = time.perf_counter() + self.seconds
        while time.perf_counter() < deadline:
            pass
        return result


def _registry(overlapping=(), latency=0.0, busy=0.0) -> LQPRegistry:
    """The paper's databases in memory, those named in ``overlapping``
    behind a :class:`LatencyLQP` of ``latency`` seconds (a source that
    overlaps), the others behind a :class:`BusyLQP` when ``busy``."""
    registry = LQPRegistry()
    for name, database in paper_databases().items():
        lqp = RelationalLQP(database)
        if name in overlapping:
            lqp = LatencyLQP(lqp, per_query=latency)
        elif busy:
            lqp = BusyLQP(lqp, busy)
        registry.register(lqp)
    return registry


class TestSchedulerChoice:
    """The engine pools a plan only when one of its local rows sits at a
    source that overlaps and another local row can run beside it.  The
    paper query's plan has three local rows at AD, one at PD and one at
    CD."""

    @pytest.fixture()
    def execute(self):
        with WorkerPool() as pool:

            def run(iom, overlapping=(), pooled=True):
                executor = Executor(
                    paper_polygen_schema(),
                    _registry(overlapping),
                    resolver=paper_identity_resolver(),
                    pool=pool if pooled else None,
                )
                return executor.execute(iom), pool.thread_names()

            yield run

    def test_a_lone_overlapping_row_runs_inline(self, execute):
        # One local row at AD, then the PQP's projection: nothing to overlap.
        reference = build_paper_federation().run_sql(LONE_ROW_SQL)
        assert sum(row.is_local for row in reference.iom) == 1
        trace, threads = execute(reference.iom, overlapping=("AD", "PD", "CD"))
        assert trace.relation == reference.relation
        assert {t.worker for t in trace.timings.values()} == {"serial"}
        assert threads == ()

    @pytest.mark.parametrize(
        "overlapping", [("PD",), ("PD", "CD")], ids=["one-overlapping", "two-overlapping"]
    )
    def test_a_row_that_can_overlap_another_is_pooled(
        self, execute, serial_run, overlapping
    ):
        trace, threads = execute(serial_run.iom, overlapping=overlapping)
        assert trace.relation == serial_run.relation
        # A pooled plan sends every local row to the pool, AD's included.
        assert len(threads) == 3
        for timing in trace.timings.values():
            expected = "pqp" if timing.location == "PQP" else f"-{timing.location}"
            assert timing.worker.endswith(expected)

    def test_without_a_pool_rows_that_could_overlap_run_inline(self, execute, serial_run):
        trace, threads = execute(serial_run.iom, overlapping=("PD", "CD"), pooled=False)
        assert trace.relation == serial_run.relation
        assert {t.worker for t in trace.timings.values()} == {"serial"}
        assert threads == ()

    @pytest.mark.parametrize("pooled", [False, True], ids=["no-pool", "pool"])
    def test_a_plan_listed_out_of_order_still_answers_inline(
        self, execute, serial_run, pooled
    ):
        rows = serial_run.iom.rows
        # Every row before the result, reversed: each is listed ahead of
        # the rows it consumes, so only a dependency order can run it.
        shuffled = IntermediateOperationMatrix(list(reversed(rows[:-1])) + [rows[-1]])
        trace, threads = execute(shuffled, pooled=pooled)
        assert trace.relation == serial_run.relation
        assert trace.lineage == serial_run.lineage
        assert {t.worker for t in trace.timings.values()} == {"serial"}
        assert threads == ()


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

    def test_a_waiting_row_overlaps_in_process_rows(self, serial_run):
        # Only PD waits (a 30 ms sleep, as on a socket); AD's and CD's four
        # rows each hold the interpreter lock for 10 ms.  The pool runs
        # them while PD waits, which an inline run cannot.
        registry = _registry(overlapping=("PD",), latency=0.03, busy=0.01)
        with WorkerPool() as pool:
            executor = Executor(
                paper_polygen_schema(),
                registry,
                resolver=paper_identity_resolver(),
                pool=pool,
            )
            trace = executor.execute(serial_run.iom)
        assert trace.relation == serial_run.relation
        assert trace.wall_clock < trace.busy_time

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

