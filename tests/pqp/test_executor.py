"""Unit tests for the IOM executor: routing, materialization, lineage and
failure modes."""

import pytest

from repro.core.predicate import Literal, Theta
from repro.datasets.paper import (
    build_paper_federation,
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.errors import ExecutionError, UnknownDatabaseError
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.executor import ExecutionTrace, Executor, RowTiming
from repro.pqp.matrix import (
    PQP_LOCATION,
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)


@pytest.fixture(scope="module")
def executor():
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    return Executor(
        paper_polygen_schema(), registry, resolver=paper_identity_resolver()
    )


def iom(*rows):
    return IntermediateOperationMatrix(rows)


def retrieve(index, relation, database, scheme):
    return MatrixRow(
        result=ResultOperand(index),
        op=Operation.RETRIEVE,
        lhr=LocalOperand(relation),
        el=database,
        scheme=scheme,
    )


class TestLocalRows:
    def test_retrieve_materializes_and_tags(self, executor):
        trace = executor.execute(iom(retrieve(1, "CAREER", "AD", "PCAREER")))
        assert trace.relation.attributes == ("AID#", "ONAME", "POSITION")
        assert trace.relation.cardinality == 9
        cell = trace.relation.tuples[0][0]
        assert cell.origins == frozenset({"AD"})
        assert cell.intermediates == frozenset()

    def test_retrieve_applies_identity_resolution(self, executor):
        trace = executor.execute(iom(retrieve(1, "BUSINESS", "AD", "PORGANIZATION")))
        names = {row.data[0] for row in trace.relation}
        assert "Citicorp" in names and "CitiCorp" not in names

    def test_local_select(self, executor):
        trace = executor.execute(
            iom(
                MatrixRow(
                    result=ResultOperand(1),
                    op=Operation.SELECT,
                    lhr=LocalOperand("ALUMNUS"),
                    lha="DEG",
                    theta=Theta.EQ,
                    rha=Literal("MBA"),
                    el="AD",
                    scheme="PALUMNUS",
                )
            )
        )
        assert trace.relation.cardinality == 5

    def test_local_select_requires_literal(self, executor):
        with pytest.raises(ExecutionError):
            executor.execute(
                iom(
                    MatrixRow(
                        result=ResultOperand(1),
                        op=Operation.SELECT,
                        lhr=LocalOperand("ALUMNUS"),
                        lha="DEG",
                        theta=Theta.EQ,
                        rha="MAJ",  # attribute, not literal
                        el="AD",
                        scheme="PALUMNUS",
                    )
                )
            )

    def test_unsupported_local_operation(self, executor):
        with pytest.raises(ExecutionError):
            executor.execute(
                iom(
                    MatrixRow(
                        result=ResultOperand(1),
                        op=Operation.PROJECT,
                        lhr=LocalOperand("ALUMNUS"),
                        lha=("ANAME",),
                        el="AD",
                        scheme="PALUMNUS",
                    )
                )
            )

    def test_unknown_database(self, executor):
        with pytest.raises(UnknownDatabaseError):
            executor.execute(iom(retrieve(1, "ALUMNUS", "XX", "PALUMNUS")))

    def test_lineage_of_base_relation(self, executor):
        trace = executor.execute(iom(retrieve(1, "CAREER", "AD", "PCAREER")))
        assert trace.lineage == {
            "AID#": frozenset({"PCAREER"}),
            "ONAME": frozenset({"PCAREER"}),
            "POSITION": frozenset({"PCAREER"}),
        }


class TestPqpRows:
    def test_merge_requires_scheme_key(self, executor):
        rows = [
            retrieve(1, "ALUMNUS", "AD", "PALUMNUS"),
            retrieve(2, "CAREER", "AD", "PCAREER"),
            MatrixRow(
                result=ResultOperand(3),
                op=Operation.MERGE,
                lhr=(ResultOperand(1), ResultOperand(2)),
                el=PQP_LOCATION,
                scheme="PALUMNUS",
            ),
        ]
        # PALUMNUS's key is AID#, present in both → merge succeeds.
        trace = executor.execute(iom(*rows))
        assert "ONAME" in trace.relation.heading

    def test_merge_demands_tuple_input(self, executor):
        rows = [
            retrieve(1, "ALUMNUS", "AD", "PALUMNUS"),
            MatrixRow(
                result=ResultOperand(2),
                op=Operation.MERGE,
                lhr=ResultOperand(1),
                el=PQP_LOCATION,
                scheme="PALUMNUS",
            ),
        ]
        with pytest.raises(ExecutionError):
            executor.execute(iom(*rows))

    def test_union_aligns_attribute_order(self, executor):
        rows = [
            retrieve(1, "ALUMNUS", "AD", "PALUMNUS"),
            MatrixRow(
                result=ResultOperand(2),
                op=Operation.PROJECT,
                lhr=ResultOperand(1),
                lha=("ANAME", "MAJOR"),
                el=PQP_LOCATION,
            ),
            MatrixRow(
                result=ResultOperand(3),
                op=Operation.PROJECT,
                lhr=ResultOperand(1),
                lha=("MAJOR", "ANAME"),  # transposed order
                el=PQP_LOCATION,
            ),
            MatrixRow(
                result=ResultOperand(4),
                op=Operation.UNION,
                lhr=ResultOperand(2),
                rhr=ResultOperand(3),
                el=PQP_LOCATION,
            ),
        ]
        trace = executor.execute(iom(*rows))
        assert trace.relation.cardinality == 8  # no spurious duplicates

    def test_trace_result_lookup(self, executor):
        trace = executor.execute(iom(retrieve(1, "CAREER", "AD", "PCAREER")))
        assert trace.result(1) is trace.relation
        with pytest.raises(ExecutionError):
            trace.result(99)


class TestCoalesceRow:
    def test_coalesce_at_pqp(self, executor):
        rows = [
            retrieve(1, "FIRM", "CD", "PORGANIZATION"),
            MatrixRow(
                result=ResultOperand(2),
                op=Operation.COALESCE,
                lhr=ResultOperand(1),
                lha="CEO",
                rha="HEADQUARTERS",
                output="MIXED",
                el=PQP_LOCATION,
            ),
        ]
        trace = executor.execute(iom(*rows))
        assert "MIXED" in trace.relation.heading
        # conflicting non-nil pairs drop under the paper's Coalesce
        assert trace.relation.cardinality == 0
        assert trace.lineage["MIXED"] == frozenset({"PORGANIZATION"})


class TestTraceTimings:
    """The trace's makespan and busy times derive from its row timings."""

    def _trace(self, timings):
        return ExecutionTrace(relation=None, results={}, lineage={}, timings=timings)

    def test_overlapped_rows(self):
        trace = self._trace(
            {
                1: RowTiming(0.0, 2.0, "AD"),
                2: RowTiming(0.5, 1.5, "PD"),
                3: RowTiming(2.0, 3.0, "AD"),
                4: RowTiming(3.0, 3.5, PQP_LOCATION),
            }
        )
        assert trace.wall_clock == pytest.approx(3.5)
        assert trace.busy_time == pytest.approx(4.5)
        assert trace.busy_by_location() == pytest.approx(
            {"AD": 3.0, "PD": 1.0, PQP_LOCATION: 0.5}
        )

    def test_untimed_trace_is_zero(self):
        trace = self._trace({})
        assert trace.wall_clock == 0.0
        assert trace.busy_time == 0.0
        assert trace.busy_by_location() == {}
