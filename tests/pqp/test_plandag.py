"""Unit tests for the in-house plan DAG."""

import pytest

from repro.core.predicate import Literal, Theta
from repro.errors import ExecutionError
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.plandag import PlanDAG

from tests.integration.conftest import PAPER_SQL


def _retrieve(index, relation="T", el="AD"):
    return MatrixRow(
        result=ResultOperand(index),
        op=Operation.RETRIEVE,
        lhr=LocalOperand(relation),
        el=el,
        scheme="S",
    )


def _join(index, left, right):
    return MatrixRow(
        result=ResultOperand(index),
        op=Operation.JOIN,
        lhr=ResultOperand(left),
        lha="A",
        theta=Theta.EQ,
        rha="A",
        rhr=ResultOperand(right),
        el="PQP",
    )


@pytest.fixture(scope="module")
def paper_iom():
    from repro.datasets.paper import build_paper_federation

    return build_paper_federation().run_sql(PAPER_SQL).iom


class TestStructure:
    def test_nodes_and_edges(self, paper_iom):
        dag = PlanDAG.from_iom(paper_iom)
        assert len(dag) == len(paper_iom)
        # R(7) (the Merge) consumes R(4), R(5), R(6).
        assert set(dag.predecessors(7)) == {4, 5, 6}
        assert 7 in dag.successors(4)

    def test_roots_and_sinks(self, paper_iom):
        dag = PlanDAG.from_iom(paper_iom)
        assert set(dag.roots()) == {1, 2, 4, 5, 6}
        assert dag.sinks() == (10,)

    def test_unknown_reference_rejected(self):
        iom = IntermediateOperationMatrix([_retrieve(1), _join(2, 1, 9)])
        with pytest.raises(ExecutionError, match="R\\(9\\)"):
            PlanDAG.from_iom(iom)

    def test_duplicate_result_rejected(self):
        iom = IntermediateOperationMatrix([_retrieve(1), _retrieve(1)])
        with pytest.raises(ExecutionError, match="twice"):
            PlanDAG.from_iom(iom)


class TestTopologicalOrder:
    def test_respects_dependencies(self, paper_iom):
        dag = PlanDAG.from_iom(paper_iom)
        order = dag.topological_order()
        position = {index: rank for rank, index in enumerate(order)}
        for index in dag.indices:
            for predecessor in dag.predecessors(index):
                assert position[predecessor] < position[index]

    def test_in_order_plan_keeps_its_numbering(self, paper_iom):
        dag = PlanDAG.from_iom(paper_iom)
        assert dag.topological_order() == tuple(range(1, len(paper_iom) + 1))

    def test_out_of_order_listing_is_handled(self):
        rows = [_join(3, 1, 2), _retrieve(1, "T"), _retrieve(2, "U", el="PD")]
        dag = PlanDAG.from_iom(IntermediateOperationMatrix(rows))
        assert dag.topological_order() == (1, 2, 3)

    def test_cycle_detected(self):
        select_on_self = MatrixRow(
            result=ResultOperand(1),
            op=Operation.SELECT,
            lhr=ResultOperand(2),
            lha="A",
            theta=Theta.EQ,
            rha=Literal("x"),
            el="PQP",
        )
        other = MatrixRow(
            result=ResultOperand(2),
            op=Operation.SELECT,
            lhr=ResultOperand(1),
            lha="A",
            theta=Theta.EQ,
            rha=Literal("x"),
            el="PQP",
        )
        iom = IntermediateOperationMatrix([select_on_self, other])
        with pytest.raises(ExecutionError, match="cycle"):
            PlanDAG.from_iom(iom)
