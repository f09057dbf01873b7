"""Runtime benchmark: the optimizer's effect on the paper's Table-3 plan.

The pushdown bench executes the paper's Table-3 plan in its naive form —
``Retrieve ALUMNUS`` shipped whole, selection applied at the PQP, which is
exactly what a planner without local routing emits — and shows the
optimizer's selection pushdown restoring the paper's local ``Select``,
shipping only the matching tuples.  The pruning bench counts the cells
projection pruning keeps out of the columnar store on the paper's query.
Both are counts, asserted in-test, not timings.
"""

from repro.core.predicate import Literal, Theta
from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.processor import PolygenQueryProcessor


def _naive_table3_plan() -> IntermediateOperationMatrix:
    """The paper's Table 3 without its local routing: the first selection
    arrives as Retrieve-then-Restrict, the shape pushdown rewrites."""
    return IntermediateOperationMatrix(
        [
            MatrixRow(ResultOperand(1), Operation.RETRIEVE, LocalOperand("ALUMNUS"), el="AD", scheme="PALUMNUS"),
            MatrixRow(ResultOperand(2), Operation.SELECT, ResultOperand(1), "DEGREE", Theta.EQ, Literal("MBA"), el="PQP"),
            MatrixRow(ResultOperand(3), Operation.RETRIEVE, LocalOperand("CAREER"), el="AD", scheme="PCAREER"),
            MatrixRow(ResultOperand(4), Operation.JOIN, ResultOperand(2), "AID#", Theta.EQ, "AID#", ResultOperand(3), el="PQP"),
            MatrixRow(ResultOperand(5), Operation.RETRIEVE, LocalOperand("BUSINESS"), el="AD", scheme="PORGANIZATION"),
            MatrixRow(ResultOperand(6), Operation.RETRIEVE, LocalOperand("CORPORATION"), el="PD", scheme="PORGANIZATION"),
            MatrixRow(ResultOperand(7), Operation.RETRIEVE, LocalOperand("FIRM"), el="CD", scheme="PORGANIZATION"),
            MatrixRow(ResultOperand(8), Operation.MERGE, (ResultOperand(5), ResultOperand(6), ResultOperand(7)), el="PQP", scheme="PORGANIZATION"),
            MatrixRow(ResultOperand(9), Operation.JOIN, ResultOperand(4), "ONAME", Theta.EQ, "ONAME", ResultOperand(8), el="PQP"),
            MatrixRow(ResultOperand(10), Operation.RESTRICT, ResultOperand(9), "CEO", Theta.EQ, "ANAME", el="PQP"),
            MatrixRow(ResultOperand(11), Operation.PROJECT, ResultOperand(10), ("ONAME", "CEO"), el="PQP"),
        ]
    )


def _paper_processor(**kwargs) -> PolygenQueryProcessor:
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    return PolygenQueryProcessor(
        paper_polygen_schema(),
        registry,
        resolver=paper_identity_resolver(),
        **kwargs,
    )


def test_pushdown_reduces_tuples_shipped_on_table3():
    """Selection pushdown on the paper's Table-3 plan: the ALUMNUS
    restriction runs at AD again, shipping 5 tuples instead of 8."""
    naive_plan = _naive_table3_plan()

    naive_pqp = _paper_processor()
    naive = naive_pqp.run_plan(naive_plan)
    naive_shipped = naive_pqp.registry.total_stats().tuples_shipped

    pushed_pqp = _paper_processor()
    optimized, report = pushed_pqp.optimize(naive_plan)
    pushed = pushed_pqp.run_plan(optimized)
    pushed_shipped = pushed_pqp.registry.total_stats().tuples_shipped

    assert pushed.relation == naive.relation
    assert report.selects_pushed_down == 1
    assert pushed_shipped < naive_shipped
    # The optimized plan is the paper's own Table 3: a local Select at AD.
    first = optimized[0]
    assert first.op is Operation.SELECT and first.el == "AD"


def test_projection_pruning_reduces_cells_materialized():
    """Projection pruning on the paper's query: dead columns (MAJOR,
    DEGREE post-selection, POSITION) never enter the columnar store."""
    from benchmarks.conftest import PAPER_ALGEBRA

    baseline = _paper_processor()
    pruned = _paper_processor(prune_projections=True)
    base_run = baseline.run_algebra(PAPER_ALGEBRA)
    pruned_run = pruned.run_algebra(PAPER_ALGEBRA)
    assert pruned_run.relation == base_run.relation

    def materialized_cells(run):
        return sum(
            run.trace.results[row.result.index].cardinality
            * run.trace.results[row.result.index].degree
            for row in run.iom
            if row.is_local
        )

    base_cells = materialized_cells(base_run)
    pruned_cells = materialized_cells(pruned_run)
    assert pruned_cells < base_cells
