"""Backend benchmark: SQL pushdown vs ship-and-filter on a real SQLite file.

The capability contract exists so the optimizer can route work *into* a
backend instead of dragging the backend's rows out.  This bench measures
that routing on the worst honest case: a 100k-row relation in a real
SQLite file (stdlib ``sqlite3`` only) queried with a ~1% selectivity
selection.

* **ship-and-filter** is the plan a planner without local routing emits:
  ``Retrieve EVENTS`` shipped whole over the LQP boundary, the selection
  applied at the PQP.
* **pushdown** is the same plan after the optimizer's capability-driven
  rewrite: the selection compiles to a ``WHERE`` clause and runs inside
  the engine, so only the matching tuples cross the boundary.

Asserted in-test: ``tuple_reduction`` (shipped-tuple ratio, a
correctness-of-routing floor) and ``speedup`` at least 2x each, and the
pushdown run inside an absolute 1 s wall-clock budget.

Correctness is asserted before any ratio is reported: both plans must
return the identical relation.
"""

import time

from repro.backends import SqliteLQP
from repro.catalog.schema import PolygenSchema
from repro.catalog.scheme import AttributeMapping, PolygenScheme
from repro.core.predicate import Literal, Theta
from repro.lqp.registry import LQPRegistry
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.processor import PolygenQueryProcessor
from repro.relational.schema import RelationSchema

#: Relation size and selection selectivity (1 in HOT_EVERY rows match).
ROWS = 100_000
HOT_EVERY = 100


def _event_rows():
    for i in range(ROWS):
        category = "hot" if i % HOT_EVERY == 0 else f"cold-{i % 37}"
        yield (f"E{i:06d}", category, i * 7 % 1000)


def _sqlite_store(path: str) -> SqliteLQP:
    store = SqliteLQP(path, database="BD")
    store.load(
        RelationSchema("EVENTS", ["EID#", "CAT", "VAL"], key=["EID#"]),
        _event_rows(),
    )
    return store


def _schema() -> PolygenSchema:
    return PolygenSchema(
        [
            PolygenScheme(
                "PEVENTS",
                {
                    "EID#": [AttributeMapping("BD", "EVENTS", "EID#")],
                    "CAT": [AttributeMapping("BD", "EVENTS", "CAT")],
                    "VAL": [AttributeMapping("BD", "EVENTS", "VAL")],
                },
                primary_key=["EID#"],
            )
        ]
    )


def _naive_plan() -> IntermediateOperationMatrix:
    """Retrieve shipped whole, selection at the PQP — no local routing."""
    return IntermediateOperationMatrix(
        [
            MatrixRow(
                ResultOperand(1),
                Operation.RETRIEVE,
                LocalOperand("EVENTS"),
                el="BD",
                scheme="PEVENTS",
            ),
            MatrixRow(
                ResultOperand(2),
                Operation.SELECT,
                ResultOperand(1),
                "CAT",
                Theta.EQ,
                Literal("hot"),
                el="PQP",
            ),
        ]
    )


def _processor(store: SqliteLQP) -> PolygenQueryProcessor:
    registry = LQPRegistry()
    registry.register(store)
    return PolygenQueryProcessor(_schema(), registry)


def test_sql_pushdown_beats_ship_and_filter(tmp_path):
    """Pushing the selection into SQLite must ship >= 2x fewer tuples than
    retrieving the relation whole (the real ratio is ~100x at 1%
    selectivity) and win on wall clock."""
    store = _sqlite_store(str(tmp_path / "events.db"))
    try:
        shipped = _processor(store)
        began = time.perf_counter()
        naive = shipped.run_plan(_naive_plan())
        ship_all_s = time.perf_counter() - began
        naive_shipped = shipped.registry.total_stats().tuples_shipped

        pushed = _processor(store)
        optimized, report = pushed.optimize(_naive_plan())
        began = time.perf_counter()
        local = pushed.run_plan(optimized)
        pushdown_s = time.perf_counter() - began
        pushed_shipped = pushed.registry.total_stats().tuples_shipped
    finally:
        store.close()

    # A saving over a wrong answer is worthless.
    assert local.relation == naive.relation
    assert local.relation.cardinality == ROWS // HOT_EVERY

    # The optimizer really routed the selection into the engine.
    assert report.selects_pushed_down == 1
    first = optimized[0]
    assert first.op is Operation.SELECT and first.el == "BD"

    tuple_reduction = naive_shipped / pushed_shipped
    speedup = ship_all_s / pushdown_s
    assert naive_shipped == ROWS
    assert pushed_shipped == ROWS // HOT_EVERY
    assert tuple_reduction >= 2.0
    assert speedup >= 2.0
    assert pushdown_s <= 1.0
