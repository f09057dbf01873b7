"""The plan DAG: dependency structure of an Intermediate Operation Matrix.

Every consumer of a plan's *shape* — the cost simulator
(:mod:`repro.pqp.schedule`), the concurrent runtime
(:mod:`repro.pqp.runtime`), the plan-graph renderer — needs the same three
things: which rows feed which, a dependency-respecting evaluation order,
and the longest cost-weighted chain that bounds any parallel execution.
This module provides them in-house (Kahn's algorithm and a longest-path
sweep), with no third-party graph dependency.

Nodes are the plan's ``R(#)`` indices; an edge ``j → i`` means row ``i``
consumes ``R(j)``.  Construction validates the plan: every reference must
name a row of the matrix and the dependency graph must be acyclic.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from repro.errors import ExecutionError
from repro.pqp.matrix import IntermediateOperationMatrix, MatrixRow

__all__ = ["PlanDAG"]


class PlanDAG:
    """The dataflow DAG of one Intermediate Operation Matrix."""

    def __init__(self, iom: IntermediateOperationMatrix):
        self._rows: Dict[int, MatrixRow] = {}
        self._preds: Dict[int, Tuple[int, ...]] = {}
        self._succs: Dict[int, List[int]] = {}
        for row in iom:
            index = row.result.index
            if index in self._rows:
                raise ExecutionError(f"plan produces R({index}) twice")
            self._rows[index] = row
            self._succs.setdefault(index, [])
        for row in iom:
            index = row.result.index
            refs = []
            for ref in row.referenced_results():
                if ref.index not in self._rows:
                    raise ExecutionError(
                        f"row {row.result} references {ref}, which no row produces"
                    )
                refs.append(ref.index)
                self._succs[ref.index].append(index)
            self._preds[index] = tuple(refs)
        self._order = self._toposort()

    # -- structure -----------------------------------------------------------

    @classmethod
    def from_iom(cls, iom: IntermediateOperationMatrix) -> "PlanDAG":
        """``iom``'s DAG, shared by every caller (see
        :meth:`IntermediateOperationMatrix.dag`)."""
        return iom.dag()

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, index: int) -> bool:
        return index in self._rows

    @property
    def indices(self) -> Tuple[int, ...]:
        """All node indices, in plan order."""
        return tuple(self._rows)

    def row(self, index: int) -> MatrixRow:
        return self._rows[index]

    def predecessors(self, index: int) -> Tuple[int, ...]:
        """The ``R(#)`` indices row ``index`` consumes (with multiplicity)."""
        return self._preds[index]

    def successors(self, index: int) -> Tuple[int, ...]:
        """The rows that consume ``R(index)`` (with multiplicity)."""
        return tuple(self._succs[index])

    def roots(self) -> Tuple[int, ...]:
        """Rows with no inputs — dispatchable immediately."""
        return tuple(i for i in self._rows if not self._preds[i])

    def sinks(self) -> Tuple[int, ...]:
        """Rows nothing consumes (a well-formed plan has exactly one)."""
        return tuple(i for i in self._rows if not self._succs[i])

    # -- orderings -----------------------------------------------------------

    def _toposort(self) -> Tuple[int, ...]:
        """Kahn's algorithm, breaking ties by plan index so the order is
        deterministic and matches the matrix's own numbering where possible."""
        pending = {i: len(set(self._preds[i])) for i in self._rows}
        frontier = sorted(i for i, count in pending.items() if count == 0)
        order: List[int] = []
        while frontier:
            index = frontier.pop(0)
            order.append(index)
            released = []
            for successor in dict.fromkeys(self._succs[index]):
                pending[successor] -= 1
                if pending[successor] == 0:
                    released.append(successor)
            if released:
                frontier = sorted(frontier + released)
        if len(order) != len(self._rows):
            cyclic = sorted(i for i, count in pending.items() if count > 0)
            raise ExecutionError(
                "plan dependency graph has a cycle through rows "
                + ", ".join(f"R({i})" for i in cyclic)
            )
        return tuple(order)

    def topological_order(self) -> Tuple[int, ...]:
        """A dependency-respecting evaluation order (computed once)."""
        return self._order

    # -- critical path ------------------------------------------------------------

    def critical_path(
        self, costs: Mapping[int, float]
    ) -> Tuple[float, Tuple[int, ...]]:
        """The longest cost-weighted dependency chain.

        Returns ``(length, path)`` where ``length`` is the summed node cost
        along the heaviest root→sink chain — the lower bound on any
        schedule's makespan under unlimited parallelism.
        """
        longest: Dict[int, float] = {}
        best_pred: Dict[int, int | None] = {}
        for index in self._order:
            best, pred = 0.0, None
            for predecessor in self._preds[index]:
                if longest[predecessor] >= best:
                    best = longest[predecessor]
                    pred = predecessor
            longest[index] = best + costs.get(index, 0.0)
            best_pred[index] = pred
        if not longest:
            return 0.0, ()
        tail = max(longest, key=longest.__getitem__)
        path: List[int] = []
        cursor: int | None = tail
        while cursor is not None:
            path.append(cursor)
            cursor = best_pred[cursor]
        path.reverse()
        return longest[tail], tuple(path)
