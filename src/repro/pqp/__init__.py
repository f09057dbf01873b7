"""The Polygen Query Processor (PQP).

The paper's query-translation pipeline (§III, Figure 2):

1. the **Syntax Analyzer** linearizes a polygen algebraic expression into a
   Polygen Operation Matrix (POM — Table 1),
2. the two-pass **Polygen Operation Interpreter** expands the POM against
   the polygen schema into an Intermediate Operation Matrix (IOM — Tables 2
   and 3; Figures 3 and 4),
3. the **Query Optimizer** rewrites the IOM (the paper leaves its details
   out of scope; ours performs safe, tag-preserving rewrites:
   retrieve/merge deduplication, selection pushdown into LQPs, projection
   pruning at materialization, and dead-row pruning),
4. the **executor** (:class:`~repro.pqp.executor.Executor`) evaluates
   the IOM, routing local rows to LQPs and performing polygen operations
   in the PQP (§IV).  It reads how to run a plan off its sources: a spine
   whose source ships chunks streams, a plan whose local rows can overlap
   goes to per-database worker threads when the executor holds a pool,
   and every other plan runs inline in dependency order.

The shared dependency structure lives in
:class:`~repro.pqp.plandag.PlanDAG`, which the executor drives; measured
per-row timings come back in the
:class:`~repro.pqp.executor.ExecutionTrace`, the one record of how a plan
ran.

:class:`~repro.pqp.processor.PolygenQueryProcessor` is the blocking,
single-user facade over the whole pipeline; its ``concurrent`` flag
gives the executor a worker pool.  The multi-user front door — long-lived
:class:`~repro.service.federation.PolygenFederation`, sessions, query
handles, streaming cursors, a worker pool shared across queries — lives
in :mod:`repro.service`; the facade is now a single-session federation
under the hood.
"""

from repro.pqp.executor import ExecutionTrace, Executor, RowTiming
from repro.pqp.interpreter import PolygenOperationInterpreter
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    PolygenOperationMatrix,
    ResultOperand,
    SchemeOperand,
)
from repro.pqp.optimizer import OptimizationReport, QueryOptimizer
from repro.pqp.plandag import PlanDAG
from repro.pqp.processor import PolygenQueryProcessor
from repro.pqp.result import QueryResult
from repro.pqp.syntax_analyzer import SyntaxAnalyzer

__all__ = [
    "Operation",
    "MatrixRow",
    "SchemeOperand",
    "LocalOperand",
    "ResultOperand",
    "PolygenOperationMatrix",
    "IntermediateOperationMatrix",
    "SyntaxAnalyzer",
    "PolygenOperationInterpreter",
    "QueryOptimizer",
    "OptimizationReport",
    "Executor",
    "ExecutionTrace",
    "RowTiming",
    "PlanDAG",
    "PolygenQueryProcessor",
    "QueryResult",
]
