"""The classic blocking Polygen Query Processor facade.

Wires the whole pipeline of Figure 2 — Syntax Analyzer → Polygen Operation
Interpreter → Query Optimizer → executor — behind three entry points:

- :meth:`PolygenQueryProcessor.run_sql` — a SQL polygen query string,
- :meth:`PolygenQueryProcessor.run_algebra` — a polygen algebraic
  expression (text in the paper's bracket notation, or an expression tree),
- :meth:`PolygenQueryProcessor.run_plan` — a pre-built IOM (used by the
  benchmark harness to execute Table 3 verbatim).

Every run returns a :class:`QueryResult` carrying the result relation and
all intermediate artifacts (expression, POM, IOM, execution trace), so
callers can display any stage of the paper's worked example.

Since the service-API redesign this class is a thin compatibility facade
over a private :class:`~repro.service.federation.PolygenFederation`: the
constructor flags become that federation's default
:class:`~repro.service.options.QueryOptions`, and each ``run_*`` call is
the federation's synchronous :meth:`~repro.service.federation.
PolygenFederation.run` on the calling thread — no coordinator threads are
ever spawned by the facade.  Signature and behaviour are unchanged —
including the serial-by-default engine — with one improvement inherited
from the service layer: a ``concurrent=True`` processor now keeps its
per-database (daemon) worker threads warm across queries instead of
spawning and joining them per ``execute()``.  Multi-user work (concurrent
sessions, future-like handles, streaming cursors, service stats) lives on
:class:`~repro.service.federation.PolygenFederation` directly.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

from repro.catalog.schema import PolygenSchema
from repro.core.cell import ConflictPolicy
from repro.core.expression import Expression
from repro.integration.domains import TransformRegistry
from repro.integration.identity import IdentityResolver
from repro.lqp.registry import LQPRegistry
from repro.pqp.executor import Executor
from repro.pqp.matrix import IntermediateOperationMatrix, PolygenOperationMatrix
from repro.pqp.optimizer import OptimizationReport, QueryOptimizer
from repro.translate.translator import translate_sql

if TYPE_CHECKING:  # pragma: no cover - the service imports this package's
    # submodules, so the runtime imports below stay inside __init__.
    from repro.service.federation import PolygenFederation
    from repro.pqp.result import QueryResult

__all__ = ["PolygenQueryProcessor"]


class PolygenQueryProcessor:
    """The PQP: translate, plan, optimize and execute polygen queries."""

    def __init__(
        self,
        schema: PolygenSchema,
        registry: LQPRegistry,
        resolver: IdentityResolver | None = None,
        transforms: TransformRegistry | None = None,
        policy: ConflictPolicy = ConflictPolicy.DROP,
        optimize: bool = True,
        concurrent: bool = False,
        prune_projections: bool = False,
    ):
        """``concurrent`` selects the execution engine behind the shared
        ``execute(iom) -> ExecutionTrace`` API: the row-by-row serial
        :class:`~repro.pqp.executor.Executor` (default, and what the paper
        describes) or the DAG-driven
        :class:`~repro.pqp.runtime.ConcurrentExecutor` that overlaps
        autonomous LQPs.  ``prune_projections`` gates the optimizer's
        dead-column rewrite; it leaves the final result tag-identical, but
        it narrows intermediate relations, so it defaults off to keep the
        paper's printed intermediate tables reproducible."""
        # Imported here, not at module scope: the service layer imports
        # pqp submodules, and this facade is part of the pqp package.
        from repro.service.federation import PolygenFederation
        from repro.service.options import QueryOptions

        self.schema = schema
        self.registry = registry
        self.concurrent = concurrent
        self._options = QueryOptions(
            engine="concurrent" if concurrent else "serial",
            optimize=optimize,
            prune_projections=prune_projections,
            policy=policy,
        )
        self._federation = PolygenFederation(
            schema,
            registry,
            resolver=resolver,
            transforms=transforms,
            defaults=self._options,
            max_concurrent_queries=1,
        )
        # The historical (private, but poked-at) optimizer slot: assigning
        # ``None`` disables optimization, assigning a QueryOptimizer swaps
        # the rewrite set — run_* stages the pipeline through this slot on
        # the calling thread, exactly as the pre-service facade did.
        self._optimizer: Optional[QueryOptimizer] = (
            self._federation._optimizer_for(self._options) if optimize else None
        )

    @property
    def executor(self) -> Executor:
        """The execution engine (serial or concurrent) behind this PQP."""
        return self._federation.executor_for(self._options)

    @property
    def federation(self) -> PolygenFederation:
        """The private single-session federation this facade fronts."""
        return self._federation

    def close(self) -> None:
        """Release the private federation's worker threads.  Optional —
        the facade itself spawns none, and the concurrent engine's pool
        workers are daemons — but tidy for long-lived processes."""
        self._federation.close()

    def __enter__(self) -> "PolygenQueryProcessor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- pipeline stages (usable piecemeal) ------------------------------------

    def analyze(self, expression: Expression | str) -> Tuple[Expression, PolygenOperationMatrix]:
        """Expression (or bracket-notation text) → POM (paper, Table 1)."""
        return self._federation.analyze(expression)

    def plan(self, pom: PolygenOperationMatrix) -> IntermediateOperationMatrix:
        """POM → IOM via the two-pass interpreter (paper, Tables 2–3)."""
        return self._federation.plan(pom)

    def optimize(
        self, iom: IntermediateOperationMatrix
    ) -> Tuple[IntermediateOperationMatrix, Optional[OptimizationReport]]:
        if self._optimizer is None:
            return iom, None
        return self._optimizer.optimize(iom)

    # -- entry points --------------------------------------------------------------

    def run_sql(self, sql: str) -> QueryResult:
        """Translate and execute a SQL polygen query."""
        translation = translate_sql(sql, self.schema)
        result = self.run_algebra(translation.expression)
        result.sql = sql
        result.translation = translation
        return result

    def run_algebra(self, expression: Expression | str) -> QueryResult:
        """Execute a polygen algebraic expression."""
        tree, pom = self.analyze(expression)
        iom = self.plan(pom)
        iom, report = self.optimize(iom)
        result = self._federation.run(iom, self._options)
        result.expression = tree
        result.pom = pom
        result.optimization = report
        return result

    def run_plan(self, iom: IntermediateOperationMatrix) -> QueryResult:
        """Execute a pre-built IOM without analysis or optimization.

        This is how the benchmark harness evaluates the paper's Table 3
        exactly as printed ("let us assume that Table 3 is used as a query
        execution plan, i.e., without further optimization").
        """
        return self._federation.run(iom, self._options)
