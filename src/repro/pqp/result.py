"""The query result: the answer relation plus every pipeline artifact.

Defined in its own module so both front doors share it — the classic
blocking :class:`~repro.pqp.processor.PolygenQueryProcessor` facade and the
multi-user :class:`~repro.service.federation.PolygenFederation` service —
without either importing the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.expression import Expression
from repro.core.relation import PolygenRelation
from repro.pqp.executor import ExecutionTrace
from repro.pqp.fingerprint import SpliceReport
from repro.pqp.matrix import IntermediateOperationMatrix, PolygenOperationMatrix
from repro.pqp.optimizer import OptimizationReport
from repro.translate.translator import TranslationResult

__all__ = ["QueryResult"]


@dataclass
class QueryResult:
    """The answer to a polygen query plus every pipeline artifact."""

    relation: PolygenRelation
    expression: Optional[Expression]
    pom: Optional[PolygenOperationMatrix]
    iom: IntermediateOperationMatrix
    trace: ExecutionTrace
    sql: Optional[str] = None
    translation: Optional[TranslationResult] = None
    #: What the optimizer's rewrites did (``None`` when ``optimize=False``).
    optimization: Optional[OptimizationReport] = None
    #: Whether the whole answer was served from the semantic result cache
    #: (no executor dispatch at all).
    cache_hit: bool = False
    #: What cached-subtree splicing did to the plan (``None`` unless the
    #: query ran with ``QueryOptions.cache`` enabled and splices happened).
    caching: Optional["SpliceReport"] = None

    @property
    def lineage(self):
        """attribute → polygen schemes it flowed through."""
        return self.trace.lineage

    def render(self) -> str:
        """The result relation in the paper's tagged-table style."""
        from repro.display.render import render_relation

        return render_relation(self.relation)
