"""Prepared plans: each query text is planned once per federation epoch.

The paper's path from query to plan — Syntax Analyzer → POM → Polygen
Operation Interpreter → IOM, and the optimizer after it — reads only the
query and the schema's mapping data; it never reads the data.  So the
federation keeps one bounded memo from query text to its optimized plan:

- **Key:** the query *text* (SQL or algebra), its kind, the plan-shaping
  :class:`~repro.service.options.QueryOptions` fields (``optimize``,
  ``prune_projections``, ``policy``) and the federation's *epoch*.
- **Epoch:** the version counters of the polygen schema
  (:meth:`~repro.catalog.schema.PolygenSchema.add`), the LQP registry
  (:meth:`~repro.lqp.registry.LQPRegistry.register`) and the identity
  resolver (:meth:`~repro.integration.identity.IdentityResolver.add_group`)
  — everything a plan is built from.  A data change
  (``notify_refresh``) is not a plan change and leaves the memo alone;
  the result cache stays the only thing that caches *data*.
- **Not memoized:** expression-tree and pre-built IOM inputs, and
  anything that raised.

Shared plans are values: matrices and their rows are immutable, so the
IOM one caller receives cannot change another caller's hit.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Hashable, Optional, Tuple

from repro.core.cell import ConflictPolicy
from repro.core.expression import Expression
from repro.pqp.fingerprint import PlanFingerprints, fingerprint_plan
from repro.pqp.matrix import IntermediateOperationMatrix, PolygenOperationMatrix
from repro.pqp.optimizer import OptimizationReport
from repro.service.options import QueryOptions
from repro.translate.translator import TranslationResult

__all__ = ["PLAN_MEMO_ENTRIES", "PlanMemo", "PreparedPlan"]

#: How many prepared plans a federation keeps (least recently used out).
PLAN_MEMO_ENTRIES = 512


@dataclass(frozen=True)
class PreparedPlan:
    """Everything the front end derives from one query text."""

    iom: IntermediateOperationMatrix
    policy: ConflictPolicy
    sql: Optional[str] = None
    translation: Optional[TranslationResult] = None
    expression: Optional[Expression] = None
    pom: Optional[PolygenOperationMatrix] = None
    report: Optional[OptimizationReport] = None

    @functools.cached_property
    def fingerprints(self) -> PlanFingerprints:
        """The plan's fingerprints, computed on first use and then shared
        by every hit."""
        return fingerprint_plan(self.iom, self.policy)


class PlanMemo:
    """A bounded, thread-safe LRU map from memo key to :class:`PreparedPlan`."""

    def __init__(self, entries: int = PLAN_MEMO_ENTRIES):
        self._entries = entries
        self._plans: "OrderedDict[Hashable, PreparedPlan]" = OrderedDict()
        self._epoch: Tuple[int, ...] = ()
        self._lock = threading.Lock()

    @staticmethod
    def key(
        text: str, kind: str, options: QueryOptions, epoch: Tuple[int, ...]
    ) -> Hashable:
        """The memo key for ``text`` under ``options``."""
        return (
            epoch,
            text,
            kind,
            options.optimize,
            options.prune_projections,
            options.policy,
        )

    def get(self, key: Hashable) -> Optional[PreparedPlan]:
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
            return plan

    def put(self, key: Hashable, plan: PreparedPlan) -> None:
        """Keep ``plan``.  A newer epoch drops every older plan at once; a
        plan built under an older epoch than the memo's is not kept."""
        epoch = key[0]
        with self._lock:
            if epoch < self._epoch:
                return
            if epoch > self._epoch:
                self._plans.clear()
                self._epoch = epoch
            self._plans[key] = plan
            if len(self._plans) > self._entries:
                self._plans.popitem(last=False)

    def __len__(self) -> int:
        return len(self._plans)
