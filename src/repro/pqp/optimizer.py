"""The Query Optimizer (paper, §III).

"Finally, the Query Optimizer examines the Intermediate Operation Matrix
and generates a query execution plan.  Details of the Query Optimizer is
also beyond the scope of this paper."  The paper's example simply executes
Table 3 as-is ("without further optimization").

We implement the safe, plan-level rewrites a PQP wants in practice — each
preserves the result relation *including its tags*:

- **retrieve deduplication** — identical ``(Retrieve, LS, LD, scheme)``
  rows collapse to one LQP round-trip (self-joins and repeated scheme
  references otherwise re-ship whole relations),
- **merge deduplication** — Merge rows over the same input set and scheme
  collapse likewise,
- **selection pushdown** — a PQP single-comparison selection that is the
  *sole* consumer of a lone Retrieve becomes an LQP ``Select``, so the
  restriction runs inside the autonomous database and only matching tuples
  are shipped (the orphaned Retrieve is then pruned; a shared Retrieve is
  left alone, since pushing would add a round-trip instead of saving one).
  Pushdown is proven safe per-site: the probed polygen attribute must map
  to exactly one local column there, that column must declare no domain
  transform, and the comparison must survive raw-value evaluation under
  the federation's identity resolver (equality needs an unaliased literal;
  ordering needs a fully-identity resolver),
- **through-merge selection replication** — a primary-key selection over a
  Merge is replicated into every Merge branch (key groups survive or die
  atomically, so the result — tags included — is unchanged); the per-branch
  copies then qualify for LQP pushdown above, so the filter can travel from
  above the Merge all the way into each autonomous database,
- **projection pruning** — attributes no downstream row ever consumes are
  dropped at materialization, so dead columns are never transformed,
  resolved or tagged.  Demand is propagated conservatively through the
  plan DAG: Merge and the set operators demand every attribute of their
  inputs (their conflict/compatibility semantics see all columns), joins
  over-demand both sides,
- **dead-row pruning** — rows whose results are never consumed (a
  by-product of deduplication and pushdown) are dropped and the plan
  renumbered.

All rewrites are idempotent and compose; :class:`OptimizationReport`
records what changed so benchmarks can quantify the effect.  The two new
rewrites need schema knowledge: a :class:`QueryOptimizer` built without a
``schema`` (the historical constructor) performs only the dedup/prune
rewrites.

Beyond the unconditional rewrites, :meth:`QueryOptimizer.optimize_cost_based`
is the *cost-based* mode: instead of assuming every rewrite always helps,
it enumerates alternative plan shapes (rewrites on/off, n-ary Merges
decomposed into availability-ordered binary chains), scores each by
simulated makespan under per-LQP cost models — calibrated from observed
executions when the federation has them
(:class:`~repro.pqp.calibrate.CostCalibrator`) — and returns the cheapest.
Every candidate is built from the same tag-preserving rewrites, so the
choice changes *when* work happens, never what the query answers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.catalog.schema import PolygenSchema
from repro.core.predicate import Literal, Theta
from repro.integration.identity import IdentityResolver
from repro.lqp.cost import CostModel
from repro.lqp.registry import LQPRegistry
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)

__all__ = ["QueryOptimizer", "OptimizationReport", "ShapeChoice"]

#: Operations whose conservative demand is "every attribute of every input":
#: Merge's conflict detection and the set operators' compatibility/dedup
#: semantics are sensitive to all columns, so nothing may be pruned above
#: them.
_DEMANDS_ALL = (
    Operation.MERGE,
    Operation.UNION,
    Operation.DIFFERENCE,
    Operation.INTERSECT,
    Operation.PRODUCT,
)


@dataclass(frozen=True)
class OptimizationReport:
    """What an optimization run did to a plan."""

    original_rows: int
    optimized_rows: int
    retrieves_deduplicated: int
    merges_deduplicated: int
    rows_pruned: int
    selects_pushed_down: int = 0
    attributes_pruned: int = 0
    selects_pushed_through_merge: int = 0

    @property
    def rows_saved(self) -> int:
        return self.original_rows - self.optimized_rows


@dataclass(frozen=True)
class ShapeChoice:
    """Outcome of a cost-based optimization: which shape won and why.

    Carries the winning shape's rewrite :class:`OptimizationReport` (so the
    explainer and benchmarks read the same counters in either mode) plus
    the simulated evidence — every candidate's name and predicted makespan.
    """

    chosen: str
    predicted_makespan: float
    #: (shape name, simulated makespan), best first.
    considered: Tuple[Tuple[str, float], ...]
    report: OptimizationReport
    #: Whether the winner's Merges were decomposed into binary chains.
    merges_decomposed: bool = False

    @property
    def runner_up_makespan(self) -> Optional[float]:
        if len(self.considered) < 2:
            return None
        return self.considered[1][1]

    def render(self) -> str:
        lines = [
            f"cost-based choice: {self.chosen} "
            f"(predicted makespan {self.predicted_makespan:.4f})"
        ]
        for name, makespan in self.considered:
            marker = "*" if name == self.chosen else " "
            lines.append(f"  {marker} {name:32s} {makespan:.4f}")
        return "\n".join(lines)


class QueryOptimizer:
    """Safe plan rewrites over the Intermediate Operation Matrix.

    ``schema``/``resolver`` describe the federation the plan runs against;
    they gate the semantic rewrites (pushdown, projection pruning).
    ``resolver=None`` is read as "no aliasing" — pass the federation's real
    resolver whenever one exists.  ``prune_projections`` defaults off
    because it narrows *intermediate* relations (the final result is always
    untouched); callers reproducing the paper's printed intermediate tables
    keep it off, throughput-oriented callers switch it on.

    ``registry`` lets the pushdown rewrite consult each target engine's
    :class:`~repro.lqp.base.Capabilities`: a selection is only pushed to a
    database whose LQP reports ``native_select`` — an engine that would
    scan-filter in a Python loop anyway (a log store) gains nothing, and
    the PQP evaluates the same predicate with better batching.  Without a
    registry — or for databases not registered in it — the historical
    behavior stands: every safe selection is pushed.
    """

    def __init__(
        self,
        schema: Optional[PolygenSchema] = None,
        resolver: Optional[IdentityResolver] = None,
        pushdown: bool = True,
        prune_projections: bool = False,
        registry: Optional[LQPRegistry] = None,
    ):
        self._schema = schema
        self._resolver = (
            resolver if resolver is not None else IdentityResolver.identity()
        )
        self._pushdown = pushdown
        self._prune_projections = prune_projections
        self._registry = registry

    def optimize(
        self, iom: IntermediateOperationMatrix
    ) -> Tuple[IntermediateOperationMatrix, OptimizationReport]:
        """Apply all rewrites; returns the new plan and a report."""
        return self._apply(iom, self._pushdown, self._prune_projections)

    def _apply(
        self,
        iom: IntermediateOperationMatrix,
        pushdown: bool,
        prune_projections: bool,
    ) -> Tuple[IntermediateOperationMatrix, OptimizationReport]:
        """The rewrite pipeline under explicit gates (the cost-based mode
        runs it several times with different gates to build candidates)."""
        rows = list(iom.rows)
        rows, retrieves = self._dedupe(rows, self._retrieve_key)
        rows, merges = self._dedupe(rows, self._merge_key)
        # Through-merge replication runs first so the per-branch selections
        # it creates are then candidates for LQP pushdown below.
        rows, through = self._push_through_merges(rows, pushdown)
        rows, pushed = self._push_selections(rows, pushdown)
        rows, pruned = self._prune(rows)
        rows, attributes = self._prune_materializations(rows, prune_projections)
        optimized = IntermediateOperationMatrix(rows)
        report = OptimizationReport(
            original_rows=len(iom),
            optimized_rows=len(optimized),
            retrieves_deduplicated=retrieves,
            merges_deduplicated=merges,
            rows_pruned=pruned,
            selects_pushed_down=pushed,
            attributes_pruned=attributes,
            selects_pushed_through_merge=through,
        )
        return optimized, report

    def optimize_cost_based(
        self,
        iom: IntermediateOperationMatrix,
        local_costs: Optional[Dict[str, CostModel]] = None,
        default_cost: CostModel = CostModel(per_query=1.0, per_tuple=0.01),
        pqp_cost_per_tuple: float = 0.002,
        registry: Optional[LQPRegistry] = None,
    ) -> Tuple[IntermediateOperationMatrix, ShapeChoice]:
        """Pick the cheapest plan shape by simulated makespan.

        Candidates are the rewrite pipeline's meaningful gate combinations
        (dedup only; + pushdown; + projection pruning, when this optimizer
        has the schema for them) and, via
        :func:`repro.pqp.schedule.rank_plan_shapes`, each candidate's
        Merge-chain decomposition ordered by predicted source finish times.
        ``local_costs`` is where calibration plugs in: pass
        :meth:`repro.pqp.calibrate.CostCalibrator.local_costs` and the
        ranking reflects how the federation's sources *measured*, not how
        the static defaults guess.  Every candidate produces tag-identical
        results (property-tested), so only timing is at stake.
        """
        from repro.pqp.schedule import rank_plan_shapes

        candidates: List[Tuple[str, IntermediateOperationMatrix]] = []

        def add(name: str, pushdown: bool, prune: bool) -> None:
            shaped, report = self._apply(iom, pushdown, prune)
            candidates.append((name, shaped))
            reports[name] = report

        reports: Dict[str, OptimizationReport] = {}
        add("dedup", pushdown=False, prune=False)
        if self._schema is not None:
            if self._pushdown:
                add("pushdown", pushdown=True, prune=False)
                add("pushdown+prune", pushdown=True, prune=True)
            else:
                add("prune", pushdown=False, prune=True)
        ranked = rank_plan_shapes(
            candidates,
            local_costs=local_costs,
            default_cost=default_cost,
            pqp_cost_per_tuple=pqp_cost_per_tuple,
            registry=registry,
        )
        winner = ranked[0]
        base_name = winner.name.removesuffix("+merge-chain")
        choice = ShapeChoice(
            chosen=winner.name,
            predicted_makespan=winner.makespan,
            considered=tuple((shape.name, shape.makespan) for shape in ranked),
            report=reports[base_name],
            merges_decomposed=winner.name.endswith("+merge-chain"),
        )
        return winner.iom, choice

    # -- keys ------------------------------------------------------------------

    @staticmethod
    def _retrieve_key(row: MatrixRow):
        if row.op is Operation.RETRIEVE and isinstance(row.lhr, LocalOperand):
            return (row.lhr.relation, row.el, row.scheme, row.project)
        return None

    @staticmethod
    def _merge_key(row: MatrixRow):
        if row.op is Operation.MERGE and isinstance(row.lhr, tuple):
            return (frozenset(part.index for part in row.lhr), row.scheme)
        return None

    # -- rewrites -----------------------------------------------------------------

    @staticmethod
    def _dedupe(rows: List[MatrixRow], key_fn) -> Tuple[List[MatrixRow], int]:
        """Redirect duplicate rows' consumers to the first occurrence.

        Duplicates stay in place (pruning removes them) so R(#) numbering is
        only rewritten once, in :meth:`_prune`.
        """
        seen: Dict[object, int] = {}
        redirect: Dict[int, int] = {}
        deduplicated = 0
        out: List[MatrixRow] = []
        for row in rows:
            row = row.with_remapped_results(redirect)
            key = key_fn(row)
            if key is not None:
                if key in seen:
                    redirect[row.result.index] = seen[key]
                    deduplicated += 1
                    continue
                seen[key] = row.result.index
            out.append(row)
        return out, deduplicated

    @staticmethod
    def _prune(rows: List[MatrixRow]) -> Tuple[List[MatrixRow], int]:
        """Drop rows never consumed (keeping the final row) and renumber."""
        if not rows:
            return rows, 0
        needed = {rows[-1].result.index}
        for row in reversed(rows):
            if row.result.index in needed:
                for ref in row.referenced_results():
                    needed.add(ref.index)
        kept = [row for row in rows if row.result.index in needed]
        pruned = len(rows) - len(kept)
        renumber = {row.result.index: position + 1 for position, row in enumerate(kept)}
        renumbered = [row.with_remapped_results(renumber) for row in kept]
        return renumbered, pruned

    # -- selection pushdown ---------------------------------------------------

    def _push_selections(
        self, rows: List[MatrixRow], pushdown: bool
    ) -> Tuple[List[MatrixRow], int]:
        if self._schema is None or not pushdown:
            return rows, 0
        by_index: Dict[int, MatrixRow] = {row.result.index: row for row in rows}
        consumers: Dict[int, int] = {}
        for row in rows:
            for ref in row.referenced_results():
                consumers[ref.index] = consumers.get(ref.index, 0) + 1
        pushed = 0
        out: List[MatrixRow] = []
        for row in rows:
            replacement = self._pushable(row, by_index, consumers)
            if replacement is not None:
                row = replacement
                by_index[row.result.index] = row
                pushed += 1
            out.append(row)
        return out, pushed

    def _pushable(
        self,
        row: MatrixRow,
        by_index: Dict[int, MatrixRow],
        consumers: Dict[int, int],
    ) -> Optional[MatrixRow]:
        """The local-Select replacement for a pushable PQP selection, or
        ``None`` when any safety condition fails."""
        if (
            row.is_local
            or row.op is not Operation.SELECT
            or not isinstance(row.lhr, ResultOperand)
            or not isinstance(row.rha, Literal)
            or not isinstance(row.lha, str)
            or row.theta is None
        ):
            return None
        producer = by_index.get(row.lhr.index)
        if (
            producer is None
            or producer.op is not Operation.RETRIEVE
            or not producer.is_local
            or not isinstance(producer.lhr, LocalOperand)
            or producer.scheme is None
            or producer.project is not None
        ):
            return None
        if consumers.get(producer.result.index, 0) != 1:
            # Another row also consumes the Retrieve: pushing would ADD a
            # local query (the retrieve must still run), shipping more
            # tuples, not fewer.  Push only when this selection is the sole
            # consumer, so dead-row pruning deletes the Retrieve.
            return None
        if self._registry is not None and producer.el in self._registry:
            # An engine that cannot run the selection natively would
            # scan-filter it in an adapter loop — no tuples saved over
            # the wire that the PQP's own filter wouldn't save.
            if not self._registry.get(producer.el).capabilities().native_select:
                return None
        scheme = self._schema.scheme(producer.scheme)
        if row.lha not in scheme:
            return None
        location = (producer.el, producer.lhr.relation)
        candidates = [
            mapping
            for mapping in scheme.mappings(row.lha)
            if mapping.location == location
        ]
        if len(candidates) != 1 or candidates[0].transform:
            return None
        if row.theta in (Theta.EQ, Theta.NE):
            if not self._resolver.is_unaliased(row.rha.value):
                return None
        elif not self._resolver.is_identity:
            return None
        return replace(
            row,
            op=Operation.SELECT,
            lhr=LocalOperand(producer.lhr.relation),
            lha=candidates[0].attribute,
            el=producer.el,
            scheme=producer.scheme,
            # The PQP-side Restrict would have recorded the probed cells'
            # origin as an intermediate source on every surviving cell;
            # materialization reproduces that.
            consulted=(producer.el,),
        )

    # -- through-merge selection pushdown --------------------------------------

    def _push_through_merges(
        self, rows: List[MatrixRow], pushdown: bool
    ) -> Tuple[List[MatrixRow], int]:
        """Replicate a primary-key selection over a Merge into every branch.

        ``(Merge(b1..bn))[K θ lit]`` becomes ``Merge(b1[K θ lit], ...,
        bn[K θ lit])`` when ``K`` is a key attribute of the Merge's scheme.
        Safe because Merge groups rows by the full key: a group's rows share
        ``K``'s value exactly, so the whole group survives or dies together
        on either side of the Merge (nil and non-comparable keys travel as
        individual rows and face the same θ on the same datum).  Tag-exact
        because a literal selection adds the probed cell's *origins* as
        intermediates — and a key cell's origins are a subset of the
        mediator set Merge stamps on every output cell anyway, whichever
        side of the Merge the selection runs on.

        The payoff is compound: each branch ships and hashes only matching
        tuples, and a replicated selection over a sole-consumer Retrieve is
        then eligible for LQP pushdown (:meth:`_push_selections` runs
        next), moving the filter all the way into the autonomous database.
        """
        if self._schema is None or not pushdown:
            return rows, 0
        by_index: Dict[int, MatrixRow] = {row.result.index: row for row in rows}
        consumers: Dict[int, int] = {}
        for row in rows:
            for ref in row.referenced_results():
                consumers[ref.index] = consumers.get(ref.index, 0) + 1
        #: Merge result index → the selection row to replicate into it.
        planned: Dict[int, MatrixRow] = {}
        for row in rows:
            merge = self._merge_target(row, by_index, consumers)
            if merge is not None and merge.result.index not in planned:
                planned[merge.result.index] = row
        if not planned:
            return rows, 0
        dropped = {
            select.result.index: merge_index
            for merge_index, select in planned.items()
        }
        mapping: Dict[int, int] = {}
        out: List[MatrixRow] = []
        next_index = 1
        for row in rows:
            target = dropped.get(row.result.index)
            if target is not None:
                # The selection vanishes; its consumers read the (already
                # filtered) Merge result.
                mapping[row.result.index] = mapping[target]
                continue
            select = planned.get(row.result.index)
            rewired = row.with_remapped_results(mapping)
            if select is None:
                mapping[row.result.index] = next_index
                out.append(replace(rewired, result=ResultOperand(next_index)))
                next_index += 1
                continue
            parts = []
            for ref in rewired.lhr:
                out.append(
                    replace(select, result=ResultOperand(next_index), lhr=ref)
                )
                parts.append(ResultOperand(next_index))
                next_index += 1
            mapping[row.result.index] = next_index
            out.append(
                replace(rewired, result=ResultOperand(next_index), lhr=tuple(parts))
            )
            next_index += 1
        return out, len(planned)

    def _merge_target(
        self,
        row: MatrixRow,
        by_index: Dict[int, MatrixRow],
        consumers: Dict[int, int],
    ) -> Optional[MatrixRow]:
        """The Merge row whose branches should absorb this selection, or
        ``None`` when any safety condition fails."""
        if (
            row.is_local
            or row.op is not Operation.SELECT
            or not isinstance(row.lhr, ResultOperand)
            or not isinstance(row.rha, Literal)
            or not isinstance(row.lha, str)
            or row.theta is None
        ):
            return None
        producer = by_index.get(row.lhr.index)
        if (
            producer is None
            or producer.op is not Operation.MERGE
            or producer.is_local
            or not isinstance(producer.lhr, tuple)
            or producer.scheme is None
            or producer.scheme not in self._schema
        ):
            return None
        if consumers.get(producer.result.index, 0) != 1:
            # Another row reads the unfiltered Merge: replication would
            # change what it sees.
            return None
        scheme = self._schema.scheme(producer.scheme)
        if row.lha not in scheme.primary_key:
            # Non-key attributes may be coalesced across branches; only key
            # columns are guaranteed group-constant.
            return None
        return producer

    # -- projection pruning ---------------------------------------------------

    def _prune_materializations(
        self, rows: List[MatrixRow], prune_projections: bool
    ) -> Tuple[List[MatrixRow], int]:
        if self._schema is None or not prune_projections or not rows:
            return rows, 0
        demand = self._demanded_attributes(rows)
        pruned_attributes = 0
        out: List[MatrixRow] = []
        for row in rows:
            needed = demand.get(row.result.index, set())
            if (
                row.is_local
                and isinstance(row.lhr, LocalOperand)
                and row.scheme is not None
                and needed is not None
            ):
                scheme = self._schema.scheme(row.scheme)
                mapped = set(
                    scheme.rename_map(row.el, row.lhr.relation).values()
                )
                available = [
                    attribute
                    for attribute in scheme.attributes
                    if attribute in mapped
                    and (row.project is None or attribute in row.project)
                ]
                keep = tuple(a for a in available if a in needed)
                if keep and len(keep) < len(available):
                    pruned_attributes += len(available) - len(keep)
                    row = replace(row, project=keep)
            out.append(row)
        return out, pruned_attributes

    @staticmethod
    def _demanded_attributes(
        rows: List[MatrixRow],
    ) -> Dict[int, Optional[Set[str]]]:
        """Backward demand analysis: which attributes of each ``R(#)`` some
        downstream row could observe.  ``None`` means "all of them"."""
        demand: Dict[int, Optional[Set[str]]] = {rows[-1].result.index: None}

        def require(index: int, attributes: Optional[Set[str]]) -> None:
            current = demand.get(index, set())
            if attributes is None or current is None:
                demand[index] = None
            else:
                demand[index] = current | attributes

        def as_names(value) -> Set[str]:
            if isinstance(value, tuple):
                return {name for name in value if isinstance(name, str)}
            if isinstance(value, str):
                return {value}
            return set()

        for row in reversed(rows):
            refs = row.referenced_results()
            if not refs:
                continue
            observed = demand.get(row.result.index, set())
            if row.op in _DEMANDS_ALL:
                for ref in refs:
                    require(ref.index, None)
            elif row.op is Operation.PROJECT:
                require(refs[0].index, as_names(row.lha))
            elif (
                row.op is Operation.JOIN
                and isinstance(row.lhr, ResultOperand)
                and isinstance(row.rhr, ResultOperand)
            ):
                left = None if observed is None else observed | as_names(row.lha)
                right = None if observed is None else observed | as_names(row.rha)
                require(row.lhr.index, left)
                require(row.rhr.index, right)
            elif row.op is Operation.COALESCE:
                output = row.output or row.lha
                needs = (
                    None
                    if observed is None
                    else (observed - as_names(output)) | as_names(row.lha) | as_names(row.rha)
                )
                require(refs[0].index, needs)
            elif row.op in (Operation.SELECT, Operation.RESTRICT):
                probe = as_names(row.lha)
                if row.op is Operation.RESTRICT:
                    probe |= as_names(row.rha)
                require(refs[0].index, None if observed is None else observed | probe)
            else:  # unknown/extension operations: demand everything
                for ref in refs:
                    require(ref.index, None)
        return demand
