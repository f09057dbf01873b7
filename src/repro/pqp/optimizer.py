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
- **key-set passing** — over a Merge whose scheme has a one-attribute
  primary key ``K``, a key equijoin ``L ⋈ M`` on ``L.A = M.K`` whose ``L``
  is filtered runs ``L`` first and gives every branch of ``M`` a SelectIn
  keeping only the rows whose ``K`` is in ``π_A(L)``; a non-key equality
  ``σ A = lit`` first
  ships each branch's ``π_K σ`` and then SelectIns every branch on the
  union of those keys.  It is the semijoin program of the classic
  distributed query processors, and safe for the reason replication is:
  a key group reaches the Merge whole or not at all,
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
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

from repro.catalog.schema import PolygenSchema
from repro.core.cell import ConflictPolicy
from repro.core.predicate import Literal, Theta
from repro.integration.identity import IdentityResolver
from repro.lqp.base import Capabilities
from repro.lqp.registry import LQPRegistry
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)

__all__ = ["QueryOptimizer", "OptimizationReport"]

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
    key_sets_passed: int = 0

    @property
    def rows_saved(self) -> int:
        return self.original_rows - self.optimized_rows


def _as_names(value) -> Set[str]:
    """The attribute names a row's LHA/RHA/output column holds."""
    if isinstance(value, tuple):
        return {name for name in value if isinstance(name, str)}
    if isinstance(value, str):
        return {value}
    return set()


def _consumer_counts(rows: List[MatrixRow]) -> Dict[int, int]:
    """R(#) index → how many references the plan's rows make to it."""
    consumers: Dict[int, int] = {}
    for row in rows:
        for ref in row.referenced_results():
            consumers[ref.index] = consumers.get(ref.index, 0) + 1
    return consumers


def _filtered(index: int, by_index: Dict[int, MatrixRow]) -> bool:
    """Whether ``R(index)`` passed a selection on a literal (or a SelectIn)
    on its way.  Case (a) of :meth:`PlanOptimizer._pass_key_sets` fires
    only then; see there for why."""
    row = by_index[index]
    if row.op is Operation.SELECT_IN or (
        row.op is Operation.SELECT and isinstance(row.rha, Literal)
    ):
        return True
    return any(_filtered(ref.index, by_index) for ref in row.referenced_results())


def _topological(rows: List[MatrixRow]) -> List[MatrixRow]:
    """``rows`` renumbered ``R(1)…`` in an order where every row follows
    the rows it consumes: the given order, with a producer moved up to
    just before its first consumer."""
    by_index = {row.result.index: row for row in rows}
    ordered: Dict[int, MatrixRow] = {}

    def place(row: MatrixRow) -> None:
        if row.result.index not in ordered:
            for ref in row.referenced_results():
                place(by_index[ref.index])
            ordered[row.result.index] = row

    for row in rows:
        place(row)
    renumber = {index: position + 1 for position, index in enumerate(ordered)}
    return [row.with_remapped_results(renumber) for row in ordered.values()]


class QueryOptimizer:
    """Safe plan rewrites over the Intermediate Operation Matrix.

    ``schema``/``resolver`` describe the federation the plan runs against;
    they gate the semantic rewrites (pushdown, projection pruning).
    ``resolver=None`` is read as "no aliasing" — pass the federation's real
    resolver whenever one exists.  ``prune_projections`` defaults off
    because it narrows *intermediate* relations (the final result is always
    untouched); callers reproducing the paper's printed intermediate tables
    keep it off, throughput-oriented callers switch it on.

    ``policy`` is the conflict policy the plan's Merges run under: key-set
    passing stays off under ``ERROR``, where a conflict in a key group the
    query never reads must still raise.

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
        prune_projections: bool = False,
        registry: Optional[LQPRegistry] = None,
        policy: ConflictPolicy = ConflictPolicy.DROP,
    ):
        self._schema = schema
        self._resolver = (
            resolver if resolver is not None else IdentityResolver.identity()
        )
        self._prune_projections = prune_projections
        self._registry = registry
        self._policy = policy

    def optimize(
        self, iom: IntermediateOperationMatrix
    ) -> Tuple[IntermediateOperationMatrix, OptimizationReport]:
        """Apply all rewrites; returns the new plan and a report."""
        rows = list(iom.rows)
        rows, retrieves = self._dedupe(rows, self._retrieve_key)
        rows, merges = self._dedupe(rows, self._merge_key)
        # Through-merge replication runs first so the per-branch selections
        # it creates are then candidates for LQP pushdown below.
        rows, through = self._push_through_merges(rows)
        rows, passed = self._pass_key_sets(rows)
        rows, pushed = self._push_selections(rows)
        rows, pruned = self._prune(rows)
        rows, attributes = self._prune_materializations(rows)
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
            key_sets_passed=passed,
        )
        return optimized, report

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

    def _push_selections(self, rows: List[MatrixRow]) -> Tuple[List[MatrixRow], int]:
        if self._schema is None:
            return rows, 0
        by_index: Dict[int, MatrixRow] = {row.result.index: row for row in rows}
        consumers = _consumer_counts(rows)
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
        if not self._capabilities(producer.el).native_select:
            # An engine that cannot run the selection natively would
            # scan-filter it in an adapter loop — no tuples saved over
            # the wire that the PQP's own filter wouldn't save.
            return None
        local = self._sole_mapping(self._schema.scheme(producer.scheme), row.lha, producer)
        if local is None:
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
            lha=local,
            el=producer.el,
            scheme=producer.scheme,
            # The PQP-side Restrict would have recorded the probed cells'
            # origin as an intermediate source on every surviving cell;
            # materialization reproduces that.
            consulted=(producer.el,),
        )

    def _capabilities(self, database: str) -> Capabilities:
        """What ``database``'s engine runs itself.  Without a registry, or
        for an unregistered database, every engine counts as native."""
        if self._registry is None or database not in self._registry:
            return Capabilities(native_select=True, native_projection=True)
        return self._registry.get(database).capabilities()

    @staticmethod
    def _sole_mapping(scheme, attribute: str, retrieve: MatrixRow) -> Optional[str]:
        """The local attribute ``attribute`` maps to at ``retrieve``'s
        relation, or ``None`` unless there is exactly one mapping there and
        it declares no domain transform (so raw local values are the
        polygen values)."""
        if attribute not in scheme:
            return None
        location = (retrieve.el, retrieve.lhr.relation)
        candidates = [
            mapping
            for mapping in scheme.mappings(attribute)
            if mapping.location == location
        ]
        if len(candidates) != 1 or candidates[0].transform:
            return None
        return candidates[0].attribute

    # -- through-merge selection pushdown --------------------------------------

    def _push_through_merges(
        self, rows: List[MatrixRow]
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
        if self._schema is None:
            return rows, 0
        by_index: Dict[int, MatrixRow] = {row.result.index: row for row in rows}
        consumers = _consumer_counts(rows)
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
        ``None`` when any safety condition fails.  Under ``ERROR`` a
        conflict in a key group the query never reads must still raise,
        so every group has to reach the Merge."""
        if (
            self._policy is ConflictPolicy.ERROR
            or row.is_local
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

    # -- key-set passing --------------------------------------------------------

    def _pass_key_sets(self, rows: List[MatrixRow]) -> Tuple[List[MatrixRow], int]:
        """Give every branch of a keyed Merge a SelectIn on the keys that
        can survive the row above it (see the module docstring).

        ``(a)`` For ``L ⋈ M`` on ``L.A = M.K``, where ``L`` passed a
        selection on a literal, each branch Retrieve of ``M`` becomes
        ``SelectIn K ∈ π_A(L)``.  A row of ``M`` whose key is not in
        ``π_A(L)`` — nil and NaN included — joins nothing.  The filter
        on ``L`` is not needed for the answer, and an unfiltered ``L``
        gains too: on the end-to-end benchmark's ``join_equi`` it cut
        shipped tuples from 4,640 to 2,015 and ran 1.2–1.4× faster.  The
        guard is there because that workload's gated ``tuples_per_s``
        counts *shipped* tuples per second, so shipping fewer reads as a
        regression (ROADMAP items 1 and 2).  Delete it once item 2 bases
        that metric on tuples returned.

        ``(b)`` For ``σ A = lit`` over ``M``, each branch first ships
        ``π_K σ A = lit`` (phase 1), and each branch Retrieve becomes a
        SelectIn on the union of those keys (phase 2).  A merged row's
        ``A`` is one of its group's branch values, so it passes only if
        some branch row of its group passes, and that row's key is in the
        union.  A nil- or NaN-keyed row forms a group of its own, so phase
        2 also ships each branch's such rows that pass ``σ`` themselves.

        The Merge, the Join or Restrict, and the tags run as before: a
        SelectIn decides which rows ship, it does not mediate them, and the
        groups that reach the Merge are whole.  The guards are
        :meth:`_pushable`'s on every branch (a native select, and exactly
        one untransformed mapping for ``K`` and ``A``), an identity
        resolver (so raw local keys are the merged keys), and a conflict
        policy other than ``ERROR``.  For ``(b)`` every branch's engine
        must also project natively: phase 1 is to ship keys, and an
        engine that ships the matching rows whole would ship them twice.
        ``θ`` other than ``=`` stays as it is: ``<>`` keeps nearly every
        row, and an ordering can raise on a branch value the Merge would
        have dropped.
        """
        if (
            self._schema is None
            or not self._resolver.is_identity
            or self._policy is ConflictPolicy.ERROR
        ):
            return rows, 0
        by_index: Dict[int, MatrixRow] = {row.result.index: row for row in rows}
        consumers = _consumer_counts(rows)
        fresh = max(by_index) + 1
        #: branch Retrieve index → the SelectIn that replaces it.
        replaced: Dict[int, MatrixRow] = {}
        #: phase-1 rows; the renumbering moves each up to its first consumer.
        phase_one: List[MatrixRow] = []
        passed = 0
        for row in rows:
            plan = self._key_set_plan(row, by_index, consumers)
            if plan is None:
                continue
            passed += 1
            key, branches, joined = plan
            if joined is not None:  # (a): the key set is π_A(L)
                producers, attribute, unkeyed = (joined[0],), joined[1], None
            else:  # (b): phase 1 ships each branch's π_K σ A = lit
                first = len(phase_one)
                for branch, _, local_probe in branches:
                    phase_one.append(
                        replace(
                            branch,
                            result=ResultOperand(fresh),
                            op=Operation.SELECT,
                            lha=local_probe,
                            theta=row.theta,
                            rha=row.rha,
                            consulted=(branch.el,),
                            project=(key,),
                        )
                    )
                    fresh += 1
                producers = tuple(added.result for added in phase_one[first:])
                attribute, unkeyed = key, (row.theta, row.rha)
            for branch, local_key, local_probe in branches:
                replaced[branch.result.index] = replace(
                    branch,
                    op=Operation.SELECT_IN,
                    lha=local_key,
                    rha=attribute,
                    rhr=producers,
                    unkeyed=None if unkeyed is None else (local_probe,) + unkeyed,
                )
        if not passed:
            return rows, 0
        out = [replaced.get(row.result.index, row) for row in rows] + phase_one
        return _topological(out), passed

    def _key_set_plan(
        self,
        row: MatrixRow,
        by_index: Dict[int, MatrixRow],
        consumers: Dict[int, int],
    ):
        """``(K, branches, joined)`` when key-set passing applies to
        ``row``, else ``None``.  ``branches`` are the Merge's
        ``(Retrieve, local K, local A)``; ``joined`` is ``(R(L), A)`` for a
        join and ``None`` for a selection."""
        if (
            row.is_local
            or row.theta is not Theta.EQ
            or not isinstance(row.lhr, ResultOperand)
            or not isinstance(row.lha, str)
        ):
            return None
        if row.op is Operation.SELECT and isinstance(row.rha, Literal):
            merge = by_index.get(row.lhr.index)
            found = self._keyed_branches(merge, row.lha, by_index, consumers)
            return None if found is None else found + (None,)
        if row.op is not Operation.JOIN or not isinstance(row.rhr, ResultOperand):
            return None
        sides = ((row.rhr, row.rha, row.lhr, row.lha), (row.lhr, row.lha, row.rhr, row.rha))
        for merge_ref, merge_attribute, other_ref, other_attribute in sides:
            if not _filtered(other_ref.index, by_index):
                continue
            found = self._keyed_branches(
                by_index.get(merge_ref.index), None, by_index, consumers
            )
            if found is not None and found[0] == merge_attribute:
                return found + ((other_ref, other_attribute),)
        return None

    def _keyed_branches(
        self,
        merge: Optional[MatrixRow],
        probe: Optional[str],
        by_index: Dict[int, MatrixRow],
        consumers: Dict[int, int],
    ):
        """``(K, [(Retrieve, local K, local probe)])`` for a sole-consumer
        Merge of sole-consumer Retrieves at native-select engines whose
        scheme has the one-attribute primary key ``K``; ``None`` when any
        guard fails.  ``probe=None`` probes nothing beyond ``K``; a probe
        is a phase-1 select, which must ship keys only, so its engines
        must also project natively."""
        if (
            merge is None
            or merge.op is not Operation.MERGE
            or merge.is_local
            or not isinstance(merge.lhr, tuple)
            or merge.scheme not in self._schema
            or consumers.get(merge.result.index, 0) != 1
        ):
            return None
        scheme = self._schema.scheme(merge.scheme)
        if len(scheme.primary_key) != 1:
            return None
        (key,) = scheme.primary_key
        branches = []
        for part in merge.lhr:
            branch = by_index.get(part.index)
            if (
                branch is None
                or branch.op is not Operation.RETRIEVE
                or not branch.is_local
                or not isinstance(branch.lhr, LocalOperand)
                or branch.scheme != merge.scheme
                or branch.project is not None
                or consumers.get(part.index, 0) != 1
            ):
                return None
            capabilities = self._capabilities(branch.el)
            if not capabilities.native_select or (
                probe is not None and not capabilities.native_projection
            ):
                return None
            local_key = self._sole_mapping(scheme, key, branch)
            local_probe = local_key if probe is None else self._sole_mapping(scheme, probe, branch)
            if local_key is None or local_probe is None:
                return None
            branches.append((branch, local_key, local_probe))
        return key, branches

    # -- projection pruning ---------------------------------------------------

    def _prune_materializations(
        self, rows: List[MatrixRow]
    ) -> Tuple[List[MatrixRow], int]:
        if self._schema is None or not self._prune_projections or not rows:
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

        for row in reversed(rows):
            refs = row.referenced_results()
            if not refs:
                continue
            observed = demand.get(row.result.index, set())
            if row.op in _DEMANDS_ALL:
                for ref in refs:
                    require(ref.index, None)
            elif row.op is Operation.PROJECT:
                require(refs[0].index, _as_names(row.lha))
            elif (
                row.op is Operation.JOIN
                and isinstance(row.lhr, ResultOperand)
                and isinstance(row.rhr, ResultOperand)
            ):
                left = None if observed is None else observed | _as_names(row.lha)
                right = None if observed is None else observed | _as_names(row.rha)
                require(row.lhr.index, left)
                require(row.rhr.index, right)
            elif row.op is Operation.COALESCE:
                output = row.output or row.lha
                needs = (
                    None
                    if observed is None
                    else (observed - _as_names(output)) | _as_names(row.lha) | _as_names(row.rha)
                )
                require(refs[0].index, needs)
            elif row.op is Operation.SELECT_IN:
                for ref in refs:
                    require(ref.index, {row.rha})
            elif row.op in (Operation.SELECT, Operation.RESTRICT):
                probe = _as_names(row.lha)
                if row.op is Operation.RESTRICT:
                    probe |= _as_names(row.rha)
                require(refs[0].index, None if observed is None else observed | probe)
            else:  # unknown/extension operations: demand everything
                for ref in refs:
                    require(ref.index, None)
        return demand
