"""The IOM executor: evaluates a query execution plan (paper, §IV).

Rows whose execution location names a local database are shipped to that
database's LQP (Retrieve, or a single-comparison Select) and the returned
data is *materialized* — domain-mapped, identity-resolved, renamed to
polygen attributes and tagged ``({LD}, {})`` per cell.  Rows located at the
PQP evaluate the polygen algebra over earlier results.

Execution is columnar end-to-end: materialization produces a
:class:`~repro.storage.columnar.ColumnarRelation`-backed relation with one
interned tag id shared by every data cell, each PQP row runs a batch kernel
(:mod:`repro.storage.kernels`) over the columns of earlier results, and the
intermediate ``R(#)`` relations never materialize a single
:class:`~repro.core.cell.Cell` — the row-of-cells view is built lazily only
if a caller walks the final ``QueryResult`` (display, explain, tests).

Beyond the relations themselves the executor tracks **attribute lineage**:
for every attribute of every intermediate result, the set of polygen
schemes it flowed through.  The provenance explainer uses this to realize
the paper's §IV observation (3) — mapping a tagged cell back to concrete
``(LD, LS, LA)`` columns — without guessing which scheme an attribute
belongs to.

There is **one way to run a row**: :meth:`_PlanRun.run`, on the per-plan
run record that also owns the results, lineages and timings.  What varies
is only *when and where* it is called, and :meth:`Executor.execute` reads
that off the plan's sources:

- a streamable spine (:mod:`repro.pqp.stream`) whose head source ships
  chunks (``retrieve_chunks``/``select_chunks``: a ``polygen://`` server)
  **streams** when the caller consumes chunks — rows flow through the PQP
  stages in the batches the server ships, while later ones are in flight;
- a plan is **pooled** when the executor holds a
  :class:`~repro.pqp.pool.WorkerPool`, one of the plan's local rows sits
  at a source that overlaps
  (:attr:`~repro.lqp.base.LocalQueryProcessor.overlaps`: a socket, a
  sleep) and another local row can run beside it.  The plan DAG
  (:class:`~repro.pqp.plandag.PlanDAG`) is then driven event-driven: a
  local row goes to its database's worker the moment every ``R(#)`` it
  consumes is ready, PQP rows run on the coordinating thread as their
  inputs complete;
- every other plan runs **inline** on the calling thread, row by row in
  :meth:`~repro.pqp.plandag.PlanDAG.topological_order` — in-process
  sources cannot overlap under the interpreter lock, nor can a lone local
  row, and an in-process source hands over its whole relation at once.

Every scheduler leaves the same record behind, so results are
tag-identical whichever ran; the ambient span (the federation's
``execute`` stage) says which with ``scheduler="inline" | "pooled" |
"stream"``.  The pool's owner closes it, never ``execute()``.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Set, Tuple

from repro.catalog.schema import PolygenSchema
from repro.core import algebra, derived
from repro.core.cell import ConflictPolicy
from repro.core.predicate import AttributeRef, Literal
from repro.core.relation import PolygenRelation
from repro.errors import ExecutionError, QueryCancelledError
from repro.integration.domains import TransformRegistry, default_registry
from repro.integration.identity import IdentityResolver
from repro.lqp.base import project_columns
from repro.lqp.registry import LQPRegistry
from repro.lqp.tagging import materialize
from repro.obs.trace import Span, current_span, now
from repro.relational.relation import Relation
from repro.storage.keyed import key_set, unkeyed
from repro.pqp import stream as pqp_stream
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.plandag import PlanDAG
from repro.pqp.pool import WorkerPool

__all__ = ["Executor", "ExecutionTrace", "RowTiming"]

#: attribute name → polygen schemes the attribute flowed through.
Lineage = Dict[str, FrozenSet[str]]


@dataclass(frozen=True)
class RowTiming:
    """Measured wall-clock interval of one plan row.

    ``start``/``finish`` are seconds relative to the moment the executor
    began the plan, so timings of one trace are directly comparable: the
    trace's wall clock, busy time and per-location busy time all derive
    from them.
    """

    start: float
    finish: float
    location: str
    worker: str = ""

    @property
    def duration(self) -> float:
        return self.finish - self.start


@dataclass
class ExecutionTrace:
    """Everything the executor produced for one plan."""

    relation: PolygenRelation
    #: every intermediate result, keyed by R(#) index.
    results: Dict[int, PolygenRelation]
    #: attribute lineage of the final relation.
    lineage: Lineage
    #: measured per-row wall-clock timings, keyed by R(#) index.
    timings: Dict[int, RowTiming] = field(default_factory=dict)
    #: attribute lineage of every intermediate result, keyed by R(#) index
    #: (the result cache stores each subtree's lineage alongside its rows).
    lineages: Dict[int, Lineage] = field(default_factory=dict)
    #: the query's full span tree (:mod:`repro.obs.trace`) — coordinator
    #: stages, per-row spans, and any server-side spans stitched in over
    #: the wire.  Populated when the query ran under a trace (the
    #: federation always starts one); empty for bare executor calls.
    spans: List[Span] = field(default_factory=list)

    def result(self, index: int) -> PolygenRelation:
        try:
            return self.results[index]
        except KeyError:
            raise ExecutionError(f"no result R({index}) in this trace") from None

    @property
    def wall_clock(self) -> float:
        """Measured makespan: latest finish over all rows (0 if untimed)."""
        if not self.timings:
            return 0.0
        return max(timing.finish for timing in self.timings.values())

    @property
    def busy_time(self) -> float:
        """Summed per-row durations — the measured analogue of serial cost."""
        return sum(timing.duration for timing in self.timings.values())

    def busy_by_location(self) -> Dict[str, float]:
        """Measured busy seconds per execution location (LQP name or
        ``"PQP"``) — the per-resource breakdown the federation's
        utilization stats aggregate across queries."""
        busy: Dict[str, float] = {}
        for timing in self.timings.values():
            busy[timing.location] = busy.get(timing.location, 0.0) + timing.duration
        return busy


class _PlanRun:
    """One plan's execution: the record every scheduler fills, and the
    single place a row is run.

    :meth:`run` checks cancellation, opens the ``row R(#)`` span and makes
    it ambient, evaluates the row, wraps a foreign failure as an
    :class:`~repro.errors.ExecutionError` naming the row, closes the span,
    builds the :class:`RowTiming`, stores the result and fires
    ``on_result`` on the final row.  :meth:`stream` does the same for a
    whole spine under one ``stream R(#)`` span.  Pool workers call
    :meth:`run` concurrently; each writes only its own row's keys (single
    dict stores, atomic under the interpreter lock), and a consumer reads
    ``R(#)`` only after the scheduler has seen that row complete.
    """

    def __init__(
        self,
        executor: Executor,
        iom: IntermediateOperationMatrix,
        cancel: threading.Event | None,
        on_result: Optional[Callable[[PolygenRelation], None]],
    ):
        if not len(iom):
            raise ExecutionError("cannot execute an empty operation matrix")
        self._executor = executor
        self.results: Dict[int, PolygenRelation] = {}
        self.lineages: Dict[int, Lineage] = {}
        self.timings: Dict[int, RowTiming] = {}
        self._final = iom[-1].result.index
        self._cancel = cancel
        self._on_result = on_result
        #: Set by a scheduler that gave the plan up, so this plan's jobs
        #: still queued on a *shared* pool degrade to no-ops instead of
        #: issuing pointless LQP traffic.
        self.halted = False
        # Row spans hang off the ambient span (the federation's execute
        # stage), captured here because pool workers cannot see the
        # coordinator's contextvar.  With no ambient span — a bare
        # executor — a row is timed by two plain clock reads; with one,
        # the span's own start/finish *are* the timing, so the plan's
        # origin is read off the span clock.
        self._parent = current_span()
        self._origin = time.perf_counter() if self._parent is None else now()

    def scheduled(self, scheduler: str) -> None:
        """Name the scheduler running this plan (``"inline"``,
        ``"pooled"`` or ``"stream"``) on the ambient span, so a trace shows
        which one ran it."""
        if self._parent is not None:
            self._parent.set(scheduler=scheduler)

    def check_cancel(self) -> None:
        if self.halted or (self._cancel is not None and self._cancel.is_set()):
            raise QueryCancelledError("query cancelled")

    def run(self, row: MatrixRow, worker: str) -> None:
        """Execute one row, recording it under ``worker``'s label."""
        relation, start, finish = self._spanned(
            f"row {row.result}", row, self._evaluate, row
        )
        self.timings[row.result.index] = RowTiming(
            start=start, finish=finish, location=row.el or "PQP", worker=worker
        )
        if row.result.index == self._final and self._on_result is not None:
            self._on_result(relation)

    def stream(
        self,
        chain: Sequence[MatrixRow],
        opener: Callable[..., Iterator],
        on_chunk: Callable[[PolygenRelation], None],
    ) -> None:
        """Execute a streamable spine chunk-at-a-time (:mod:`repro.pqp.stream`).

        ``opener`` is the head LQP's ``retrieve_chunks``/``select_chunks``;
        its chunks flow through the PQP stages as they arrive.  The record
        ends up byte-identical to whole-relation execution: same
        intermediate results, tags, lineages; only the timings differ.  One
        span covers the whole pipelined spine (rows overlap in a stream, so
        per-row spans would all be the same interval; chunk arrivals land on
        it as capped events).  For the same reason the rows share the
        interval instead of each claiming it: a PQP row is charged what its
        stage clocked, the head row the rest, laid end to end — so busy time
        never exceeds the stream's wall clock.
        """
        head = chain[0]
        executor = self._executor
        _, scheme, columns = executor._source(head)
        pipeline = pqp_stream.ChunkPipeline(
            chain, lambda chunk: executor._materialize(head, scheme, chunk)
        )
        chunks = executor._chunks(head, opener, columns, self._cancel)
        relation, start, finish = self._spanned(
            f"stream {head.result}",
            head,
            self._pump,
            chain,
            pipeline,
            chunks,
            on_chunk,
            rows=len(chain),
        )
        spent = pipeline.stage_seconds()
        spent[0] = finish - start - sum(spent[1:])
        for row, seconds in zip(chain, spent):
            self.timings[row.result.index] = RowTiming(
                start=start,
                finish=start + seconds,
                location=row.el or "PQP",
                worker="stream",
            )
            start += seconds
        if self._on_result is not None:
            self._on_result(relation)

    def trace(self) -> ExecutionTrace:
        final = self._final
        return ExecutionTrace(
            self.results[final],
            self.results,
            self.lineages[final],
            self.timings,
            lineages=self.lineages,
        )

    # ------------------------------------------------------------------

    def _spanned(self, name: str, row: MatrixRow, body, *args, **attributes):
        """Run ``body(*args)`` under a ``name`` span of the plan's trace
        (when it has one); ``(relation, start, finish)``, the interval in
        seconds since the plan began.  ``row`` labels the span and any
        failure."""
        self.check_cancel()
        span = (
            self._parent.child(
                name, op=row.op.value, location=row.el or "PQP", **attributes
            )
            if self._parent is not None
            else None
        )
        try:
            if span is None:
                start = time.perf_counter()
                relation = body(*args)
                finish = time.perf_counter()
            else:
                with span:  # ambient inside, closed (with the error) on exit
                    relation = body(*args)
                    span.set(tuples=len(relation))
                start, finish = span.start, span.finish
        except ExecutionError:
            raise
        except Exception as exc:
            raise ExecutionError(
                f"row {row.result} ({row.op.value}) failed: {exc}"
            ) from exc
        return relation, start - self._origin, finish - self._origin

    def _evaluate(self, row: MatrixRow) -> PolygenRelation:
        index = row.result.index
        relation, self.lineages[index] = self._executor._execute_row(
            row, self.results, self.lineages
        )
        self.results[index] = relation
        return relation

    def _pump(
        self,
        chain: Sequence[MatrixRow],
        pipeline: pqp_stream.ChunkPipeline,
        chunks: Iterator[Relation],
        on_chunk: Callable[[PolygenRelation], None],
    ) -> PolygenRelation:
        """Drive ``chunks`` through ``pipeline`` and record every spine
        row's result and lineage; the spine's final relation."""
        span = current_span()
        for chunk in chunks:
            self.check_cancel()
            if span is not None:
                span.add_event("chunk", tuples=chunk.cardinality)
            batch = pipeline.push(chunk)
            if batch is not None:
                on_chunk(batch)
        self.check_cancel()
        self.results.update(pipeline.finish())
        inputs: List[Lineage] = []
        for row in chain:
            index = row.result.index
            lineage = _row_lineage(row, self.results[index].attributes, inputs)
            self.lineages[index] = lineage
            inputs = [lineage]
        return self.results[self._final]


class Executor:
    """Evaluates Intermediate Operation Matrices, picking each plan's
    scheduler from its sources (see the module docstring).

    ``execute`` is reentrant: a federation shares one instance across many
    coordinator threads, each call keeping its state on its own stack.
    """

    def __init__(
        self,
        schema: PolygenSchema,
        registry: LQPRegistry,
        resolver: IdentityResolver | None = None,
        transforms: TransformRegistry | None = None,
        policy: ConflictPolicy = ConflictPolicy.DROP,
        tag_pool=None,
        pool: WorkerPool | None = None,
    ):
        """``tag_pool`` scopes materialization's tag interning to a caller-
        owned :class:`~repro.storage.tag_pool.TagPool` (a long-lived
        federation shares one across every session's queries); ``None``
        keeps the process-wide default pool.  ``pool`` is the worker pool
        plans whose local rows can overlap are dispatched into; without
        one every plan that does not stream runs inline."""
        self._schema = schema
        self._registry = registry
        self._resolver = (
            resolver if resolver is not None else IdentityResolver.identity()
        )
        self._transforms = transforms or default_registry()
        self._policy = policy
        self._tag_pool = tag_pool
        self._pool = pool

    @property
    def pool(self) -> Optional[WorkerPool]:
        """The worker pool local rows are dispatched into, if any."""
        return self._pool

    # ------------------------------------------------------------------

    def execute(
        self,
        iom: IntermediateOperationMatrix,
        *,
        cancel: threading.Event | None = None,
        on_result: Optional[Callable[[PolygenRelation], None]] = None,
        on_chunk: Optional[Callable[[PolygenRelation], None]] = None,
    ) -> ExecutionTrace:
        """Evaluate every row in dependency order; the last **listed** row
        is the query result (the matrix convention).

        ``cancel`` aborts cooperatively with
        :class:`~repro.errors.QueryCancelledError` — checked before every
        row, at the head of every queued local job and between streamed
        chunks, so a cancelled plan stops issuing LQP traffic without
        interrupting an in-flight local call.  ``on_result`` fires with the
        final relation the moment the result row completes, before the
        remaining bookkeeping.  ``on_chunk`` opts into streaming: a spine
        whose head source ships chunks fires it with each batch of fresh
        result rows *while the scan is still in flight*; any other plan
        ignores it, and ``on_result`` still delivers.
        """
        run = _PlanRun(self, iom, cancel, on_result)
        chain = pqp_stream.streamable_spine(iom) if on_chunk is not None else None
        opener = None if chain is None else self._chunk_opener(chain[0])
        if opener is not None:
            run.scheduled("stream")
            run.stream(chain, opener, on_chunk)
        elif self._pool is not None and self._pools(iom):
            run.scheduled("pooled")
            self._run_pooled(run, PlanDAG.from_iom(iom), cancel)
        else:
            run.scheduled("inline")
            dag = PlanDAG.from_iom(iom)
            for index in dag.topological_order():
                run.run(dag.row(index), "serial")
        return run.trace()

    def _pools(self, iom: IntermediateOperationMatrix) -> bool:
        """Whether a local row of ``iom`` sits at a source that overlaps
        and the plan has another local row to run beside it."""
        local = [row for row in iom if row.is_local]
        return len(local) > 1 and any(self._registry.get(row.el).overlaps for row in local)

    def _run_pooled(
        self, run: _PlanRun, dag: PlanDAG, cancel: threading.Event | None
    ) -> None:
        """Drive ``dag`` event-driven: local rows on the pool's workers,
        PQP rows here on the coordinator, each the moment its inputs are
        ready."""
        waiting: Dict[int, int] = {
            index: len(set(dag.predecessors(index))) for index in dag.indices
        }
        ready_pqp: deque = deque()
        #: (row, error) — one finished local row, reported by its worker.
        completions: queue.Queue = queue.Queue()

        def run_local(row: MatrixRow) -> None:
            try:
                run.run(row, threading.current_thread().name)
            except BaseException as exc:  # re-raised by the coordinator
                completions.put((row, exc))
            else:
                completions.put((row, None))

        def dispatch(index: int) -> None:
            row = dag.row(index)
            if row.is_local:
                # A RemoteLQP's multiplexer serves that many rows at once.
                width = max(1, self._registry.get(row.el).native_concurrency)
                self._pool.submit(row.el, partial(run_local, row), width=width)
            else:
                ready_pqp.append(row)

        try:
            for index in sorted(dag.roots()):
                dispatch(index)
            pending = len(dag)
            while pending:
                run.check_cancel()
                # Finished local rows first, so freshly unblocked work
                # reaches the (idle) LQP workers before the PQP computes.
                if ready_pqp and completions.empty():
                    row = ready_pqp.popleft()
                    run.run(row, "pqp")
                else:
                    # Take a finished local row; with nothing runnable at
                    # the PQP either, block until an LQP finishes (waking
                    # periodically, when cancellable, so a cancel set from
                    # another thread cannot be missed).
                    try:
                        row, error = completions.get(
                            timeout=0.05 if cancel is not None else None
                        )
                    except queue.Empty:
                        continue
                    if error is not None:
                        raise error
                pending -= 1
                for successor in dict.fromkeys(dag.successors(row.result.index)):
                    waiting[successor] -= 1
                    if waiting[successor] == 0:
                        dispatch(successor)
        except BaseException:
            run.halted = True
            raise

    # ------------------------------------------------------------------

    def _execute_row(
        self,
        row: MatrixRow,
        results: Dict[int, PolygenRelation],
        lineages: Dict[int, Lineage],
    ) -> Tuple[PolygenRelation, Lineage]:
        if row.op is Operation.CACHED:
            if row.cached is None:
                raise ExecutionError(f"Cached row {row.result} carries no payload")
            relation, inputs = row.cached.relation, ()
        elif row.is_local:
            lqp, scheme, columns = self._source(row)
            if row.op is Operation.SELECT_IN:
                shipped = self._select_in(row, lqp, columns, results)
            else:
                shipped = self._ship_local(row, lqp, columns)
            relation, inputs = self._materialize(row, scheme, shipped), ()
        else:
            relation = self._execute_at_pqp(row, results)
            inputs = [lineages[ref.index] for ref in row.referenced_results()]
        return relation, _row_lineage(row, relation.attributes, inputs)

    def _source(self, row: MatrixRow):
        """``(lqp, scheme, columns)`` of a local row: where it runs, the
        polygen scheme it materializes into, the local columns to ship."""
        if not isinstance(row.lhr, LocalOperand):
            raise ExecutionError(
                f"local row {row.result} must name a local relation, got {row.lhr!r}"
            )
        lqp = self._registry.get(row.el)
        scheme = self._schema.scheme(row.scheme)
        return lqp, scheme, self._shipped_columns(lqp, scheme, row)

    def _materialize(self, row: MatrixRow, scheme, shipped: Relation) -> PolygenRelation:
        """Domain-map, identity-resolve, rename and tag what a local row
        shipped (the whole relation, or one chunk of it)."""
        return materialize(
            shipped,
            row.el,
            scheme,
            resolver=self._resolver,
            transforms=self._transforms,
            relation_name=row.lhr.relation,
            attributes=row.project,
            consulted=row.consulted,
            tag_pool=self._tag_pool,
        )

    @staticmethod
    def _ship_local(row: MatrixRow, lqp, columns) -> Relation:
        """Run the head verb at its LQP; the shipped, untagged relation."""
        kwargs = {} if columns is None else {"columns": columns}
        if row.op is Operation.RETRIEVE:
            shipped = lqp.retrieve(row.lhr.relation, **kwargs)
        elif row.op is Operation.SELECT:
            if not isinstance(row.rha, Literal):
                raise ExecutionError(
                    f"local Select {row.result} requires a literal comparand"
                )
            shipped = lqp.select(
                row.lhr.relation, row.lha, row.theta, row.rha.value, **kwargs
            )
        else:
            raise ExecutionError(
                f"operation {row.op.value} cannot execute at LQP {row.el!r}"
            )
        return shipped

    @staticmethod
    def _select_in(
        row: MatrixRow, lqp, columns, results: Dict[int, PolygenRelation]
    ) -> Relation:
        """Run a SelectIn at its LQP.  The key set is attribute ``RHA`` of
        every producer in ``RHR``; its size lands on the row span as
        ``keys=``.  With an ``unkeyed`` comparison, a producer's nil or
        NaN key says some branch row the key set cannot reach may pass
        it, so the LQP's Select fetches those rows too."""
        values: Set[object] = set()
        for ref in row.rhr:
            producer = results[ref.index]
            values.update(producer.store.columns[producer.heading.index(row.rha)])
        keys = key_set(values)
        span = current_span()
        if span is not None:
            span.set(keys=len(keys))
        kwargs = {} if columns is None else {"columns": columns}
        shipped = lqp.select_in(row.lhr.relation, row.lha, keys, **kwargs)
        # Only nil and NaN leave a distinct value out of the key set.
        if row.unkeyed is None or len(keys) == len(values):
            return shipped
        attribute, theta, literal = row.unkeyed
        passing = lqp.select(row.lhr.relation, attribute, theta, literal.value)
        extra = [
            data
            for data, key in zip(passing.rows, passing.column(row.lha))
            if unkeyed(key)
        ]
        extra = project_columns(Relation(passing.heading, extra), shipped.attributes)
        return Relation(shipped.heading, shipped.rows + extra.rows)

    # -- pipelined streaming -------------------------------------------

    def _chunk_opener(self, head: MatrixRow):
        """The head LQP's chunk-stream verb, or ``None`` when the source
        hands over whole relations (duck-typed: wrappers forward the verbs
        exactly when the engine they wrap has them)."""
        name = "retrieve_chunks" if head.op is Operation.RETRIEVE else "select_chunks"
        return getattr(self._registry.get(head.el), name, None)

    @staticmethod
    def _chunks(
        row: MatrixRow, opener: Callable[..., Iterator], columns, cancel
    ) -> Iterator[Relation]:
        """What a spine's head row ships, as the stream of untagged chunks
        its source sends.  Always at least one chunk — an empty scan yields
        an empty one, which is how every stage learns its heading."""
        if row.op is Operation.RETRIEVE:
            operands = ()
        else:
            operands = (row.lha, row.theta, row.rha.value)
        kwargs = {"abort": cancel}
        if columns is not None:
            kwargs["columns"] = columns
        wire_stream = opener(row.lhr.relation, *operands, **kwargs)
        delivered = False
        for wire_chunk in wire_stream:
            yield wire_chunk.relation()
            delivered = True
        if not delivered:
            attributes = wire_stream.attributes
            if not attributes:
                raise ExecutionError(
                    f"row {row.result}: stream ended without a heading"
                )
            yield Relation(attributes)

    @staticmethod
    def _shipped_columns(lqp, scheme, row: MatrixRow):
        """Local columns to request from the source, or ``None`` to ship all.

        Projection pruning (``row.project``) historically narrowed columns
        only at materialization; when the LQP's capabilities advertise
        ``native_projection`` the pruned set travels with the verb call
        instead, so dead columns never cross the wire.  Selection
        predicates are evaluated at the source *before* its projection,
        so the probed columns need not ship.
        """
        if row.project is None or not lqp.capabilities().native_projection:
            return None
        keep = set(row.project)
        columns = [
            local
            for local, polygen in scheme.rename_map(row.el, row.lhr.relation).items()
            if polygen in keep
        ]
        return columns or None

    def _execute_at_pqp(
        self, row: MatrixRow, results: Dict[int, PolygenRelation]
    ) -> PolygenRelation:
        def resolve(operand) -> PolygenRelation:
            if isinstance(operand, ResultOperand):
                return results[operand.index]
            raise ExecutionError(
                f"PQP row {row.result} references unresolved operand {operand!r}"
            )

        op = row.op
        if op is Operation.MERGE:
            if not isinstance(row.lhr, tuple):
                raise ExecutionError(f"Merge row {row.result} needs a tuple of inputs")
            inputs = [resolve(part) for part in row.lhr]
            scheme = self._schema.scheme(row.scheme)
            if not scheme.primary_key:
                raise ExecutionError(
                    f"scheme {scheme.name!r} has no primary key; Merge undefined"
                )
            return derived.merge(inputs, scheme.primary_key, policy=self._policy)

        left = resolve(row.lhr)
        if op is Operation.SELECT:
            return algebra.restrict(left, row.lha, row.theta, row.rha)
        if op is Operation.RESTRICT:
            return algebra.restrict(left, row.lha, row.theta, AttributeRef(row.rha))
        if op is Operation.PROJECT:
            return algebra.project(left, row.lha)
        if op is Operation.COALESCE:
            return algebra.coalesce(
                left, row.lha, row.rha, w=row.output or row.lha, policy=self._policy
            )

        right = resolve(row.rhr)
        if op is Operation.JOIN:
            return derived.join(left, right, row.lha, row.theta, row.rha)
        if op is Operation.UNION:
            return algebra.union(left, _align(right, left))
        if op is Operation.DIFFERENCE:
            return algebra.difference(left, _align(right, left))
        if op is Operation.PRODUCT:
            return algebra.product(left, right)
        if op is Operation.INTERSECT:
            return derived.intersect(left, _align(right, left))
        raise ExecutionError(f"unsupported PQP operation {op.value}")


def _align(right: PolygenRelation, left: PolygenRelation) -> PolygenRelation:
    """Reorder ``right``'s columns to ``left``'s heading when both carry the
    same attribute set — a courtesy for union-compatible operands whose
    retrieval order differed."""
    if right.heading == left.heading:
        return right
    if set(right.attributes) == set(left.attributes):
        return algebra.project(right, left.attributes)
    return right  # let the operator raise its usual compatibility error


def _row_lineage(
    row: MatrixRow, attributes: Sequence[str], inputs: Sequence[Lineage]
) -> Lineage:
    """Attribute lineage of ``row``'s result — a pure function of the row,
    its result's ``attributes`` and its inputs' lineages (operand order),
    so whole-relation and chunk-wise evaluation cannot disagree on it."""
    op = row.op
    if op is Operation.CACHED:
        return dict(row.cached.lineage)
    if row.is_local:
        return {attribute: frozenset({row.scheme}) for attribute in attributes}
    if op is Operation.PROJECT:
        (left,) = inputs
        return {name: left.get(name, frozenset()) for name in row.lha}
    if op is Operation.COALESCE:
        (left,) = inputs
        lineage = {
            name: schemes
            for name, schemes in left.items()
            if name not in (row.lha, row.rha)
        }
        lineage[row.output or row.lha] = left.get(row.lha, frozenset()) | left.get(
            row.rha, frozenset()
        )
        return lineage
    # Select and Restrict pass their input's lineage through; Merge, Union
    # and every binary operator union their inputs', attribute by attribute.
    merged = dict(inputs[0])
    for lineage in inputs[1:]:
        for name, schemes in lineage.items():
            merged[name] = merged.get(name, frozenset()) | schemes
    return merged
