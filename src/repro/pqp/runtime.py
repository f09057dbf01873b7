"""The concurrent federated execution runtime.

The paper's Figure-1 architecture routes local operations to *autonomous*
LQPs — engines that serve requests independently of one another.  In one
Python process that independence pays only where a source's verbs run
outside the interpreter lock (a socket, a sleep): such a source says
:attr:`~repro.lqp.base.LocalQueryProcessor.overlaps`.
:class:`ConcurrentExecutor` therefore chooses a scheduler per plan:

- a plan is *pooled* when **one of its local rows sits at an overlapping
  source and another local row can run beside it** — a remote row's
  socket wait then overlaps the other rows' work, in-process or not.  The
  executor drives the plan DAG (:class:`~repro.pqp.plandag.PlanDAG`)
  event-driven, dispatching a local row to its database's worker the
  moment every ``R(#)`` it consumes is ready, while PQP rows (the polygen
  algebra over earlier results) run on the coordinating thread as their
  inputs complete.  Every database gets
  **one worker thread** (the paper's single-connection assumption: rows
  at the same LQP queue, rows at different LQPs overlap) unless its LQP
  advertises ``native_concurrency > 1`` (a network-multiplexed
  :class:`~repro.net.client.RemoteLQP`), whose worker group widens to that
  many threads over the LQP's single multiplexed connection;
- every other plan runs *inline* on the calling thread, row by row in
  :meth:`~repro.pqp.plandag.PlanDAG.topological_order` (worker
  ``"serial"``) — in-process sources cannot overlap, nor can a lone local
  row, so a hand-off to a pool worker and back would be pure cost;
- a streamable spine with a chunk consumer streams (:mod:`repro.pqp.stream`)
  whatever its sources.

The worker threads live in the :class:`~repro.pqp.pool.WorkerPool` the
executor is given — the one a :class:`~repro.service.federation.
PolygenFederation` shares across every query — so its long-lived workers
survive across queries, many plans execute at once with zero thread churn,
and same-database rows of *different* queries queue on that database's
single connection.  A federation whose sources are all in-process never
starts a worker.  The pool's owner closes it, never ``execute()``.

Results are bit-for-bit the serial executor's — same relations, same tags,
same lineage — because every scheduler runs each row through the one run
record (:class:`~repro.pqp.executor._PlanRun`); this module only decides
when and on which thread, so only the wall-clock interleaving differs.  The
returned :class:`~repro.pqp.executor.ExecutionTrace` carries measured
per-row timings: its ``wall_clock`` against its ``busy_time`` is the
overlap the runtime actually achieved.  The ambient span (the
federation's ``execute`` stage) gets ``scheduler="inline" | "pooled" |
"stream"``.

Two keyword hooks support the service layer's handles and cursors:
``cancel`` (a :class:`threading.Event`) aborts cooperatively — checked
before every row and at the head of every queued local job, so a
cancelled plan stops issuing LQP traffic without interrupting an in-flight
local call — and ``on_result`` fires with the final relation the instant
the plan's result row completes, before the remaining bookkeeping, which
is what lets a streaming cursor hand out rows while the trace is still
being assembled.
"""

from __future__ import annotations

import queue
import threading
from collections import deque
from functools import partial
from typing import Callable, Dict

from repro.core.relation import PolygenRelation
from repro.pqp import stream as pqp_stream
from repro.pqp.executor import ExecutionTrace, Executor, _PlanRun
from repro.pqp.matrix import IntermediateOperationMatrix, MatrixRow
from repro.pqp.plandag import PlanDAG
from repro.pqp.pool import WorkerPool

__all__ = ["ConcurrentExecutor"]


class ConcurrentExecutor(Executor):
    """DAG-driven executor dispatching local rows to per-database workers
    when one of them can overlap another, and running the plan inline
    otherwise.

    Drop-in for :class:`~repro.pqp.executor.Executor`: same constructor
    (plus the required worker ``pool``), same ``execute(iom) ->
    ExecutionTrace`` contract, tag-identical results.  Unlike the serial
    executor it evaluates rows in DAG order under either scheduler, so a
    plan whose rows are listed out of dependency order still runs — but
    the *query result* remains the last **listed** row in either engine
    (the matrix convention), so list the result row last.

    ``execute`` is reentrant: a federation shares one instance across many
    coordinator threads, each call keeping its state on its own stack.
    """

    def __init__(self, *args, pool: WorkerPool, **kwargs):
        super().__init__(*args, **kwargs)
        self._pool = pool

    @property
    def pool(self) -> WorkerPool:
        """The worker pool local rows are dispatched into."""
        return self._pool

    def _width(self, row: MatrixRow) -> int:
        """How many pool workers a local row's database should have.  An
        in-process LQP stays at the paper's single connection (width 1); a
        RemoteLQP advertises its multiplexer's concurrency and gets that
        many, so same-database rows overlap in flight."""
        return max(1, self._registry.get(row.el).native_concurrency)

    def _pools(self, iom: IntermediateOperationMatrix) -> bool:
        """Whether a local row of ``iom`` sits at a source that overlaps
        (:attr:`~repro.lqp.base.LocalQueryProcessor.overlaps`) and the plan
        has another local row to run beside it."""
        local = [row for row in iom if row.is_local]
        return len(local) > 1 and any(self._registry.get(row.el).overlaps for row in local)

    def execute(
        self,
        iom: IntermediateOperationMatrix,
        *,
        cancel: threading.Event | None = None,
        on_result: Callable[[PolygenRelation], None] | None = None,
        on_chunk: Callable[[PolygenRelation], None] | None = None,
        stream_chunk_size: int | None = None,
    ) -> ExecutionTrace:
        run = _PlanRun(self, iom, cancel, on_result)
        chain = pqp_stream.streamable_spine(iom) if on_chunk is not None else None
        if chain is not None:
            # A streamable spine is a linear chain — it has no parallelism
            # for the DAG scheduler to exploit, so pipelined chunk flow
            # (first rows before the scan completes) strictly wins.
            run.scheduled("stream")
            run.stream(chain, "stream", on_chunk, stream_chunk_size)
        elif not self._pools(iom):
            # In-process sources cannot overlap under the interpreter lock,
            # nor can a lone local row, so a hand-off to a pool worker and
            # back buys nothing: run the rows here, in dependency order, as
            # the DAG loop would.
            run.scheduled("inline")
            dag = PlanDAG.from_iom(iom)
            for index in dag.topological_order():
                run.run(dag.row(index), "serial")
        else:
            run.scheduled("pooled")
            self._run_pooled(run, PlanDAG.from_iom(iom), cancel)
        return run.trace()

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
                self._pool.submit(
                    row.el, partial(run_local, row), width=self._width(row)
                )
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
