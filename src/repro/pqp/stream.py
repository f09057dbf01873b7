"""Pipelined chunk streaming through the executor.

The executor normally materializes each shipped relation whole before any
PQP row touches it; over the wire the first result tuple therefore waits
on the *last* chunk.  This module lets a restricted — but common — plan
shape evaluate incrementally instead: chunks flow through the plan as they
arrive, and the service cursor hands out rows while the scan is still in
flight.

**The streamable spine.**  A plan streams when it is one linear chain
(:meth:`~repro.pqp.matrix.IntermediateOperationMatrix.linear_chain`):

- the head is a local ``Retrieve`` or literal ``Select`` (the executor
  streams it only when its LQP ships chunks: ``retrieve_chunks``/
  ``select_chunks``, in the server's ``chunk_size``), and
- every later row is a PQP ``Select``/``Restrict``/``Project`` consuming
  exactly the previous result.

``Merge`` (and every binary operator) stays a barrier: its output is not
prefix-stable under coalesce — a late chunk can rewrite rows already
emitted — so plans containing one fall back to whole-relation execution.

**Why chunk-wise evaluation is exact.**  Along a spine, every cell's tag
is a function of its own nil-ness plus stage constants: materialization
tags data cells ``({LD}, consulted)`` and nils ``({}, consulted)``;
a Restrict's mediator set is the compared cells' origins, and θ rejects
nil operands (:meth:`~repro.core.predicate.Theta.evaluate`), so every
survivor gains the *same* mediators; Project only reorders and merges.
Hence **equal data rows carry equal tag rows at every stage**, duplicate
rows produce duplicate downstream results, and cross-chunk deduplication
by data portion (:func:`repro.storage.kernels.fresh_rows`) reproduces the
whole-relation result — same rows, same order (first appearance), same
interned tags — which is what lets the semantic result cache store a
streamed trace's intermediates interchangeably with an unstreamed one's.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.heading import Heading
from repro.core.predicate import AttributeRef, Literal
from repro.core.relation import PolygenRelation
from repro.errors import ExecutionError
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.relational.relation import Relation
from repro.storage import kernels
from repro.storage.columnar import ColumnarRelation

__all__ = ["streamable_spine", "ChunkPipeline"]

#: PQP operations that are prefix-stable row filters/maps over one input.
_PQP_STREAM_OPS = frozenset(
    {Operation.SELECT, Operation.RESTRICT, Operation.PROJECT}
)


def streamable_spine(
    iom: IntermediateOperationMatrix,
) -> Optional[Tuple[MatrixRow, ...]]:
    """The plan's rows when the whole plan is a streamable spine, else
    ``None`` (see the module docstring for the shape)."""
    chain = iom.linear_chain()
    if chain is None:
        return None
    head = chain[0]
    if not head.is_local:
        return None
    if head.op is Operation.SELECT:
        if not isinstance(head.rha, Literal):
            return None
    elif head.op is not Operation.RETRIEVE:
        return None
    for row in chain[1:]:
        if row.is_local or row.op not in _PQP_STREAM_OPS:
            return None
        if not isinstance(row.lhr, ResultOperand) or row.rhr is not None:
            return None
        if row.op is Operation.SELECT and not isinstance(
            row.rha, (Literal, AttributeRef)
        ):
            return None
    return chain


class _Stage:
    """Accumulated state of one spine row across the stream."""

    __slots__ = ("row", "heading", "seen", "data_rows", "tag_rows", "seconds")

    def __init__(self, row: MatrixRow):
        self.row = row
        self.heading: Optional[Heading] = None
        #: data rows already emitted by this stage (cross-chunk dedup).
        self.seen: Dict[Tuple[Any, ...], None] = {}
        self.data_rows: List[Tuple[Any, ...]] = []
        self.tag_rows: List[Tuple[int, ...]] = []
        #: seconds this stage's kernels and assembly have taken so far.
        self.seconds = 0.0


class ChunkPipeline:
    """Evaluates a spine plan one arriving chunk at a time.

    ``push`` takes one shipped (untagged) chunk, materializes it through
    ``materialize_chunk`` — the executor's usual domain-map / identity /
    rename / tag pipeline, scoped to the head row — runs it through every
    PQP stage with cross-chunk deduplication, and returns the final
    stage's *fresh* rows as a polygen relation (``None`` when the chunk
    contributed nothing new).  ``finish`` assembles the per-stage
    accumulations into the intermediate results an
    :class:`~repro.pqp.executor.ExecutionTrace` carries, byte-identical to
    whole-relation execution of the same plan.  Rows of a stream overlap
    in time, so each PQP stage clocks its own per-chunk work
    (``stage_seconds``) for the executor to charge it, and only it, to
    that row.

    Push at least one chunk before ``finish`` — an *empty* chunk is how
    an empty scan establishes every stage's heading.
    """

    def __init__(
        self,
        chain: Sequence[MatrixRow],
        materialize_chunk: Callable[[Relation], PolygenRelation],
    ):
        self._materialize = materialize_chunk
        self._stages = [_Stage(row) for row in chain]
        self._pool = None
        self._pushes = 0

    def push(self, chunk: Relation) -> Optional[PolygenRelation]:
        """Advance every stage by one chunk; the final stage's new rows."""
        self._pushes += 1
        store = self._materialize(chunk).store
        if self._pool is None:
            self._pool = store.pool
        fresh = kernels.fresh_rows(store, self._stages[0].seen)
        self._accumulate(self._stages[0], fresh)
        mark = time.perf_counter()
        for stage in self._stages[1:]:
            fresh = self._apply(stage, fresh)
            self._accumulate(stage, fresh)
            now = time.perf_counter()
            stage.seconds += now - mark
            mark = now
        if not fresh.cardinality:
            return None
        return PolygenRelation.from_store(fresh)

    def finish(self) -> Dict[int, PolygenRelation]:
        """Every row's accumulated result, keyed by R(#) index."""
        if not self._pushes:
            raise ExecutionError(
                "ChunkPipeline.finish() before any chunk was pushed"
            )
        results: Dict[int, PolygenRelation] = {}
        mark = time.perf_counter()
        for stage in self._stages:
            store = ColumnarRelation.from_row_major(
                stage.heading, stage.data_rows, stage.tag_rows, self._pool
            )
            results[stage.row.result.index] = PolygenRelation.from_store(store)
            now = time.perf_counter()
            stage.seconds += now - mark
            mark = now
        return results

    def stage_seconds(self) -> List[float]:
        """Seconds each row's stage has clocked, in chain order.  The
        head's entry is only its assembly in ``finish``: its scan and
        materialization are whatever the stream's interval has left once
        the PQP stages are taken out."""
        return [stage.seconds for stage in self._stages]

    # ------------------------------------------------------------------

    @staticmethod
    def _apply(stage: _Stage, store: ColumnarRelation) -> ColumnarRelation:
        row = stage.row
        if row.op is Operation.PROJECT:
            attributes = tuple(row.lha)
            positions = store.heading.indices(attributes)
            return kernels.project_chunk(
                store, positions, Heading(attributes), stage.seen
            )
        x_pos = store.heading.index(row.lha)
        if row.op is Operation.RESTRICT:
            y_pos = store.heading.index(row.rha)
            return kernels.restrict_chunk(
                store, x_pos, row.theta, y_pos, None, stage.seen
            )
        rhs = row.rha
        if isinstance(rhs, AttributeRef):
            y_pos = store.heading.index(rhs.name)
            return kernels.restrict_chunk(
                store, x_pos, row.theta, y_pos, None, stage.seen
            )
        return kernels.restrict_chunk(
            store, x_pos, row.theta, None, rhs.value, stage.seen
        )

    @staticmethod
    def _accumulate(stage: _Stage, fresh: ColumnarRelation) -> None:
        if stage.heading is None:
            stage.heading = fresh.heading
        if fresh.cardinality:
            stage.data_rows.extend(fresh.data_rows())
            stage.tag_rows.extend(fresh.tag_rows())
