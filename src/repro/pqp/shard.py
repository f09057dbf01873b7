"""Scan sharding: splitting one hot Retrieve into K key-range partial scans.

The paper's parallelism (§V) lives *between* relations — the three Merge
retrieves overlap because they hit different databases.  One large relation
at one source still ships over a single logical scan, so that source bounds
the makespan no matter how wide the federation is.  This pass adds
parallelism *inside* one relation: a local ``Retrieve`` whose LQP can serve
``native_concurrency`` requests at once (a network-multiplexed
:class:`~repro.net.client.RemoteLQP`) is rewritten into

- K ``RetrieveRange`` rows, each scanning one half-open key interval
  ``[lower, upper)`` of a splittable column (numeric, with known extrema —
  see :meth:`~repro.lqp.base.ColumnStats.splittable`), and
- one PQP-side n-ary ``Union`` row reassembling the shards.

Correctness does not depend on the statistics: shard 0's lower bound and
the last shard's upper bound are left open, and exactly one shard (the
first) owns nil and non-comparable key values
(:func:`~repro.lqp.base.key_in_range`), so the family partitions the
relation *exactly* even when the cached extrema are stale.  Reassembly by
``Union`` is tag-exact — the shards are disjoint sub-bags of the same
materialized relation, so concatenation reproduces the unsharded retrieve
cell for cell (property-tested in ``tests/property/test_sharding.py``).

Statistics come from the catalog surface grown for this pass:
:meth:`~repro.lqp.base.LocalQueryProcessor.relation_stats` reports
cardinality and per-column extrema, served over the wire for remote LQPs
and cached by the client.  Cut points assume a uniform key distribution —
good enough, since skew costs only balance, never correctness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple, Union

from repro.catalog.schema import PolygenSchema
from repro.lqp.base import RelationStats
from repro.lqp.registry import LQPRegistry
from repro.pqp.matrix import (
    PQP_LOCATION,
    IntermediateOperationMatrix,
    KeyRange,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)

__all__ = ["ShardReport", "shard_retrieves"]

#: Relations below this cardinality are not worth the extra round trips.
DEFAULT_MIN_TUPLES = 64


@dataclass(frozen=True)
class ShardReport:
    """What :func:`shard_retrieves` did to one plan."""

    #: Local operations (Retrieves and pushed-down Selects) rewritten
    #: into shard families.
    retrieves_sharded: int = 0
    #: Total range rows emitted across all families.
    shards_emitted: int = 0
    #: One ``(database, relation, key attribute, K)`` per family.
    families: Tuple[Tuple[str, str, str, int], ...] = ()

    def render(self) -> str:
        if not self.retrieves_sharded:
            return "sharding: no local operation qualified"
        lines = [
            f"sharding: {self.retrieves_sharded} local operation(s) -> "
            f"{self.shards_emitted} range scans"
        ]
        for database, relation, attribute, k in self.families:
            lines.append(f"  {database}.{relation} on {attribute}, {k} shards")
        return "\n".join(lines)


def _shard_key(
    stats: RelationStats,
    row: MatrixRow,
    schema: Optional[PolygenSchema],
) -> Optional[str]:
    """The local column to partition on: a splittable column, preferring one
    that maps to the polygen scheme's primary key (splitting on the key the
    Merge will hash is the best proxy for an even, index-friendly cut)."""
    splittable = [
        name for name, column in stats.columns.items() if column.splittable
    ]
    if not splittable:
        return None
    if schema is not None and row.scheme in schema and isinstance(row.lhr, LocalOperand):
        scheme = schema.scheme(row.scheme)
        for name in splittable:
            try:
                polygen = scheme.polygen_attribute_for(
                    row.el, row.lhr.relation, name
                )
            except Exception:
                continue
            if polygen in scheme.primary_key:
                return name
    return splittable[0]


def _cut_points(lower: float, upper: float, k: int) -> List[Union[int, float]]:
    """K − 1 interior cut points between the extrema, evenly spaced under a
    uniform-key assumption.  Integer extrema get integer cuts (rounded), and
    duplicate cuts from a narrow domain are dropped — the caller shrinks K.
    """
    integral = isinstance(lower, int) and isinstance(upper, int)
    cuts: List[Union[int, float]] = []
    for i in range(1, k):
        cut = lower + (upper - lower) * i / k
        if integral:
            cut = round(cut)
        if cut <= lower or cut >= upper or (cuts and cut <= cuts[-1]):
            continue
        cuts.append(cut)
    return cuts


def _family_rows(
    row: MatrixRow, attribute: str, cuts: List[Union[int, float]]
) -> List[MatrixRow]:
    """The range rows of one shard family (result indices are placeholders;
    the caller renumbers).  A Retrieve splits into RetrieveRange rows; a
    pushed-down Select keeps its op — the key range rides alongside the
    selection predicate and the executor dispatches ``select_range``.
    Shard 0 is unbounded below and owns nil/non-comparable keys; the last
    shard is unbounded above."""
    k = len(cuts) + 1
    bounds = [None, *cuts, None]
    op = Operation.RETRIEVE_RANGE if row.op is Operation.RETRIEVE else row.op
    shards = []
    for i in range(k):
        shards.append(
            replace(
                row,
                op=op,
                key_range=KeyRange(
                    attribute,
                    lower=bounds[i],
                    upper=bounds[i + 1],
                    include_nil=(i == 0),
                ),
                shard=(i, k),
            )
        )
    return shards


def shard_retrieves(
    iom: IntermediateOperationMatrix,
    registry: LQPRegistry,
    *,
    width: Union[int, str] = "auto",
    schema: Optional[PolygenSchema] = None,
    min_tuples: int = DEFAULT_MIN_TUPLES,
) -> Tuple[IntermediateOperationMatrix, ShardReport]:
    """Rewrite qualifying local Retrieves *and Selects* into key-range
    shard families.

    A row qualifies when it is a local Retrieve or a pushed-down Select
    over a splittable relation: its database is registered, the effective
    width K is ≥ 2 (``width="auto"`` takes the LQP's
    ``native_concurrency``; an integer forces that K), the LQP reports
    :class:`~repro.lqp.base.RelationStats` with cardinality ≥
    ``min_tuples``, and some column is splittable.  A sharded Select keeps
    its op — each family member carries the original predicate plus one
    key interval, and the executor dispatches
    :meth:`~repro.lqp.base.LocalQueryProcessor.select_range`.  Everything
    else — unregistered or statless sources, tiny relations — passes
    through untouched.

    Returns the rewritten matrix (row numbering rebuilt) and a
    :class:`ShardReport`.  The rewrite is semantics-preserving row by row:
    each family's Union result is cell-for-cell the original Retrieve's
    result, so it composes with any optimizer state.
    """
    if not isinstance(width, int) and width != "auto":
        raise ValueError(f"width must be an int or 'auto', got {width!r}")
    if isinstance(width, int) and width < 2:
        raise ValueError(f"width must be >= 2 to shard, got {width}")

    plans: Dict[int, Tuple[List[MatrixRow], Tuple[str, str, str, int]]] = {}
    for row in iom:
        if row.op not in (Operation.RETRIEVE, Operation.SELECT) or not row.is_local:
            continue
        if row.key_range is not None:  # already a shard family member
            continue
        if not isinstance(row.lhr, LocalOperand) or row.el not in registry:
            continue
        lqp = registry.get(row.el)
        if not lqp.capabilities().splittable_scans:
            # The engine serializes its scans (or re-reads a log per
            # request): a shard family would multiply work, not overlap it.
            continue
        k = width if isinstance(width, int) else max(1, lqp.native_concurrency)
        if k < 2:
            continue
        stats = lqp.relation_stats(row.lhr.relation)
        if stats is None or stats.cardinality < min_tuples:
            continue
        attribute = _shard_key(stats, row, schema)
        if attribute is None:
            continue
        column = stats.columns[attribute]
        cuts = _cut_points(column.minimum, column.maximum, k)
        if not cuts:  # domain too narrow to split
            continue
        shards = _family_rows(row, attribute, cuts)
        plans[row.result.index] = (
            shards,
            (row.el, row.lhr.relation, attribute, len(shards)),
        )

    if not plans:
        return iom, ShardReport()

    mapping: Dict[int, int] = {}
    out: List[MatrixRow] = []
    next_index = 1
    families: List[Tuple[str, str, str, int]] = []
    shards_emitted = 0
    for row in iom:
        planned = plans.get(row.result.index)
        if planned is None:
            rewired = row.with_remapped_results(mapping)
            mapping[row.result.index] = next_index
            out.append(replace(rewired, result=ResultOperand(next_index)))
            next_index += 1
            continue
        shards, family = planned
        parts = []
        for shard in shards:
            out.append(replace(shard, result=ResultOperand(next_index)))
            parts.append(ResultOperand(next_index))
            next_index += 1
        # Tag-exact reassembly: concatenate the disjoint shards at the PQP.
        out.append(
            MatrixRow(
                ResultOperand(next_index),
                Operation.UNION,
                tuple(parts),
                el=PQP_LOCATION,
                scheme=row.scheme,
            )
        )
        mapping[row.result.index] = next_index
        next_index += 1
        families.append(family)
        shards_emitted += len(shards)

    report = ShardReport(
        retrieves_sharded=len(families),
        shards_emitted=shards_emitted,
        families=tuple(families),
    )
    return IntermediateOperationMatrix(out), report
