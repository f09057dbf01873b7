"""Canonical plan fingerprints and cached-subtree splicing.

The semantic result cache (:mod:`repro.service.cache`) keys entries on a
*structural fingerprint* of each optimized-plan subtree: a sha256 over the
row's operation, execution location, operands, predicate, scheme context
and — recursively — the fingerprints of the subtrees it consumes.  (A
SelectIn row consumes the rows its key set comes from, so its hash covers
theirs and its source set holds theirs: a write to any source of the key
set invalidates the entry.)  Two plans that compute the same thing
through the same shape hash identically regardless of how the optimizer
happened to number their ``R(#)`` rows, while any semantic difference (a
literal, a pushed-down location, a pruned projection, the federation's
conflict policy) changes the hash.

Two deliberate choices:

- **Operand order is preserved.**  Merge and the set operators are only
  order-insensitive under some conflict policies, so canonicalization never
  sorts operand lists — a reordered Merge is a different plan.  The
  optimizer already normalizes shapes deterministically, so equal queries
  still collide where it matters.
- **Cached rows hash as what they replaced.**  An :attr:`Operation.CACHED`
  row contributes the fingerprint its payload carries, so re-fingerprinting
  a spliced plan reproduces the original hashes and downstream rows remain
  cacheable under stable keys.

Alongside the hashes the pass computes, per subtree, the *source set* —
every database the subtree ships from or consults — which becomes the
cache entry's invalidation tag set, and the subtree's member row indices,
which the splice uses to prefer maximal cached subtrees.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.core.cell import ConflictPolicy
from repro.core.predicate import Literal
from repro.pqp.matrix import (
    PQP_LOCATION,
    CachedResult,
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
    SchemeOperand,
)

__all__ = ["PlanFingerprints", "SpliceReport", "fingerprint_plan", "splice_cached"]

#: Bumping this invalidates every fingerprint ever computed — do so whenever
#: the canonical form below changes shape.
_FINGERPRINT_VERSION = "polygen-fp-v2"


@dataclass(frozen=True)
class PlanFingerprints:
    """Per-row fingerprints, source sets and subtree extents of one plan."""

    #: R(#) index → canonical sha256 hex digest of the subtree rooted there.
    by_index: Dict[int, str]
    #: R(#) index → sorted databases the subtree ships from or consults.
    sources: Dict[int, Tuple[str, ...]]
    #: R(#) index → R(#) indices of every row inside the subtree.
    subtrees: Dict[int, FrozenSet[int]]
    final_index: int

    @property
    def final(self) -> str:
        """The whole plan's fingerprint (the final row's subtree)."""
        return self.by_index[self.final_index]

    @property
    def final_sources(self) -> Tuple[str, ...]:
        return self.sources[self.final_index]


@dataclass(frozen=True)
class SpliceReport:
    """What :func:`splice_cached` did to a plan."""

    rows_spliced: int
    rows_pruned: int
    #: fingerprints of the spliced subtrees, plan order.
    fingerprints: Tuple[str, ...] = ()

    @property
    def any(self) -> bool:
        return self.rows_spliced > 0


def _canonical_attribute(value) -> object:
    if value is None:
        return "nil"
    if isinstance(value, Literal):
        return ("lit", type(value.value).__name__, repr(value.value))
    if isinstance(value, tuple):
        return ("attrs",) + tuple(value)
    return str(value)


def _canonical_unkeyed(unkeyed) -> object:
    if unkeyed is None:
        return "nil"
    attribute, theta, literal = unkeyed
    return ("unkeyed", attribute, theta.symbol, _canonical_attribute(literal))


def fingerprint_plan(
    iom: IntermediateOperationMatrix,
    policy: ConflictPolicy = ConflictPolicy.DROP,
) -> PlanFingerprints:
    """Fingerprint every subtree of ``iom`` bottom-up.

    ``policy`` salts every hash: Merge and Coalesce answer differently
    under different conflict policies, so results cached under one policy
    must never satisfy a query run under another.
    """
    by_index: Dict[int, str] = {}
    sources: Dict[int, FrozenSet[str]] = {}
    subtrees: Dict[int, FrozenSet[int]] = {}
    if not len(iom):
        raise ValueError("cannot fingerprint an empty operation matrix")

    for row in iom:
        index = row.result.index
        if row.op is Operation.CACHED:
            if row.cached is None:
                raise ValueError(f"Cached row {row.result} carries no payload")
            by_index[index] = row.cached.fingerprint
            sources[index] = frozenset(row.cached.sources)
            subtrees[index] = frozenset({index})
            continue

        def canonical_operand(operand) -> object:
            if operand is None:
                return "nil"
            if isinstance(operand, ResultOperand):
                return ("R", by_index[operand.index])
            if isinstance(operand, tuple):
                return ("set",) + tuple(
                    ("R", by_index[part.index]) for part in operand
                )
            if isinstance(operand, LocalOperand):
                return ("local", operand.relation)
            if isinstance(operand, SchemeOperand):
                return ("scheme", operand.name)
            return ("other", repr(operand))

        canonical = (
            _FINGERPRINT_VERSION,
            policy.name,
            row.op.value,
            row.el or PQP_LOCATION,
            canonical_operand(row.lhr),
            _canonical_attribute(row.lha),
            row.theta.symbol if row.theta else "nil",
            _canonical_attribute(row.rha),
            canonical_operand(row.rhr),
            row.scheme or "nil",
            row.output or "nil",
            ("project",) + tuple(row.project) if row.project is not None else "nil",
            ("consulted",) + tuple(sorted(row.consulted)),
            _canonical_unkeyed(row.unkeyed),
        )
        by_index[index] = hashlib.sha256(repr(canonical).encode()).hexdigest()

        touched: FrozenSet[str] = frozenset(row.consulted)
        if row.is_local:
            touched |= {row.el}
        members: FrozenSet[int] = frozenset({index})
        for ref in row.referenced_results():
            touched |= sources[ref.index]
            members |= subtrees[ref.index]
        sources[index] = touched
        subtrees[index] = members

    return PlanFingerprints(
        by_index=by_index,
        sources={index: tuple(sorted(tags)) for index, tags in sources.items()},
        subtrees=subtrees,
        final_index=iom.rows[-1].result.index,
    )


def splice_cached(
    iom: IntermediateOperationMatrix,
    lookup: Callable[[str], Optional[CachedResult]],
    fingerprints: Optional[PlanFingerprints] = None,
    policy: ConflictPolicy = ConflictPolicy.DROP,
) -> Tuple[IntermediateOperationMatrix, SpliceReport]:
    """Replace cached subtrees of ``iom`` with pre-materialized CACHED rows.

    ``lookup`` maps a fingerprint to a :class:`CachedResult` payload (or
    ``None``); the caller decides whether a probe counts against hit/miss
    statistics.  The walk is top-down so *maximal* cached subtrees win —
    when a Join and one of its Retrieves are both cached, only the Join is
    spliced.  The final row is never replaced here: a whole-plan hit is the
    caller's fast path and needs no matrix at all.

    Rows orphaned by a splice are pruned and the plan renumbered, except
    where a row is still consumed outside the spliced subtree (the
    optimizer's dedup makes plans DAGs, not trees — a shared Retrieve
    survives for its other consumer).
    """
    prints = fingerprints or fingerprint_plan(iom, policy)
    rows = list(iom.rows)
    final = prints.final_index
    chosen: Dict[int, CachedResult] = {}
    covered: set = set()
    for row in reversed(rows):
        index = row.result.index
        if index == final or index in covered or row.op is Operation.CACHED:
            continue
        payload = lookup(prints.by_index[index])
        if payload is None:
            continue
        chosen[index] = payload
        covered |= prints.subtrees[index]
    if not chosen:
        return iom, SpliceReport(rows_spliced=0, rows_pruned=0)

    spliced: List[MatrixRow] = []
    for row in rows:
        payload = chosen.get(row.result.index)
        if payload is None:
            spliced.append(row)
            continue
        spliced.append(
            MatrixRow(
                result=row.result,
                op=Operation.CACHED,
                lhr=None,
                el=PQP_LOCATION,
                scheme=row.scheme,
                cached=payload,
            )
        )
    pruned_rows, pruned = _prune(spliced)
    report = SpliceReport(
        rows_spliced=len(chosen),
        rows_pruned=pruned,
        fingerprints=tuple(
            chosen[row.result.index].fingerprint
            for row in rows
            if row.result.index in chosen
        ),
    )
    return IntermediateOperationMatrix(pruned_rows), report


def _prune(rows: List[MatrixRow]) -> Tuple[List[MatrixRow], int]:
    """Drop rows never consumed (keeping the final row) and renumber —
    the optimizer's dead-row prune, local so splicing needs no optimizer."""
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
