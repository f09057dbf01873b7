"""The answer oracle: what every query must return, tags included.

The reference is the paper's plan executed literally — a serial,
unoptimized :class:`~repro.pqp.executor.Executor` (``engine="serial"``,
``optimize=False``, cache off) over in-memory ``RelationalLQP``\\ s built
from the same generated databases the program under test was given.  An
answer is compared as a canonical checksum over its sorted rows of
``(datum, origins, intermediates)`` cells, so a dropped intermediate tag
is as wrong as a stale row.

Workloads with hundreds of distinct selects over one merged scheme share
the reference plan's Retrieve/Merge prefix: the prefix runs once through
the reference executor and each select's remaining rows (Restrict, then
Project) are applied with :mod:`repro.core.algebra`'s definitional
operators (:class:`~workloads.Derive`).

``run.py`` calls this file as a subprocess (``--workload/--seed/--writes``)
so the reference's memory — it runs the same quadratic join the program
does — never shows in the measured process's peak RSS.  Run without
arguments it executes :func:`self_test`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, Iterable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parents[2]
if __name__ == "__main__":
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]

from repro.core import algebra
from repro.core.predicate import Literal, Theta
from repro.core.relation import PolygenRelation
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions

from workloads import WORKLOADS, Dataset, Query, Write

__all__ = ["Oracle", "canonical_rows", "checksum", "self_test"]

REFERENCE_OPTIONS = QueryOptions(engine="serial", optimize=False, cache="off")

#: One canonical row: per cell ``(repr(datum), origins, intermediates)``.
Row = Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...]


def _relation_rows(relation: PolygenRelation) -> List[Row]:
    """Canonical rows straight off the columnar store (no Cell objects)."""
    store = relation.store
    pair = store.pool.pair
    seen: Dict[int, Tuple[Tuple[str, ...], Tuple[str, ...]]] = {}

    def tags(tag_id: int):
        known = seen.get(tag_id)
        if known is None:
            origins, intermediates = pair(tag_id)
            known = seen[tag_id] = (tuple(sorted(origins)), tuple(sorted(intermediates)))
        return known

    cells = [
        [(repr(datum),) + tags(tag_id) for datum, tag_id in zip(column, tag_column)]
        for column, tag_column in zip(store.columns, store.tags)
    ]
    return list(zip(*cells)) if store.cardinality else []


def canonical_rows(answer: Iterable) -> List[Row]:
    """Canonical rows of an answer: columnar batches (``chunks()``) or
    row-of-cells tuples (``fetchall()``), in any mixture."""
    rows: List[Row] = []
    for part in answer:
        if isinstance(part, PolygenRelation):
            rows.extend(_relation_rows(part))
        else:
            rows.append(
                tuple(
                    (
                        repr(cell.datum),
                        tuple(sorted(cell.origins)),
                        tuple(sorted(cell.intermediates)),
                    )
                    for cell in part
                )
            )
    return rows


def checksum(rows: Sequence[Row]) -> str:
    digest = hashlib.sha256()
    for row in sorted(rows):
        digest.update(repr(row).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


class Oracle:
    """Reference answers for one dataset (and the writes applied to it)."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        registry = LQPRegistry()
        for database in dataset.databases.values():
            registry.register(RelationalLQP(database))
        self._federation = PolygenFederation(
            dataset.schema, registry, resolver=dataset.resolver
        )
        self._bases: Dict[str, PolygenRelation] = {}

    def close(self) -> None:
        self._federation.close()

    def apply(self, write: Write) -> None:
        self._dataset.databases[write.database].insert("ORG", [write.row])
        self._bases.clear()

    def _reference(self, text: str) -> PolygenRelation:
        return self._federation.run(text, REFERENCE_OPTIONS).relation

    def answer(self, query: Query) -> PolygenRelation:
        derive = query.derive
        if derive is None:
            return self._reference(query.text)
        base = self._bases.get(derive.base)
        if base is None:
            base = self._bases[derive.base] = self._reference(derive.base)
        kept = algebra.restrict(base, derive.attribute, Theta.EQ, Literal(derive.value))
        return algebra.project(kept, derive.columns)

    def expected(self, query: Query) -> Tuple[int, str]:
        """``(cardinality, checksum)`` of ``query``'s reference answer."""
        rows = _relation_rows(self.answer(query))
        return len(rows), checksum(rows)


def self_test() -> None:
    """The checksum must flag a dropped intermediate tag and a stale row."""
    dataset = WORKLOADS["small_sql"].dataset(seed=0)
    oracle = Oracle(dataset)
    try:
        rows = _relation_rows(oracle.answer(dataset.queries[0]))
    finally:
        oracle.close()
    reference = checksum(rows)
    if checksum(list(reversed(rows))) != reference:
        raise AssertionError("checksum depends on row order")

    position = next(
        (r, c) for r, row in enumerate(rows) for c, cell in enumerate(row) if cell[2]
    )
    row = list(rows[position[0]])
    datum, origins, intermediates = row[position[1]]
    row[position[1]] = (datum, origins, intermediates[1:])
    dropped = rows[: position[0]] + [tuple(row)] + rows[position[0] + 1 :]
    if checksum(dropped) == reference:
        raise AssertionError("a dropped intermediate tag went unnoticed")

    stale_cell = (repr("Stale Corp"),) + rows[0][0][1:]
    stale = [(stale_cell,) + rows[0][1:]] + rows[1:]
    if checksum(stale) == reference:
        raise AssertionError("a stale row went unnoticed")


def _main(argv: Sequence[str]) -> int:
    if not argv:
        self_test()
        print("check.py self-test: ok")
        return 0
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--writes", type=int, default=0,
                        help="apply the op sequence's first N writes first")
    parser.add_argument("--queries", default="all",
                        help="comma-separated query indices, or 'all'")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    dataset = workload.dataset(args.seed)
    oracle = Oracle(dataset)
    try:
        if args.writes:
            pending = args.writes
            for op in workload.client_ops(args.seed, 0, dataset):
                if isinstance(op, Write):
                    oracle.apply(op)
                    pending -= 1
                    if not pending:
                        break
        indices = (
            range(len(dataset.queries))
            if args.queries == "all"
            else [int(part) for part in args.queries.split(",")]
        )
        expected = {index: oracle.expected(dataset.queries[index]) for index in indices}
    finally:
        oracle.close()
    print(json.dumps({"expected": expected}))
    return 0


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
