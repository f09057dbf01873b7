"""The one oracle every configuration of the lattice is held to, and the
one way an answer is compared with it.

The reference is the paper's plan executed literally: a serial,
unoptimized, cache-off federation over in-memory ``RelationalLQP``\\ s
holding the same stored rows as the deployment under test.  An
:class:`Answer` is a query's heading, its lineage and its rows, each row a
tuple of ``(repr(datum), origins, intermediates)`` cells, sorted; or, for a
query that failed, the type of the error it raised.  So a dropped
intermediate tag is as wrong as a stale row, and a ``True`` that comes
back as ``1`` is a different answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, List, Optional, Tuple

from repro.core.relation import PolygenRelation
from repro.errors import PolygenError
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions

__all__ = ["Answer", "Oracle", "canonical_rows"]

REFERENCE = QueryOptions(engine="serial", optimize=False, cache="off")

#: One canonical row: per cell ``(repr(datum), origins, intermediates)``.
Row = Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...]


def _cell(datum, origins, intermediates):
    return (repr(datum), tuple(sorted(origins)), tuple(sorted(intermediates)))


def canonical_rows(parts: Iterable) -> List[Row]:
    """Canonical rows, in order, of columnar relations (a whole answer or
    ``chunks()`` batches) or of rows of cells (``fetchall()``)."""
    rows: List[Row] = []
    for part in parts:
        if isinstance(part, PolygenRelation):
            store = part.store
            columns = [
                [_cell(datum, *store.pool.pair(tag)) for datum, tag in zip(data, tags)]
                for data, tags in zip(store.columns, store.tags)
            ]
            rows.extend(zip(*columns))
        else:
            rows.append(tuple(_cell(c.datum, c.origins, c.intermediates) for c in part.cells))
    return rows


@dataclass(frozen=True)
class Answer:
    """What a query returned, in the form every answer is compared in."""

    attributes: Tuple[str, ...] = ()
    rows: Tuple[Row, ...] = ()
    lineage: Any = None
    error: Optional[type] = None
    #: Whether a whole-plan cache hit served it: how, not what.
    cache_hit: bool = field(default=False, compare=False)

    @classmethod
    def of(cls, read: Callable[[], Any]) -> "Answer":
        """The answer ``read()`` returns — a
        :class:`~repro.pqp.result.QueryResult`, or ``(result, attributes,
        parts)`` for an answer read off a cursor — or the type of the
        :class:`~repro.errors.PolygenError` it raises."""
        try:
            got = read()
        except PolygenError as error:
            return cls(error=type(error))
        result, attributes, parts = (
            got if isinstance(got, tuple) else (got, got.relation.attributes, [got.relation])
        )
        rows = tuple(sorted(canonical_rows(parts)))
        return cls(tuple(attributes), rows, result.lineage, cache_hit=result.cache_hit)


class Oracle:
    """Reference answers over ``databases``, remembered until :meth:`forget`."""

    def __init__(self, schema, databases, resolver=None):
        registry = LQPRegistry()
        for database in databases.values():
            registry.register(RelationalLQP(database))
        self._federation = PolygenFederation(schema, registry, resolver=resolver)
        self._answers = {}

    def answer(self, query, policy) -> Answer:
        if (query, policy) not in self._answers:
            options = REFERENCE.replace(policy=policy)
            self._answers[query, policy] = Answer.of(lambda: self._federation.run(query, options))
        return self._answers[query, policy]

    def forget(self) -> None:
        """Drop every remembered answer: the stored rows changed."""
        self._answers.clear()

    def close(self) -> None:
        self._federation.close()
