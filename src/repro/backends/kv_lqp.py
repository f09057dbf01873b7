"""A key-value local engine: dict-of-dicts with a key-only access path.

:class:`KVStoreLQP` models the NoSQL member of a heterogeneous
federation — a store that maps primary keys to rows and can natively do
exactly one thing: a **point lookup** by primary key.  Everything else
(general selections, projections) is a full scan filtered in Python, and
the engine's :class:`~repro.lqp.base.Capabilities` say so:
``native_select`` is False (the optimizer gains nothing pushing a
non-key selection here) and ``native_projection`` is False.

A relation is one table: ``key tuple → row tuple``.  Equality selections
on a single-attribute key short-circuit to a point lookup.  Keys are
non-nil and unique, as in every other engine here.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Sequence, Tuple

from repro.core.predicate import Theta
from repro.errors import ConstraintViolationError, UnknownRelationError
from repro.lqp.base import Capabilities, LocalQueryProcessor
from repro.relational import algebra
from repro.relational.database import LocalDatabase
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

__all__ = ["KVStoreLQP"]


class _Table:
    """One keyed map: primary-key tuple → row tuple."""

    def __init__(self, heading: Sequence[str], key: Sequence[str]):
        if not key:
            raise ConstraintViolationError(
                "a key-value store needs a primary key for every relation"
            )
        self.heading = list(heading)
        self.key = list(key)
        self.key_positions = [self.heading.index(a) for a in self.key]
        self.rows: Dict[Tuple[Any, ...], Tuple[Any, ...]] = {}

    def key_of(self, row: Tuple[Any, ...]) -> Tuple[Any, ...]:
        return tuple(row[p] for p in self.key_positions)


class KVStoreLQP(LocalQueryProcessor):
    """An in-process key→row store with key-only native access paths."""

    def __init__(self, database: str):
        self._name = database
        self._tables: Dict[str, _Table] = {}

    # -- construction --------------------------------------------------------

    @classmethod
    def from_database(cls, database: LocalDatabase) -> "KVStoreLQP":
        """Materialize an in-memory :class:`LocalDatabase` (every relation
        must have a key — entity integrity is the store's identity)."""
        store = cls(database.name)
        for relation_name in database.relation_names():
            schema = database.schema(relation_name)
            store.create(schema)
            store.put(relation_name, database.relation(relation_name).rows)
        return store

    # -- capability contract -------------------------------------------------

    def capabilities(self) -> Capabilities:
        return Capabilities(
            native_select=False,
            native_projection=False,
            signals_writes=True,
        )

    # -- schema + data management --------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._tables)

    def create(self, schema: RelationSchema) -> "KVStoreLQP":
        if schema.name in self._tables:
            raise ConstraintViolationError(
                f"relation {schema.name!r} already exists in kv store for "
                f"database {self._name!r}"
            )
        self._tables[schema.name] = _Table(schema.attributes, schema.key)
        return self

    def put(self, relation_name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Upsert rows by primary key (last write wins, the KV idiom)."""
        table = self._table(relation_name)
        for row in rows:
            row_tuple = tuple(row)
            if len(row_tuple) != len(table.heading):
                raise ConstraintViolationError(
                    f"row of degree {len(row_tuple)} for relation "
                    f"{relation_name!r} of degree {len(table.heading)}"
                )
            key = table.key_of(row_tuple)
            if any(part is None for part in key):
                raise ConstraintViolationError(
                    f"nil key value for relation {relation_name!r}"
                )
            table.rows[key] = row_tuple

    # -- query surface -------------------------------------------------------

    def _table(self, relation_name: str) -> _Table:
        table = self._tables.get(relation_name)
        if table is None:
            raise UnknownRelationError(relation_name, self._name)
        return table

    def _relation(self, table: _Table) -> Relation:
        return Relation(table.heading, table.rows.values())

    def retrieve(self, relation_name: str) -> Relation:
        return self._relation(self._table(relation_name))

    def select(
        self, relation_name: str, attribute: str, theta: Theta, value: Any
    ) -> Relation:
        table = self._table(relation_name)
        if (
            theta is Theta.EQ
            and table.key == [attribute]
            and value is not None
        ):
            # The one selection a KV store answers natively: a point get.
            try:
                row = table.rows.get((value,))
            except TypeError:  # unhashable literal matches nothing keyed
                row = None
            return Relation(table.heading, () if row is None else (row,))
        return algebra.select(self._relation(table), attribute, theta, value)
