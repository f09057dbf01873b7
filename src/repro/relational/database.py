"""In-memory local databases.

A :class:`LocalDatabase` plays the role of one autonomous database in the
federation — the paper's AD, PD and CD.  It owns named relations with
schemas and (optionally) primary-key enforcement, and supports the small
query surface an LQP needs: full retrieval, single-comparison selection
and SelectIn.
"""

from __future__ import annotations

import threading
from itertools import chain, filterfalse
from operator import itemgetter
from typing import Any, Dict, Iterable, Sequence, Set, Tuple

from repro.core.predicate import Theta
from repro.errors import ConstraintViolationError, UnknownRelationError
from repro.relational import algebra
from repro.relational.conditions import Condition
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.storage.keyed import key_set, unkeyed

__all__ = ["LocalDatabase"]


class LocalDatabase:
    """A named collection of local relations.

    Like a source DBMS, it answers an equality natively: ``=``
    :meth:`select` and :meth:`select_in` read the attribute's equality
    index (:meth:`Relation.index`), built on the first such query and kept
    until an :meth:`insert` replaces the relation.  ``<>``, the ordering
    comparisons, an unhashable literal and :meth:`select_where` scan.
    Either way the rows come back in the order a scan yields them.

    >>> db = LocalDatabase("AD")
    >>> _ = db.create(RelationSchema("BUSINESS", ["BNAME", "IND"], key=["BNAME"]))
    >>> db.insert("BUSINESS", [("IBM", "High Tech")])
    >>> db.relation("BUSINESS").cardinality
    1
    """

    def __init__(self, name: str):
        self.name = name
        self._schemas: Dict[str, RelationSchema] = {}
        self._relations: Dict[str, Relation] = {}
        #: A relation's key values (a keyless one's whole rows), kept beside
        #: it once it takes a second insert, so later inserts check their
        #: rows against a set instead of reading every key.  A relation
        #: filled once and only read holds none.
        self._keys: Dict[str, Set[Any]] = {}
        #: Serializes inserts: each reads, checks and replaces a relation
        #: and its key set, and two at once would lose one's rows or keys.
        #: Readers take no lock: a relation is replaced, never changed.
        self._insert_lock = threading.Lock()

    # -- schema management ---------------------------------------------------

    def create(self, schema: RelationSchema) -> "LocalDatabase":
        """Register an (initially empty) relation.  Returns self for chaining."""
        if schema.name in self._schemas:
            raise ConstraintViolationError(
                f"relation {schema.name!r} already exists in database {self.name!r}"
            )
        self._schemas[schema.name] = schema
        self._relations[schema.name] = Relation(schema.heading)
        return self

    def schema(self, relation_name: str) -> RelationSchema:
        try:
            return self._schemas[relation_name]
        except KeyError:
            raise UnknownRelationError(relation_name, self.name) from None

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._schemas)

    def __contains__(self, relation_name: str) -> bool:
        return relation_name in self._schemas

    # -- data management ---------------------------------------------------------

    def insert(self, relation_name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Insert rows, enforcing degree and primary-key uniqueness (also
        within ``rows``); a failed insert changes nothing.

        Only the inserted rows are checked, against the relation's key set,
        which takes the batch's keys once every row has passed; the new
        rows extend the current ones, since rows with distinct keys cannot
        collapse.  Without a key, the whole row is the key, and a row
        already present (or earlier in ``rows``) collapses into its first
        occurrence instead of raising, as in any relation.
        """
        schema = self.schema(relation_name)
        new_rows = [tuple(row) for row in rows]
        for row in new_rows:
            if len(row) != schema.degree:
                raise ConstraintViolationError(
                    f"row of degree {len(row)} for relation "
                    f"{relation_name!r} of degree {schema.degree}"
                )
        key_positions = schema.key_indices()
        # One key is its bare value, several a tuple: itemgetter's own shape.
        # Without a key, the whole row is the key.
        key_of = itemgetter(*key_positions) if key_positions else None
        single_key = len(key_positions) == 1
        with self._insert_lock:
            current = self._relations[relation_name]
            existing_keys = self._keys.get(relation_name)
            if existing_keys is None:
                existing_keys = set(map(key_of, current.rows)) if key_of else set(current.rows)
            if key_of is None:  # a repeat collapses into its first occurrence
                new_rows = list(filterfalse(existing_keys.__contains__, dict.fromkeys(new_rows)))
                batch_keys = set(new_rows)
            else:
                batch_keys = set()
                for row in new_rows:
                    key = key_of(row)
                    nil = (key is None) if single_key else (None in key)
                    if nil or key in existing_keys or key in batch_keys:
                        shown = tuple(row[i] for i in key_positions)
                        raise ConstraintViolationError(
                            f"nil key value for relation {relation_name!r}: {shown!r}" if nil
                            else f"duplicate key {shown!r} for relation {relation_name!r}"
                        )
                    batch_keys.add(key)
            self._relations[relation_name] = Relation.from_distinct_rows(
                schema.heading, current.rows + tuple(new_rows)
            )
            if current.cardinality:
                existing_keys |= batch_keys
                self._keys[relation_name] = existing_keys

    def load(self, schema: RelationSchema, rows: Iterable[Sequence[Any]]) -> "LocalDatabase":
        """Create and populate a relation in one step (dataset builders)."""
        self.create(schema)
        self.insert(schema.name, rows)
        return self

    # -- query surface ---------------------------------------------------------

    def relation(self, relation_name: str) -> Relation:
        """Full retrieval — the paper's Retrieve is a Restrict with no
        condition."""
        if relation_name not in self._relations:
            raise UnknownRelationError(relation_name, self.name)
        return self._relations[relation_name]

    def select(self, relation_name: str, attribute: str, theta: Theta, value: Any) -> Relation:
        """Single-comparison selection executed locally; ``=`` reads the
        index, and a nil or NaN literal matches nothing, as under the scan."""
        relation = self.relation(relation_name)
        if theta is Theta.EQ:
            index = relation.index(attribute)
            try:
                positions = () if unkeyed(value) else index.get(value, ())
            except TypeError:  # an unhashable literal: the scan decides
                pass
            else:
                return relation.take(positions)
        return algebra.select(relation, attribute, theta, value)

    def select_in(self, relation_name: str, attribute: str, values: Iterable[Any]) -> Relation:
        """The rows whose ``attribute`` matches a member of ``values`` under
        :func:`~repro.storage.keyed.key_set`'s rule, read from the index."""
        relation = self.relation(relation_name)
        index = relation.index(attribute)
        hits = chain.from_iterable(index.get(key, ()) for key in key_set(values))
        return relation.take(sorted(hits))

    def select_where(self, relation_name: str, condition: Condition) -> Relation:
        return algebra.select_where(self.relation(relation_name), condition)

    def __repr__(self) -> str:
        return f"LocalDatabase({self.name!r}, relations={list(self._schemas)!r})"
