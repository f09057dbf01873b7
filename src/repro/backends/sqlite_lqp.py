"""A local engine backed by SQLite, with true SQL pushdown.

:class:`SqliteLQP` persists one local database — relation schemas, rows,
and the interned source-tag atoms its data carries — in a single SQLite
file (or ``:memory:``) and answers every LQP verb by *compiling it to
SQL* through :mod:`repro.sql.render`: selections become parameterized
``WHERE`` clauses and column projection becomes the ``SELECT`` list.  The
filtering happens inside the engine, not in Python loops — this is the
backend the pushdown optimizer and the transfer benchmarks exercise.

**Faithfulness over cleverness.**  SQLite's comparison semantics differ
from polygen's (:class:`~repro.core.predicate.Theta`) in ways that would
silently change answers, so the adapter closes every gap:

- Ordering selections first run an **incomparability probe**
  (:func:`repro.sql.render.probe_sql`): polygen raises
  :class:`~repro.errors.IncomparableTypesError` when any non-nil cell
  cannot be ordered against the literal, where SQLite would happily
  apply its cross-class total order.
- Values SQLite cannot store faithfully are **refused at insert**
  (:class:`~repro.errors.LocalEngineError`): bools arrive back as
  integers, NaN as NULL, ints beyond 64 bits not at all.  Refusing early
  keeps every later comparison honest.
- Literals that cannot be *bound* faithfully (NaN, big ints, bools in
  ordering position, arbitrary objects) fall back to the Python-side
  filter, which is always semantics-exact.

Text comparisons agree for free: SQLite's default BINARY collation
orders UTF-8 bytes, which is exactly Python's code-point order.

Storage layout (all metadata tables are invisible to ``relation_names``):

- one data table per relation, named after it, columns undeclared (BLOB
  affinity, so stored values keep their bound types), with a UNIQUE
  index over the primary-key columns;
- ``__polygen_meta__`` — the database name plus one JSON schema record
  per relation (heading order, key, origin-tag reference);
- ``__polygen_tags__`` — interned source-tag atoms, referenced by id.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.heading import Heading
from repro.core.predicate import Theta
from repro.errors import (
    ConstraintViolationError,
    IncomparableTypesError,
    LocalEngineError,
    UnknownRelationError,
)
from repro.lqp.base import Capabilities, LocalQueryProcessor
from repro.relational import algebra
from repro.relational.database import LocalDatabase
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema
from repro.sql.ast import ComparisonPredicate, SelectStatement
from repro.sql.render import (
    comparison_sql,
    probe_sql,
    quote_identifier,
    render_select,
)

__all__ = ["SqliteLQP"]

_META = "__polygen_meta__"
_TAGS = "__polygen_tags__"

_INT64_MAX = 2**63 - 1
_INT64_MIN = -(2**63)


def _storable(value: Any) -> bool:
    """Whether SQLite stores ``value`` and hands it back unchanged."""
    if value is None or isinstance(value, str):
        return True
    if isinstance(value, bool):
        return False  # comes back as an integer
    if isinstance(value, int):
        return _INT64_MIN <= value <= _INT64_MAX
    if isinstance(value, float):
        return not math.isnan(value)  # NaN comes back as NULL
    return False


class SqliteLQP(LocalQueryProcessor):
    """One autonomous local database stored in SQLite.

    ``path`` is a filesystem path or ``":memory:"``.  Opening an existing
    store recovers the database name from its metadata; creating a fresh
    one requires ``database``.  The connection is shared across the
    executor's worker threads behind a lock — SQLite serializes writers
    anyway.
    """

    def __init__(self, path: str = ":memory:", database: Optional[str] = None):
        self._path = path
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(path, check_same_thread=False)
        with self._lock:
            self._connection.execute(
                f"CREATE TABLE IF NOT EXISTS {_META} "
                "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            self._connection.execute(
                f"CREATE TABLE IF NOT EXISTS {_TAGS} "
                "(tag_id INTEGER PRIMARY KEY AUTOINCREMENT, "
                "atom TEXT UNIQUE NOT NULL)"
            )
            stored = self._meta_get("database")
            if stored is None:
                if database is None:
                    raise LocalEngineError(
                        f"sqlite store {path!r} is new; a database name is "
                        "required to create it"
                    )
                self._meta_set("database", database)
                self._intern_tag(database)
                self._name = database
            else:
                if database is not None and database != stored:
                    raise LocalEngineError(
                        f"sqlite store {path!r} holds database {stored!r}, "
                        f"not {database!r}"
                    )
                self._name = stored
            self._connection.commit()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_database(
        cls, database: LocalDatabase, path: str = ":memory:"
    ) -> "SqliteLQP":
        """Materialize an in-memory :class:`LocalDatabase` into SQLite."""
        store = cls(path, database=database.name)
        for relation_name in database.relation_names():
            store.load(database.schema(relation_name), database.relation(relation_name).rows)
        return store

    @classmethod
    def open(cls, path: str, database: Optional[str] = None) -> "SqliteLQP":
        """Open an existing store (the ``sqlite://`` registry scheme)."""
        return cls(path, database=database)

    def close(self) -> None:
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "SqliteLQP":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- capability contract -------------------------------------------------

    def capabilities(self) -> Capabilities:
        # A file on disk may be rewritten by any other process without the
        # federation hearing about it; only the :memory: store is private
        # enough for invalidation-only caching.
        return Capabilities(
            native_select=True,
            native_projection=True,
            signals_writes=self._path == ":memory:",
        )

    # -- metadata ------------------------------------------------------------

    def _meta_get(self, key: str) -> Optional[str]:
        row = self._connection.execute(
            f"SELECT value FROM {_META} WHERE key = ?", (key,)
        ).fetchone()
        return None if row is None else row[0]

    def _meta_set(self, key: str, value: str) -> None:
        self._connection.execute(
            f"INSERT OR REPLACE INTO {_META} (key, value) VALUES (?, ?)",
            (key, value),
        )

    def _intern_tag(self, atom: str) -> int:
        self._connection.execute(
            f"INSERT OR IGNORE INTO {_TAGS} (atom) VALUES (?)", (atom,)
        )
        (tag_id,) = self._connection.execute(
            f"SELECT tag_id FROM {_TAGS} WHERE atom = ?", (atom,)
        ).fetchone()
        return tag_id

    def interned_tags(self) -> Tuple[str, ...]:
        """The source-tag atoms interned in this store, oldest first."""
        with self._lock:
            rows = self._connection.execute(
                f"SELECT atom FROM {_TAGS} ORDER BY tag_id"
            ).fetchall()
        return tuple(atom for (atom,) in rows)

    def _schema_record(self, relation_name: str) -> Dict[str, Any]:
        raw = self._meta_get(f"schema:{relation_name}")
        if raw is None:
            raise UnknownRelationError(relation_name, self._name)
        return json.loads(raw)

    def _heading(self, relation_name: str) -> List[str]:
        return list(self._schema_record(relation_name)["heading"])

    # -- schema + data management --------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def path(self) -> str:
        return self._path

    def relation_names(self) -> Tuple[str, ...]:
        with self._lock:
            rows = self._connection.execute(
                f"SELECT key FROM {_META} WHERE key LIKE 'schema:%' "
                "ORDER BY rowid"
            ).fetchall()
        return tuple(key[len("schema:"):] for (key,) in rows)

    def create(self, schema: RelationSchema) -> "SqliteLQP":
        """Register an (initially empty) relation.  Returns self."""
        with self._lock:
            if self._meta_get(f"schema:{schema.name}") is not None:
                raise ConstraintViolationError(
                    f"relation {schema.name!r} already exists in sqlite "
                    f"store for database {self._name!r}"
                )
            columns = ", ".join(quote_identifier(a) for a in schema.attributes)
            self._connection.execute(
                f"CREATE TABLE {quote_identifier(schema.name)} ({columns})"
            )
            if schema.key:
                key_columns = ", ".join(
                    quote_identifier(a) for a in schema.key
                )
                self._connection.execute(
                    f"CREATE UNIQUE INDEX "
                    f"{quote_identifier('__key_' + schema.name)} "
                    f"ON {quote_identifier(schema.name)} ({key_columns})"
                )
            record = {
                "heading": list(schema.attributes),
                "key": list(schema.key),
                "tag": self._intern_tag(self._name),
            }
            self._meta_set(f"schema:{schema.name}", json.dumps(record))
            self._connection.commit()
        return self

    def insert(self, relation_name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Insert rows, enforcing degree, value domain, and key integrity."""
        with self._lock:
            record = self._schema_record(relation_name)
            heading = record["heading"]
            key = record["key"]
            key_positions = [heading.index(a) for a in key]
            prepared = []
            for row in rows:
                row_tuple = tuple(row)
                if len(row_tuple) != len(heading):
                    raise ConstraintViolationError(
                        f"row of degree {len(row_tuple)} for relation "
                        f"{relation_name!r} of degree {len(heading)}"
                    )
                for value in row_tuple:
                    if not _storable(value):
                        raise LocalEngineError(
                            f"sqlite cannot store {value!r} faithfully "
                            f"(relation {relation_name!r})"
                        )
                if any(row_tuple[p] is None for p in key_positions):
                    raise ConstraintViolationError(
                        f"nil key value for relation {relation_name!r}"
                    )
                prepared.append(row_tuple)
            placeholders = ", ".join("?" for _ in heading)
            try:
                self._connection.executemany(
                    f"INSERT INTO {quote_identifier(relation_name)} "
                    f"VALUES ({placeholders})",
                    prepared,
                )
            except sqlite3.IntegrityError as error:
                self._connection.rollback()
                raise ConstraintViolationError(
                    f"duplicate key for relation {relation_name!r}: {error}"
                ) from None
            self._connection.commit()

    def load(
        self, schema: RelationSchema, rows: Iterable[Sequence[Any]]
    ) -> "SqliteLQP":
        """Create and populate a relation in one step."""
        self.create(schema)
        self.insert(schema.name, rows)
        return self

    # -- query surface (compiled to SQL) -------------------------------------

    def _run(self, heading: Sequence[str], sql: str, params: Sequence[Any]) -> Relation:
        with self._lock:
            rows = self._connection.execute(sql, params).fetchall()
        return Relation(list(heading), rows)

    def _projection(self, heading: List[str], columns) -> List[str]:
        if columns is None:
            return heading
        # Validate through Heading so an absent column raises exactly what
        # project_columns would.
        full = Heading(heading)
        names = list(columns)
        for name in names:
            full.index(name)
        return names

    def retrieve(self, relation_name: str, columns=None) -> Relation:
        with self._lock:
            heading = self._heading(relation_name)
        shipped = self._projection(heading, columns)
        statement = SelectStatement(tuple(shipped), (relation_name,))
        return self._run(shipped, *render_select(statement))

    def _probe_ordering(self, relation_name: str, attribute: str, value: Any) -> None:
        """Raise :class:`IncomparableTypesError` when the equivalent Python
        selection would: any non-nil cell outside the literal's storage
        classes cannot be ordered against it."""
        probe = probe_sql(relation_name, attribute, value)
        if probe is None:  # nothing stored orders against this literal
            raise IncomparableTypesError(
                f"cannot order-compare column {attribute!r} with "
                f"{type(value).__name__}"
            )
        sql, params = probe
        (count,) = self._connection.execute(sql, params).fetchone()
        if count:
            raise IncomparableTypesError(
                f"column {attribute!r} holds {count} value(s) that cannot "
                f"be order-compared with {type(value).__name__}"
            )

    def _python_select(
        self, relation_name: str, attribute: str, theta: Theta, value: Any, columns
    ) -> Relation:
        """Semantics-exact fallback for literals SQL cannot express."""
        result = algebra.select(self.retrieve(relation_name), attribute, theta, value)
        if columns is not None:
            shipped = self._projection(list(result.attributes), columns)
            statement_rows = (
                tuple(row[result.heading.index(c)] for c in shipped)
                for row in result
            )
            result = Relation(shipped, statement_rows)
        return result

    def select(
        self,
        relation_name: str,
        attribute: str,
        theta: Theta,
        value: Any,
        columns=None,
    ) -> Relation:
        with self._lock:
            heading = self._heading(relation_name)
            Heading(heading).index(attribute)  # raise as algebra.select would
            shipped = self._projection(heading, columns)
            if value is None:
                # nil satisfies no θ: empty either way, skip the engine.
                return Relation(shipped)
            rendered = comparison_sql(attribute, theta, value)
            nan = isinstance(value, float) and math.isnan(value)
            if rendered is None or nan:
                # NaN binds as NULL, which is faithful for = and ordering
                # but not for <> (Python: everything differs from NaN).
                if theta in (Theta.LT, Theta.LE, Theta.GT, Theta.GE) and not nan:
                    self._probe_ordering(relation_name, attribute, value)
                return self._python_select(
                    relation_name, attribute, theta, value, columns
                )
            if theta in (Theta.LT, Theta.LE, Theta.GT, Theta.GE):
                self._probe_ordering(relation_name, attribute, value)
            statement = SelectStatement(
                tuple(shipped),
                (relation_name,),
                (ComparisonPredicate(attribute, theta, value),),
            )
            return self._run(shipped, *render_select(statement))
