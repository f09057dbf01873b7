"""Parameterized SQLite rendering for the backend pushdown compiler.

:mod:`repro.sql.ast` renders the polygen SQL *surface* syntax (display
form, polygen quoting).  This module renders the same AST the other way
— into SQL an actual engine executes — so
:class:`repro.backends.sqlite_lqp.SqliteLQP` can compile ``select`` and
column projections down to statements SQLite runs natively instead of
filtering shipped tuples in Python loops.

The subtlety is semantic, not syntactic.  Polygen comparison semantics
(:class:`repro.core.predicate.Theta`) differ from SQLite's in exactly
two places, and every clause built here is shaped to close the gap:

- **nil never satisfies any θ.**  SQL three-valued logic already drops
  ``NULL θ x`` rows from a WHERE, so equality and ordering translate
  directly — including a ``None`` (or NaN, which sqlite3 binds as NULL)
  literal, where both systems return the empty relation.
- **cross-class ordering raises, it never guesses.**  SQLite happily
  orders NULL < numbers < text < blobs; polygen raises
  :class:`~repro.errors.IncomparableTypesError` if *any* non-nil value
  in the column cannot be ordered against the literal.  Ordering
  pushdown therefore pairs every ``<``/``<=``/``>``/``>=`` clause with
  an **incomparability probe** (:func:`probe_sql`) the engine runs
  first: count the non-nil cells outside the literal's storage classes
  (:func:`storage_classes`) and raise before selecting if any exist.

Values that cannot be bound faithfully (bools in ordering position,
ints beyond SQLite's 64 bits, arbitrary objects) make the helpers
return ``None`` — the caller's signal to fall back to a Python-side
filter rather than push an unfaithful translation.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence, Tuple

from repro.core.predicate import Theta
from repro.sql.ast import InPredicate, SelectStatement

__all__ = [
    "comparison_sql",
    "probe_sql",
    "quote_identifier",
    "render_select",
    "storage_classes",
]

#: θ symbols SQLite shares with polygen (NE renders as ``<>`` in both).
_ORDERING = (Theta.LT, Theta.LE, Theta.GT, Theta.GE)

#: Largest magnitude sqlite3 can bind as INTEGER.
_INT64_MAX = 2**63 - 1
_INT64_MIN = -(2**63)


def quote_identifier(name: str) -> str:
    """``name`` as a double-quoted SQLite identifier (quotes doubled)."""
    return '"' + name.replace('"', '""') + '"'


def _bindable(value: Any) -> bool:
    """Whether sqlite3 binds ``value`` without changing its identity.

    Bools bind as integers — fine for equality (Python ``1 == True``
    too) — and floats/strs/None bind exactly.  Ints beyond 64 bits
    overflow the binding layer, and anything else is not wire-safe.
    """
    if value is None or isinstance(value, (bool, float, str)):
        return True
    if isinstance(value, int):
        return _INT64_MIN <= value <= _INT64_MAX
    return False


def storage_classes(value: Any) -> Optional[Tuple[str, ...]]:
    """The ``typeof()`` classes Python can *order*-compare with ``value``.

    ``None`` means no stored value orders against it under polygen rules
    (bools only compare with bools, and the backends refuse to store
    bools) — the caller must fall back to Python filtering.
    """
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return ("integer", "real")
    if isinstance(value, str):
        return ("text",)
    return None


def _classes_in(column_sql: str, classes: Sequence[str]) -> str:
    placeholders = ", ".join(f"'{cls}'" for cls in classes)
    return f"typeof({column_sql}) IN ({placeholders})"


def comparison_sql(
    attribute: str, theta: Theta, value: Any
) -> Optional[Tuple[str, List[Any]]]:
    """One ``attribute θ literal`` WHERE clause, parameterized.

    Equality/inequality need no guard: SQLite never equates values of
    different storage classes (``1 = '1'`` is false) but does equate
    ``1 = 1.0`` — both exactly Python's ``==``.  Ordering clauses assume
    the caller already ran :func:`probe_sql`, after which every non-nil
    cell is in the literal's storage classes and SQLite's comparison
    agrees with Python's.  Returns ``None`` when the literal cannot be
    pushed faithfully.
    """
    if not _bindable(value):
        return None
    column = quote_identifier(attribute)
    if theta in (Theta.EQ, Theta.NE):
        return f"{column} {theta.symbol} ?", [value]
    if storage_classes(value) is None:
        return None  # ordering against a bool: nothing stored compares
    return f"{column} {theta.symbol} ?", [value]


def probe_sql(
    table: str, attribute: str, value: Any
) -> Optional[Tuple[str, List[Any]]]:
    """The pre-ordering incomparability probe: counts non-nil cells whose
    storage class cannot be ordered against ``value``.  A nonzero count
    means the equivalent Python selection would raise
    :class:`~repro.errors.IncomparableTypesError`, so the engine must
    too.  ``None`` when no stored class orders against the literal at
    all (then *any* non-nil cell is incomparable — probe for them with
    ``value=None`` semantics handled by the caller)."""
    classes = storage_classes(value)
    if classes is None:
        return None
    column = quote_identifier(attribute)
    sql = (
        f"SELECT COUNT(*) FROM {quote_identifier(table)} "
        f"WHERE {column} IS NOT NULL AND NOT {_classes_in(column, classes)}"
    )
    return sql, []


def render_select(statement: SelectStatement) -> Tuple[str, List[Any]]:
    """Render a :class:`~repro.sql.ast.SelectStatement` as parameterized
    SQLite.

    Literal comparisons become ``?`` placeholders.  Attribute right-hand
    sides and ``IN`` subqueries never reach the engines — single-comparison
    Select is the whole LQP contract — so they raise.
    """
    columns = (
        ", ".join(quote_identifier(name) for name in statement.select_list)
        if statement.select_list
        else "*"
    )
    tables = ", ".join(quote_identifier(name) for name in statement.from_tables)
    clauses: List[str] = []
    params: List[Any] = []
    for predicate in statement.where:
        if isinstance(predicate, InPredicate) or predicate.right_is_attribute:
            raise ValueError(
                "only single-comparison literal predicates reach a local "
                f"engine; got {predicate!r}"
            )
        rendered = comparison_sql(
            predicate.attribute, predicate.theta, predicate.right
        )
        if rendered is None:
            raise ValueError(
                f"predicate {predicate!r} cannot be rendered faithfully; "
                "the engine must fall back to a Python filter"
            )
        clause, clause_params = rendered
        clauses.append(clause)
        params.extend(clause_params)
    sql = f"SELECT {columns} FROM {tables}"
    if clauses:
        sql += " WHERE " + " AND ".join(clauses)
    return sql, params
