"""An LQP over the in-memory relational engine."""

from __future__ import annotations

from typing import Any, Iterable, Tuple

from repro.core.predicate import Theta
from repro.lqp.base import LocalQueryProcessor, project_columns
from repro.relational.database import LocalDatabase
from repro.relational.relation import Relation

__all__ = ["RelationalLQP"]


class RelationalLQP(LocalQueryProcessor):
    """Fronts a :class:`~repro.relational.database.LocalDatabase`.

    This is the standard LQP of the reproduction — the stand-in for the
    paper's MIT and commercial relational sources.  It reports the
    default :class:`~repro.lqp.base.Capabilities`: no native projection —
    the relation is already in memory, so the PQP drops dead columns at
    materialization, after the domain transforms.  ``=`` Select and
    SelectIn read the database's equality index; the other comparisons
    scan the relation.
    """

    def __init__(self, database: LocalDatabase):
        self._database = database

    @property
    def name(self) -> str:
        return self._database.name

    @property
    def database(self) -> LocalDatabase:
        return self._database

    def relation_names(self) -> Tuple[str, ...]:
        return self._database.relation_names()

    def retrieve(self, relation_name: str) -> Relation:
        return self._database.relation(relation_name)

    def select(self, relation_name: str, attribute: str, theta: Theta, value: Any) -> Relation:
        return self._database.select(relation_name, attribute, theta, value)

    def select_in(
        self, relation_name: str, attribute: str, values: Iterable[Any], columns=None
    ) -> Relation:
        result = self._database.select_in(relation_name, attribute, values)
        return result if columns is None else project_columns(result, columns)
