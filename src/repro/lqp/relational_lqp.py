"""An LQP over the in-memory relational engine."""

from __future__ import annotations

from typing import Any, Dict, Tuple

from repro.core.predicate import Theta
from repro.lqp.base import LocalQueryProcessor, RelationStats, compute_relation_stats
from repro.relational.database import LocalDatabase
from repro.relational.relation import Relation

__all__ = ["RelationalLQP"]


class RelationalLQP(LocalQueryProcessor):
    """Fronts a :class:`~repro.relational.database.LocalDatabase`.

    This is the standard LQP of the reproduction — the stand-in for the
    paper's MIT and commercial relational sources.  It reports the
    default :class:`~repro.lqp.base.Capabilities`: no native projection —
    the relation is already in memory, so the PQP drops dead columns at
    materialization, after the domain transforms.
    """

    def __init__(self, database: LocalDatabase):
        self._database = database
        # relation name → (id(relation) it was computed from, stats);
        # the id guards against the backing relation being swapped out.
        self._stats: Dict[str, Tuple[int, RelationStats]] = {}

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

    def relation_stats(self, relation_name: str) -> RelationStats | None:
        relation = self._database.relation(relation_name)
        cached = self._stats.get(relation_name)
        if cached is not None and cached[0] == id(relation):
            return cached[1]
        stats = compute_relation_stats(relation)
        self._stats[relation_name] = (id(relation), stats)
        return stats
