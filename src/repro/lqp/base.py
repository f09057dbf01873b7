"""The abstract Local Query Processor interface.

The paper's PQP needs exactly two operations from an LQP (§III, Table 3):

- **Retrieve** — "an LQP Restrict operation without any restricting
  condition": ship a whole local relation to the PQP, and
- **Select** — execute a single-comparison restriction locally and ship the
  result (Table 3, row 1: ``Select ALUMNUS DEG = "MBA"`` at AD).

A third verb serves the optimizer's key-set passing: **SelectIn** ships
the rows whose attribute matches one of a set of values, by the key index's
rule (:mod:`repro.storage.keyed`).  The base class answers it by filtering
a Retrieve, so every engine has it; engines that can look keys up
(SQLite, a key-value store, a server across the wire) override it.

Concrete LQPs encapsulate however their backing store answers those two
requests — an in-memory engine, CSV documents, SQLite, a server across the
network.  Results are *untagged* local relations; tagging happens when the
data arrives at the PQP (:mod:`repro.lqp.tagging`).

Everything else an engine can or cannot do is stated once, in its
:class:`Capabilities` (:meth:`LocalQueryProcessor.capabilities`); the
optimizer, the executor and the result cache read that descriptor and
nothing else, so a federation can mix engines of genuinely different
power (:mod:`repro.backends`).  One flag changes the verbs' signature: an
engine reporting ``native_projection`` accepts ``columns=`` on its
relation verbs and ships only those local columns; every other engine is
called without it and the PQP drops dead columns at materialization.
The two places differ in one corner.  A native engine (``SqliteLQP``, any
``polygen://`` source) narrows *before* the domain transform, and set
semantics then merge values that are equal under ``==`` — ``1`` and
``True`` in a column whose transform would have told them apart (``"1"``
vs ``"True"``) — so with projection pruning on, such a source can return
fewer tuples than the same query without pruning.  Engines without the
flag never do: materialization transforms first and projects after.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Dict, Iterable, Mapping, Tuple

from repro.core.predicate import Theta
from repro.relational.relation import Relation
from repro.storage.keyed import key_set

__all__ = [
    "Capabilities",
    "LocalQueryProcessor",
    "filter_in",
    "project_columns",
]


@dataclass(frozen=True)
class Capabilities:
    """What one local engine can execute natively.

    The contract between heterogeneous backends and the planner: each
    flag answers one pushdown question, and a False answer means the
    corresponding rewrite must not target this engine (the work runs at
    the PQP instead — correct either way, the capability only moves it).

    - ``native_select`` — the engine evaluates a single-comparison
      restriction itself (Python :class:`~repro.core.predicate.Theta`
      semantics, nil-rejecting).  False means :meth:`select` merely
      scan-filters a full retrieve, so pushing a selection down buys
      nothing and the optimizer leaves it at the PQP.
    - ``native_projection`` — the relation verbs accept ``columns=``
      and ship only those local columns (the executor passes it to no
      other engine).
    - ``signals_writes`` — every mutation reaching this engine flows
      through an API that notifies the federation
      (:meth:`~repro.lqp.registry.LQPRegistry.notify_refresh`).  False
      (an externally writable SQLite file, an append-only log another
      process may extend) tells the result cache it cannot rely on
      invalidation alone and must bound staleness with a TTL.
    """

    native_select: bool = True
    native_projection: bool = False
    signals_writes: bool = True

    def to_dict(self) -> Dict[str, bool]:
        """Wire form (plain JSON-safe mapping of the flags)."""
        return {
            "native_select": self.native_select,
            "native_projection": self.native_projection,
            "signals_writes": self.signals_writes,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Capabilities":
        """Rebuild from :meth:`to_dict` output.  Unknown keys are ignored
        and missing ones default, so old and new peers interoperate; a
        known flag that is not a bool raises :class:`ValueError` (``"false"``
        would otherwise read as True)."""
        known = {field: payload[field] for field in cls.__dataclass_fields__
                 if field in payload}
        for field, value in known.items():
            if not isinstance(value, bool):
                raise ValueError(
                    f"capability flag {field!r} must be a bool, got {value!r}"
                )
        return cls(**known)


def project_columns(relation: Relation, columns) -> Relation:
    """Narrow ``relation`` to ``columns`` (source-side projection).

    The order of ``columns`` is honoured; requesting an absent column
    raises, as shipping a silently different heading would corrupt the
    scheme mapping at materialization.
    """
    names = list(columns)
    if list(relation.attributes) == names:
        return relation
    return Relation.from_columns(names, [relation.column(name) for name in names])


def filter_in(relation: Relation, attribute: str, values: Iterable[Any], columns=None) -> Relation:
    """``relation``'s rows whose ``attribute`` matches a member of
    ``values`` (the :meth:`LocalQueryProcessor.select_in` rule), narrowed
    to ``columns`` when given."""
    keys = key_set(values)
    kept = [
        row
        for row, value in zip(relation.rows, relation.column(attribute))
        if value in keys
    ]
    result = Relation(relation.heading, kept)
    return result if columns is None else project_columns(result, columns)


class LocalQueryProcessor(abc.ABC):
    """Interface every local query processor implements."""

    #: How many requests this LQP can usefully serve *at once*.  The paper
    #: assumes one connection per local database, so in-process engines
    #: stay at 1 (rows at the same LQP queue); a network-backed LQP
    #: (:class:`repro.net.client.RemoteLQP`) advertises its transport's
    #: multiplexing level, and the worker pool sizes that database's
    #: worker group accordingly.  Wrappers must delegate to their inner
    #: LQP so the value survives accounting/latency decoration.
    native_concurrency: int = 1

    #: Whether this LQP's verbs spend their time outside the interpreter
    #: lock (a socket, a sleep), so rows at it can overlap rows at other
    #: sources.  An executor holding a worker pool hands a plan to it
    #: only when one of its local rows sits at such a source and another
    #: local row can run beside it; an in-process engine stays False, and
    #: plans over such engines alone run inline.  Like
    #: ``native_concurrency`` it describes the client's path to a source,
    #: not the engine behind it, so it is not a :class:`Capabilities`
    #: flag and never crosses the wire; wrappers delegate it.
    overlaps: bool = False

    def capabilities(self) -> Capabilities:
        """This engine's :class:`Capabilities` descriptor.

        The default describes a plain engine: selections run natively,
        no column projection, and all writes arrive through signalling
        APIs.  Engines with different native power override this;
        wrappers delegate to their inner LQP so decoration never masks the
        real engine's answer.
        """
        return Capabilities()

    @property
    @abc.abstractmethod
    def name(self) -> str:
        """The local database name (the paper's LD, e.g. ``"AD"``)."""

    @abc.abstractmethod
    def relation_names(self) -> Tuple[str, ...]:
        """Names of the local relations this LQP can serve."""

    @abc.abstractmethod
    def retrieve(self, relation_name: str) -> Relation:
        """Ship a whole local relation (Restrict with no condition)."""

    @abc.abstractmethod
    def select(self, relation_name: str, attribute: str, theta: Theta, value: Any) -> Relation:
        """Execute ``relation[attribute θ value]`` locally and ship the result."""

    def select_in(
        self, relation_name: str, attribute: str, values: Iterable[Any], columns=None
    ) -> Relation:
        """Ship the rows whose ``attribute`` matches a member of ``values``.

        Matching is the key index's (:func:`repro.storage.keyed.key_set`):
        Python ``==`` with hashing, so ``1``, ``True`` and ``1.0`` are one
        value, and nil or NaN matches nothing.  This default filters a
        Retrieve; ``columns`` narrows the result afterwards.
        """
        return filter_in(self.retrieve(relation_name), attribute, values, columns)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
