"""The abstract Local Query Processor interface.

The PQP needs exactly two operations from an LQP (paper, §III, Table 3):

- **Retrieve** — "an LQP Restrict operation without any restricting
  condition": ship a whole local relation to the PQP, and
- **Select** — execute a single-comparison restriction locally and ship the
  result (Table 3, row 1: ``Select ALUMNUS DEG = "MBA"`` at AD).

Concrete LQPs encapsulate however their backing store answers those two
requests — an in-memory engine, CSV documents, SQLite, a server across the
network.  Results are *untagged* local relations; tagging happens when the
data arrives at the PQP (:mod:`repro.lqp.tagging`).

Two optional verbs split one hot scan into disjoint partial operations
(:mod:`repro.pqp.shard`): **retrieve_range** / **select_range** restrict a
Retrieve (or a Select) to a half-open key interval ``[lower, upper)``.
The defaults here filter a full Retrieve/Select; engines with real indexes
override them.  **relation_stats** is catalog metadata the shard planner
reads without shipping data.

Everything else an engine can or cannot do is stated once, in its
:class:`Capabilities` (:meth:`LocalQueryProcessor.capabilities`); the
optimizer, the shard pass, the executor and the result cache read that
descriptor and nothing else, so a federation can mix engines of genuinely
different power (:mod:`repro.backends`).  One flag changes the verbs'
signature: an engine reporting ``native_projection`` accepts ``columns=``
on all four verbs and ships only those local columns; every other engine
is called without it and the PQP drops dead columns at materialization.
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
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.core.predicate import Theta
from repro.relational.relation import Relation

__all__ = [
    "Capabilities",
    "ColumnStats",
    "LocalQueryProcessor",
    "RelationStats",
    "compute_relation_stats",
    "key_in_range",
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
    - ``native_range`` — key-interval access (``retrieve_range`` /
      ``select_range``) uses a real access path rather than the
      filter-a-full-scan default.
    - ``native_projection`` — all four relation verbs accept ``columns=``
      and ship only those local columns (the executor passes it to no
      other engine).
    - ``splittable_scans`` — one relation may be scanned as several
      concurrent key-range shards (:mod:`repro.pqp.shard`).  Engines
      that serialize every request anyway — or re-read a log per verb —
      advertise False and keep their scans whole.
    - ``signals_writes`` — every mutation reaching this engine flows
      through an API that notifies the federation
      (:meth:`~repro.lqp.registry.LQPRegistry.notify_refresh`).  False
      (an externally writable SQLite file, an append-only log another
      process may extend) tells the result cache it cannot rely on
      invalidation alone and must bound staleness with a TTL.
    """

    native_select: bool = True
    native_range: bool = False
    native_projection: bool = False
    splittable_scans: bool = True
    signals_writes: bool = True

    def to_dict(self) -> Dict[str, bool]:
        """Wire form (plain JSON-safe mapping of the flags)."""
        return {
            "native_select": self.native_select,
            "native_range": self.native_range,
            "native_projection": self.native_projection,
            "splittable_scans": self.splittable_scans,
            "signals_writes": self.signals_writes,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Capabilities":
        """Rebuild from :meth:`to_dict` output.  Unknown keys are ignored
        and missing ones default, so old and new peers interoperate."""
        known = {field: bool(payload[field]) for field in cls.__dataclass_fields__
                 if field in payload}
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


@dataclass(frozen=True)
class ColumnStats:
    """Summary of one column: extrema over comparable non-nil values.

    ``minimum``/``maximum`` are ``None`` when the column has no non-nil
    values *or* mixes incomparable types (then no total order exists to
    split on).  ``nils`` counts missing values either way.
    """

    minimum: Optional[Any]
    maximum: Optional[Any]
    nils: int

    @property
    def splittable(self) -> bool:
        """Whether a range partitioner can cut this column: known numeric
        extrema with genuine spread."""
        return (
            isinstance(self.minimum, (int, float))
            and not isinstance(self.minimum, bool)
            and isinstance(self.maximum, (int, float))
            and not isinstance(self.maximum, bool)
            and self.minimum < self.maximum
        )


@dataclass(frozen=True)
class RelationStats:
    """Catalog summary of one local relation: cardinality + column stats."""

    cardinality: int
    columns: Mapping[str, ColumnStats]


def compute_relation_stats(relation: Relation) -> RelationStats:
    """One pass over ``relation`` producing its :class:`RelationStats`.

    Columns whose non-nil values are not mutually comparable (mixed str/int,
    say) get ``None`` extrema — :attr:`ColumnStats.splittable` is then
    False and the shard planner leaves them alone.
    """
    columns: Dict[str, ColumnStats] = {}
    for attribute, values in zip(relation.attributes, relation.columns):
        minimum: Optional[Any] = None
        maximum: Optional[Any] = None
        nils = 0
        comparable = True
        for value in values:
            if value is None:
                nils += 1
                continue
            if not comparable:
                continue
            try:
                if minimum is None or value < minimum:
                    minimum = value
                if maximum is None or value > maximum:
                    maximum = value
            except TypeError:
                comparable = False
        if not comparable:
            minimum = maximum = None
        columns[attribute] = ColumnStats(minimum=minimum, maximum=maximum, nils=nils)
    return RelationStats(cardinality=relation.cardinality, columns=columns)


def key_in_range(
    value: Any,
    lower: Optional[Any],
    upper: Optional[Any],
    include_nil: bool,
) -> bool:
    """Membership test for the half-open shard interval ``[lower, upper)``.

    A ``None`` bound is unbounded on that side.  Nil values — and values
    that cannot be compared against the bounds at all — belong to the
    ``include_nil`` shard: the partitioner must place *every* tuple in
    exactly one shard even when the column drifted since stats were taken.
    """
    if value is None:
        return include_nil
    try:
        if lower is not None and not value >= lower:
            return False
        if upper is not None and not value < upper:
            return False
    except TypeError:
        return include_nil
    return True


def _key_range_shard(
    relation: Relation,
    key_attribute: str,
    lower: Optional[Any],
    upper: Optional[Any],
    include_nil: bool,
    columns,
) -> Relation:
    """The tuples of ``relation`` whose key lies in ``[lower, upper)``,
    narrowed to ``columns`` when given — the filter the default range
    verbs share.  The key column picks the row positions once; only the
    shipped columns are then gathered."""
    keep = [
        index
        for index, value in enumerate(relation.column(key_attribute))
        if key_in_range(value, lower, upper, include_nil)
    ]
    names = relation.attributes if columns is None else list(columns)
    return Relation.from_columns(
        names, [[column[index] for index in keep] for column in map(relation.column, names)]
    )


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

    def capabilities(self) -> Capabilities:
        """This engine's :class:`Capabilities` descriptor.

        The default describes a plain engine: selections run natively,
        ranges fall back to filtered full scans, no column projection,
        scans may be split, and all writes arrive through signalling APIs.
        Engines with different native power override this; wrappers
        delegate to their inner LQP so decoration never masks the real
        engine's answer.
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

    def relation_stats(self, relation_name: str) -> RelationStats | None:
        """Catalog summary for the shard planner, if cheaply known.

        This is metadata, not data: the answer must not ship tuples to the
        PQP.  ``None`` (the default) means this engine keeps no such
        summary — the shard planner then leaves the relation's Retrieve
        unsplit.
        """
        return None

    def retrieve_range(
        self,
        relation_name: str,
        attribute: str,
        lower: Any = None,
        upper: Any = None,
        include_nil: bool = False,
        columns=None,
    ) -> Relation:
        """Ship the tuples whose ``attribute`` lies in ``[lower, upper)``.

        One key-range partial scan of a sharded Retrieve.  ``include_nil``
        marks the shard that additionally owns nil (and non-comparable)
        key values, so a family of shards covering ``(-inf, +inf)`` with
        exactly one ``include_nil=True`` member partitions the relation.

        ``columns`` (passed only to an engine reporting
        ``native_projection``) narrows the shipped heading to the named
        local columns — the key attribute need not be among
        them; it is consulted before the projection drops it.

        The default filters a full :meth:`retrieve` — correct everywhere,
        and still a win because the *shipping* and PQP-side tagging of
        each shard proceed in parallel.  Engines with real range access
        paths should override it.
        """
        return _key_range_shard(
            self.retrieve(relation_name), attribute, lower, upper, include_nil, columns
        )

    def select_range(
        self,
        relation_name: str,
        attribute: str,
        theta: Theta,
        value: Any,
        key_attribute: str,
        lower: Any = None,
        upper: Any = None,
        include_nil: bool = False,
        columns=None,
    ) -> Relation:
        """Execute ``relation[attribute θ value]`` restricted to the tuples
        whose ``key_attribute`` lies in the shard interval ``[lower, upper)``.

        The Select counterpart of :meth:`retrieve_range`: one member of a
        key-range family splitting a hot *selection* (not just a scan)
        into disjoint partial selections.  The interval semantics —
        half-open bounds, the ``include_nil`` shard owning nil and
        non-comparable keys — are exactly :func:`key_in_range`'s.

        The default filters a full :meth:`select`; engines with composite
        access paths should override it.
        """
        return _key_range_shard(
            self.select(relation_name, attribute, theta, value),
            key_attribute, lower, upper, include_nil, columns,
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
