"""Per-query execution options, collapsed into one immutable dataclass.

The historical :class:`~repro.pqp.processor.PolygenQueryProcessor` grew a
pile of constructor flags (``optimize``, ``concurrent``,
``prune_projections``, …) that froze one behaviour into each processor
instance.  A federation serves many users with different needs, so the same
knobs live here instead: a :class:`QueryOptions` is defaulted on the
federation, optionally specialized per session, and overridable per
``submit()`` call — resolution is just :meth:`QueryOptions.replace`.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from repro.core.cell import ConflictPolicy

__all__ = ["QueryOptions"]

#: The two execution engines a query can request.
_ENGINES = ("serial", "concurrent")

#: Valid ``optimize`` settings: the rewrite pipeline on or off.
_OPTIMIZE_MODES = (True, False)

#: Valid ``cache`` settings for the semantic result cache
#: (:mod:`repro.service.cache`).
_CACHE_MODES = ("off", "on", "refresh")


@dataclass(frozen=True)
class QueryOptions:
    """How one query should be planned and executed.

    - ``engine`` — ``"concurrent"`` (the service default) runs a plan in
      dependency order on the coordinating thread unless one of its local
      rows sits at a source that overlaps (a ``polygen://`` server, a
      :class:`~repro.lqp.cost.LatencyLQP`) and another local row can run
      beside it; only such a plan drives its DAG over the shared
      per-database worker pool.  ``"serial"`` holds no pool, so every
      plan runs on the coordinating thread.  Under either, a spine whose
      head source ships chunks streams (:mod:`repro.pqp.stream`).
    - ``optimize`` / ``prune_projections`` — the optimizer master switch
      and its one optional rewrite (dead-column pruning at
      materialization).
    - ``policy`` — the Merge/Coalesce conflict policy.
    - ``fetch_size`` — how many result tuples a streaming cursor hands out
      per batch of a result that did not stream.  A streamed batch is
      what the source shipped: a ``polygen://`` server's ``chunk_size``,
      in the encoding its connection chose
      (:class:`~repro.net.client.RemoteLQP`'s ``wire_format``); neither
      is a query option.
    - ``cache`` — the semantic result cache (:mod:`repro.service.cache`):
      ``"off"`` (the default) bypasses it entirely; ``"on"`` consults it
      before execution (whole-plan hits return instantly, cached subtrees
      are spliced into the plan as pre-materialized inputs) and stores
      fresh results; ``"refresh"`` skips consultation but still stores —
      a forced recomputation that repopulates the cache.
    - ``slow_query_ms`` — the slow-query log threshold
      (:mod:`repro.obs.events`): a query whose end-to-end wall time
      reaches this many milliseconds emits a ``slow_query`` event on the
      federation's event log (plan fingerprint, shape, cache disposition,
      per-LQP busy time, consulted sources).  ``None`` (the default)
      disables the log.
    """

    engine: str = "concurrent"
    optimize: bool = True
    prune_projections: bool = False
    policy: ConflictPolicy = ConflictPolicy.DROP
    fetch_size: int = 64
    cache: str = "off"
    slow_query_ms: Optional[float] = None

    def __new__(cls, *args, **kwargs):
        # An unknown keyword (a typo, or a retired knob) is a ValueError
        # naming it, not the dataclass's TypeError; replace() lands here too.
        unknown = set(kwargs) - _FIELD_NAMES
        if unknown:
            raise ValueError(
                f"unknown QueryOptions field(s): {', '.join(sorted(unknown))}"
            )
        return super().__new__(cls)

    def __post_init__(self):
        """Validate every field at construction.

        A typo'd or ill-typed knob must fail loudly *here*: these options
        flow through three levels of defaulting (federation → session →
        submit), and a value that merely truthy-coerces — ``engine=0``,
        ``prune_projections="no"`` — would otherwise silently run the query with
        behaviour the caller never asked for.  Every rejection names the
        offending field.
        """
        if not isinstance(self.engine, str) or self.engine not in _ENGINES:
            raise ValueError(
                f"engine must be one of {_ENGINES}, got {self.engine!r}"
            )
        # Equality, not identity: the historical facade accepted any 0/1
        # truthy optimize (``optimize=1`` == True), and that tolerance is
        # part of its unchanged-signature contract.
        if self.optimize not in _OPTIMIZE_MODES:
            raise ValueError(
                f"optimize must be one of {_OPTIMIZE_MODES}, got {self.optimize!r}"
            )
        if not isinstance(self.prune_projections, bool):
            raise ValueError(
                f"prune_projections must be a bool, got {self.prune_projections!r} "
                f"({type(self.prune_projections).__name__})"
            )
        if not isinstance(self.policy, ConflictPolicy):
            raise ValueError(
                f"policy must be a ConflictPolicy, got {self.policy!r} "
                f"({type(self.policy).__name__})"
            )
        if isinstance(self.fetch_size, bool) or not isinstance(self.fetch_size, int):
            raise ValueError(
                f"fetch_size must be an int, got {self.fetch_size!r} "
                f"({type(self.fetch_size).__name__})"
            )
        if self.fetch_size < 1:
            raise ValueError(f"fetch_size must be >= 1, got {self.fetch_size}")
        if not isinstance(self.cache, str) or self.cache not in _CACHE_MODES:
            raise ValueError(
                f"cache must be one of {_CACHE_MODES}, got {self.cache!r}"
            )
        if self.slow_query_ms is not None:
            if isinstance(self.slow_query_ms, bool) or not isinstance(
                self.slow_query_ms, (int, float)
            ):
                raise ValueError(
                    f"slow_query_ms must be a number of milliseconds or None, "
                    f"got {self.slow_query_ms!r} "
                    f"({type(self.slow_query_ms).__name__})"
                )
            if self.slow_query_ms < 0:
                raise ValueError(
                    f"slow_query_ms must be >= 0, got {self.slow_query_ms}"
                )

    def replace(self, **overrides) -> "QueryOptions":
        """A copy with ``overrides`` applied; unknown names raise
        :class:`ValueError` naming the bogus field.

        This is the per-call resolution step: federation defaults →
        session defaults → ``submit(..., **overrides)`` — which is exactly
        where a typo'd keyword (``submit(q, engin="serial")``) would
        otherwise vanish into ``**overrides`` and become a silent no-op.
        """
        if not overrides:
            return self
        return dataclasses.replace(self, **overrides)


_FIELD_NAMES = frozenset(field.name for field in dataclasses.fields(QueryOptions))
