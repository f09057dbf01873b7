"""Tag-aware semantic result cache with precise source-tag invalidation.

Federated traffic is dominated by *repeated* queries, and the polygen
model gives this cache something ordinary federated caches lack: every
materialized result already carries the exact set of databases that
produced it (origin tags) or were consulted along the way (intermediate
tags).  Entries therefore store their **tag set** — the union of the
relation's :meth:`~repro.core.relation.PolygenRelation.contributing_sources`
and the plan subtree's shipped/consulted databases — and invalidation is
*precise*: touching database ``D`` evicts exactly the entries whose tag
set contains ``D``, never a conservative superset.

Keys are structural plan fingerprints (:mod:`repro.pqp.fingerprint`), so a
hit can serve a whole query *or* any subtree of a larger plan (the
federation splices subtree hits back into the matrix as pre-materialized
:attr:`~repro.pqp.matrix.Operation.CACHED` rows).

Eviction is **GreedyDual** — LRU blended with measured recompute time.
Each entry's priority is ``clock + cost`` where ``cost`` is the seconds the
trace measured computing the subtree (its rows' summed
:class:`~repro.pqp.executor.RowTiming` durations); the clock advances to
the evicted priority, so cheap entries age out first while an expensive
straggler-heavy plan outlives many touches of cheaper neighbours.  A hit
refreshes the entry's priority, giving the LRU half of the blend.

Insertions are **epoch-guarded** against a classic stale-fill race: a
query snapshots :meth:`ResultCache.tick` before executing, and a fill is
rejected when any of its sources was invalidated after the snapshot — a
result computed from pre-invalidation data can never enter the cache
after the invalidation.

Precise invalidation assumes every write is *announced* — but a
federation of real backends (:mod:`repro.backends`) includes engines
whose capabilities report ``signals_writes=False``: an external SQLite
file or an append-only log directory another process may extend without
telling anyone.  Entries touching such sources carry a **TTL**
(``max_age`` on :meth:`ResultCache.put`, or a per-database
:meth:`ResultCache.set_max_age` policy): past it, a probe treats the
entry as expired — dropped and counted a miss — so no entry can serve
unboundedly stale rows no matter how silent its sources are.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, FrozenSet, Optional

from repro.pqp.executor import Lineage
from repro.pqp.matrix import CachedResult

__all__ = ["CacheStats", "ResultCache"]

#: Approximate per-cell footprint of a columnar relation (value + shared
#: interned tag id, amortized).  The bound is a budget, not an audit.
_BYTES_PER_CELL = 64
_BYTES_PER_ENTRY = 256


@dataclass(frozen=True)
class CacheStats:
    """A consistent snapshot of the cache's counters."""

    hits: int
    misses: int
    #: subtree hits served by splicing into a larger plan.
    splices: int
    insertions: int
    #: entries dropped to stay within capacity.
    evictions: int
    #: entries dropped by precise tag invalidation.
    invalidated: int
    #: invalidation events (``invalidate(database)`` calls).
    invalidations: int
    entries: int
    bytes: int
    #: entries dropped because their TTL lapsed (each also counts a miss).
    expired: int = 0

    @property
    def hit_rate(self) -> float:
        probes = self.hits + self.misses
        return self.hits / probes if probes else 0.0

    def render(self) -> str:
        return (
            f"cache: {self.entries} entries / {self.bytes} bytes, "
            f"{self.hits} hits ({self.hit_rate:.0%}), {self.misses} misses, "
            f"{self.splices} splices, {self.evictions} evicted, "
            f"{self.invalidated} invalidated in {self.invalidations} event(s)"
        )


@dataclass
class _Entry:
    fingerprint: str
    relation: object
    lineage: Lineage
    sources: FrozenSet[str]
    cost: float
    bytes: int
    priority: float
    #: Monotonic deadline after which the entry is stale; ``None`` means
    #: invalidation alone governs it (all sources signal their writes).
    expires_at: Optional[float] = None

    def payload(self) -> CachedResult:
        return CachedResult(
            fingerprint=self.fingerprint,
            relation=self.relation,
            lineage=self.lineage,
            sources=tuple(sorted(self.sources)),
        )


class ResultCache:
    """Bounded, thread-safe fingerprint → materialized-result cache."""

    def __init__(
        self,
        max_entries: int = 512,
        max_bytes: int = 64 * 2**20,
        default_max_age: Optional[float] = None,
        clock: Callable[[], float] = time.monotonic,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_bytes < 1:
            raise ValueError("max_bytes must be at least 1")
        if default_max_age is not None and default_max_age <= 0:
            raise ValueError("default_max_age must be positive seconds")
        self._max_entries = max_entries
        self._max_bytes = max_bytes
        #: TTL applied to every fill that does not bring its own tighter
        #: bound; ``None`` trusts invalidation alone.
        self._default_max_age = default_max_age
        #: Injected monotonic clock (tests freeze time with it).
        self._now = clock
        #: database → explicit staleness bound (seconds) for entries that
        #: touch it; see :meth:`set_max_age`.
        self._max_ages: Dict[str, float] = {}
        self._lock = threading.RLock()
        self._entries: Dict[str, _Entry] = {}
        self._bytes = 0
        #: GreedyDual aging clock: advances to each evicted priority.
        self._clock = 0.0
        #: database → value of ``_events`` at its last invalidation.
        self._epochs: Dict[str, int] = {}
        #: total invalidation events ever (the epoch counter).
        self._events = 0
        self._hits = 0
        self._misses = 0
        self._splices = 0
        self._insertions = 0
        self._evictions = 0
        self._invalidated = 0
        self._expired = 0

    # -- staleness policy ----------------------------------------------------

    def set_max_age(self, database: str, max_age: Optional[float]) -> None:
        """Bound the staleness of every entry touching ``database`` to
        ``max_age`` seconds (``None`` removes the bound).  The federation
        sets this for sources whose capabilities report
        ``signals_writes=False`` — invalidation cannot be trusted there,
        so age becomes the only safety."""
        with self._lock:
            if max_age is None:
                self._max_ages.pop(database, None)
            elif max_age <= 0:
                raise ValueError("max_age must be positive seconds")
            else:
                self._max_ages[database] = max_age

    def max_age_for(self, database: str) -> Optional[float]:
        """The explicit per-database staleness bound, if one is set."""
        with self._lock:
            return self._max_ages.get(database)

    def _deadline(self, sources: FrozenSet[str], max_age: Optional[float]):
        """The entry's expiry instant: the tightest of the explicit
        ``max_age`` argument, every source's policy bound, and the default."""
        bounds = [max_age, self._default_max_age]
        bounds.extend(self._max_ages.get(database) for database in sources)
        effective = [bound for bound in bounds if bound is not None]
        if not effective:
            return None
        return self._now() + min(effective)

    def _fresh(self, entry: _Entry) -> bool:
        """Drop-if-expired; False means the entry no longer exists."""
        if entry.expires_at is None or self._now() < entry.expires_at:
            return True
        del self._entries[entry.fingerprint]
        self._bytes -= entry.bytes
        self._expired += 1
        return False

    # -- probes --------------------------------------------------------------

    def lookup(self, fingerprint: str) -> Optional[CachedResult]:
        """A whole-query probe: counts a hit or a miss, refreshes priority.
        An expired entry is dropped and counted a miss — staleness past
        the TTL is indistinguishable from absence."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None or not self._fresh(entry):
                self._misses += 1
                return None
            self._hits += 1
            entry.priority = self._clock + entry.cost
            return entry.payload()

    def splice_probe(self, fingerprint: str) -> Optional[CachedResult]:
        """A subtree probe during splicing: a find counts as a splice hit,
        a miss counts nothing (every row of every plan is probed)."""
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None or not self._fresh(entry):
                return None
            self._splices += 1
            entry.priority = self._clock + entry.cost
            return entry.payload()

    def __contains__(self, fingerprint: str) -> bool:
        with self._lock:
            entry = self._entries.get(fingerprint)
            if entry is None:
                return False
            return entry.expires_at is None or self._now() < entry.expires_at

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- fills ---------------------------------------------------------------

    def tick(self) -> int:
        """Snapshot the invalidation epoch; pass to :meth:`put` as ``as_of``."""
        with self._lock:
            return self._events

    def put(
        self,
        fingerprint: str,
        relation,
        lineage: Lineage,
        sources,
        cost: float = 0.0,
        as_of: Optional[int] = None,
        max_age: Optional[float] = None,
    ) -> bool:
        """Insert (or refresh) an entry; returns whether it was admitted.

        ``sources`` is the entry's invalidation tag set.  ``as_of`` is a
        :meth:`tick` snapshot taken before the result was computed: the
        fill is refused when any source was invalidated since, because the
        result may predate the invalidation it should have observed.
        ``max_age`` bounds this entry's staleness in seconds; it combines
        with the per-database :meth:`set_max_age` policy and the cache's
        ``default_max_age`` — the tightest bound wins.
        """
        tags = frozenset(sources)
        size = _BYTES_PER_ENTRY + relation.cardinality * relation.degree * _BYTES_PER_CELL
        with self._lock:
            if as_of is not None and any(
                self._epochs.get(database, 0) > as_of for database in tags
            ):
                return False
            if size > self._max_bytes:
                return False
            previous = self._entries.pop(fingerprint, None)
            if previous is not None:
                self._bytes -= previous.bytes
            entry = _Entry(
                fingerprint=fingerprint,
                relation=relation,
                lineage=dict(lineage),
                sources=tags,
                cost=max(cost, 0.0),
                bytes=size,
                priority=self._clock + max(cost, 0.0),
                expires_at=self._deadline(tags, max_age),
            )
            self._entries[fingerprint] = entry
            self._bytes += size
            self._insertions += 1
            self._shrink()
            return fingerprint in self._entries

    def _shrink(self) -> None:
        """Evict lowest-priority entries until within both bounds."""
        while len(self._entries) > self._max_entries or self._bytes > self._max_bytes:
            victim = min(self._entries.values(), key=attrgetter("priority"))
            del self._entries[victim.fingerprint]
            self._bytes -= victim.bytes
            self._clock = max(self._clock, victim.priority)
            self._evictions += 1

    # -- invalidation ----------------------------------------------------------

    def invalidate(self, database: str) -> int:
        """Evict exactly the entries whose tag set contains ``database``;
        returns how many were dropped.  Also bumps the database's epoch so
        in-flight fills that consulted it before this call are refused."""
        with self._lock:
            self._events += 1
            self._epochs[database] = self._events
            victims = [
                entry
                for entry in self._entries.values()
                if database in entry.sources
            ]
            for entry in victims:
                del self._entries[entry.fingerprint]
                self._bytes -= entry.bytes
            self._invalidated += len(victims)
            return len(victims)

    def clear(self) -> int:
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._bytes = 0
            return dropped

    # -- introspection -----------------------------------------------------------

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                splices=self._splices,
                insertions=self._insertions,
                evictions=self._evictions,
                invalidated=self._invalidated,
                invalidations=self._events,
                entries=len(self._entries),
                bytes=self._bytes,
                expired=self._expired,
            )
