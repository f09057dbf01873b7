"""Interned source-tag pairs.

Every cell of a polygen relation carries an ``(origins, intermediates)``
pair of tag sets (paper, §II).  In practice almost all cells of a relation
share a handful of distinct pairs — a freshly materialized base relation has
exactly two (``({LD}, {})`` for data cells, ``({}, {})`` for nils), and each
algebra operator adds at most a few more.  Storing a ``frozenset`` pair per
cell therefore wastes both memory and time: tag propagation re-unions the
same few sets millions of times.

A :class:`TagPool` interns each distinct pair once and hands out small
integer ids.  The columnar kernels (:mod:`repro.storage.kernels`) then do
all tag propagation as memoized id arithmetic:

- :meth:`TagPool.merge` — the Project/Union rule ``(o₁∪o₂, i₁∪i₂)``,
- :meth:`TagPool.add_intermediates` — the Restrict/Difference rule
  ``(o, i∪extra)``,
- :meth:`TagPool.absorb` — the PREFER_* Coalesce rule
  ``(o_w, i_w∪i_l∪o_l)``.

Each rule computes the set algebra at most once per distinct input pair;
afterwards it is a single dict lookup.  Pools are append-only, so ids remain
valid for the life of the pool and relations sharing a pool can compare tag
ids directly.  :data:`GLOBAL_TAG_POOL` is the process-wide default every
relation uses unless told otherwise.

Interning is thread-safe: the concurrent runtime materializes relations on
per-database worker threads while the coordinator runs kernels, and all of
them intern into the shared pool.  Allocation takes a lock (double-checked,
so the hit path stays a bare dict read); the memo tables tolerate benign
races because every memoized function is deterministic and resolves through
the locked :meth:`intern`, so concurrent writers can only store the same
value under the same key.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Tuple

from repro.core.tags import EMPTY_SOURCES, SourceSet

__all__ = [
    "TagPool",
    "TagPair",
    "GLOBAL_TAG_POOL",
]

#: An interned ``(origins, intermediates)`` pair.
TagPair = Tuple[SourceSet, SourceSet]


class TagPool:
    """An append-only interning pool for ``(origins, intermediates)`` pairs.

    >>> pool = TagPool()
    >>> a = pool.intern(frozenset({"AD"}), frozenset())
    >>> a == pool.intern(frozenset({"AD"}), frozenset())
    True
    >>> pool.origins(a)
    frozenset({'AD'})
    """

    __slots__ = (
        "_pairs",
        "_ids",
        "_merge_memo",
        "_inter_memo",
        "_absorb_memo",
        "_lock",
    )

    #: Id of the fully empty pair ``({}, {})`` in every pool.
    EMPTY_ID = 0

    def __init__(self) -> None:
        self._pairs: List[TagPair] = []
        self._ids: Dict[TagPair, int] = {}
        self._merge_memo: Dict[Tuple[int, int], int] = {}
        self._inter_memo: Dict[Tuple[int, SourceSet], int] = {}
        self._absorb_memo: Dict[Tuple[int, int], int] = {}
        self._lock = threading.Lock()
        self.intern(EMPTY_SOURCES, EMPTY_SOURCES)

    # -- interning ----------------------------------------------------------

    def intern(self, origins: SourceSet, intermediates: SourceSet) -> int:
        """The id of ``(origins, intermediates)``, allocating on first sight.

        Safe to call from concurrent threads: the allocation (read-length /
        append / record-id, not atomic on its own) is double-checked under a
        lock, while the overwhelmingly common already-interned path remains
        a single lock-free dict read.
        """
        pair = (origins, intermediates)
        found = self._ids.get(pair)
        if found is not None:
            return found
        with self._lock:
            found = self._ids.get(pair)
            if found is not None:
                return found
            allocated = len(self._pairs)
            self._pairs.append(pair)
            self._ids[pair] = allocated
            return allocated

    # -- accessors ----------------------------------------------------------

    def pair(self, tag_id: int) -> TagPair:
        """The ``(origins, intermediates)`` pair behind ``tag_id``."""
        return self._pairs[tag_id]

    def origins(self, tag_id: int) -> SourceSet:
        return self._pairs[tag_id][0]

    def intermediates(self, tag_id: int) -> SourceSet:
        return self._pairs[tag_id][1]

    def __len__(self) -> int:
        """Number of distinct pairs interned so far."""
        return len(self._pairs)

    def __contains__(self, pair: object) -> bool:
        return pair in self._ids

    # -- tag algebra (memoized) --------------------------------------------

    def merge(self, a: int, b: int) -> int:
        """Component-wise union — the Project/Union/Coalesce merge rule.

        ``merge(a, b) == intern(o_a | o_b, i_a | i_b)``; commutative, so the
        memo is keyed on the ordered id pair.
        """
        if a == b:
            return a
        if a > b:
            a, b = b, a
        key = (a, b)
        found = self._merge_memo.get(key)
        if found is not None:
            return found
        origins_a, inters_a = self._pairs[a]
        origins_b, inters_b = self._pairs[b]
        merged = self.intern(origins_a | origins_b, inters_a | inters_b)
        self._merge_memo[key] = merged
        return merged

    def add_intermediates(self, tag_id: int, extra: SourceSet) -> int:
        """The Restrict/Difference update ``(o, i) → (o, i ∪ extra)``.

        Returns ``tag_id`` unchanged when ``extra`` adds nothing, keeping the
        common case a dict hit with no allocation.
        """
        if not extra:
            return tag_id
        key = (tag_id, extra)
        found = self._inter_memo.get(key)
        if found is not None:
            return found
        origins, intermediates = self._pairs[tag_id]
        if extra <= intermediates:
            result = tag_id
        else:
            result = self.intern(origins, intermediates | extra)
        self._inter_memo[key] = result
        return result

    def absorb(self, winner: int, loser: int) -> int:
        """The PREFER_LEFT/PREFER_RIGHT Coalesce rule: keep the winner's
        datum and origins, record everything of the loser as intermediates:
        ``(o_w, i_w ∪ i_l ∪ o_l)``.
        """
        key = (winner, loser)
        found = self._absorb_memo.get(key)
        if found is not None:
            return found
        origins_w, inters_w = self._pairs[winner]
        origins_l, inters_l = self._pairs[loser]
        result = self.intern(origins_w, inters_w | inters_l | origins_l)
        self._absorb_memo[key] = result
        return result

    def __repr__(self) -> str:
        return f"TagPool(pairs={len(self._pairs)})"


#: The process-wide default pool.  All relations built through the public
#: constructors share it, which makes tag ids directly comparable across
#: relations and lets operator chains reuse each other's memo entries.
#:
#: Being append-only, the pool (and its memos) grows monotonically with the
#: number of *distinct* tag pairs ever produced — small in practice (tags
#: are sets over the federation's database names), but unbounded over a
#: process serving arbitrarily many federations.  Long-lived services that
#: need reclamation can scope relations to a private ``TagPool`` via the
#: ``pool`` parameters on the :mod:`repro.storage.columnar` constructors;
#: kernels translate operands across pools automatically.
GLOBAL_TAG_POOL = TagPool()
