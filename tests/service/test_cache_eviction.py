"""GreedyDual eviction in the semantic result cache.

Each entry's priority is ``clock + cost``; the lowest priority is evicted
first and the clock advances to it, and a hit re-prices the entry to the
current ``clock + cost``.  The federation weighs an entry by the measured
durations of its subtree's rows, so a subtree that was slow to compute
outlives cheap ones under pressure.
"""

import threading
from itertools import combinations

import pytest

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.cost import LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.fingerprint import fingerprint_plan
from repro.relational.relation import Relation
from repro.service.cache import ResultCache
from repro.service.federation import PolygenFederation

from tests.integration.conftest import PAPER_SQL


def _put(cache, fingerprint, cost, sources=("AD",), rows=1):
    relation = Relation(["A"], [(i,) for i in range(rows)])
    return cache.put(fingerprint, relation, {}, set(sources), cost=cost)


def _federation(cache, slow="AD", per_query=0.05):
    """The paper federation with ``slow`` behind an injected delay."""
    registry = LQPRegistry()
    for name, database in paper_databases().items():
        lqp = RelationalLQP(database)
        registry.register(LatencyLQP(lqp, per_query=per_query) if name == slow else lqp)
    return PolygenFederation(
        paper_polygen_schema(),
        registry,
        resolver=paper_identity_resolver(),
        result_cache=cache,
    )


class TestGreedyDualOrder:
    def test_cheaper_of_equally_recent_entries_goes_first(self):
        cache = ResultCache(max_entries=2)
        _put(cache, "cheap", 1.0)
        _put(cache, "dear", 5.0)
        assert _put(cache, "middle", 3.0)
        assert "cheap" not in cache
        assert "dear" in cache and "middle" in cache
        assert cache.stats().evictions == 1

    def test_clock_advances_to_the_evicted_priority(self):
        cache = ResultCache(max_entries=2)
        _put(cache, "cheap", 1.0)
        _put(cache, "dear", 5.0)
        _put(cache, "middle", 3.0)  # evicts "cheap": clock 0 -> 1
        assert cache._clock == 1.0
        # At clock 0 a cost-2.5 entry (priority 2.5) would be the victim;
        # at clock 1 it is priced 3.5 and "middle" (priority 3) goes.
        assert _put(cache, "late", 2.5)
        assert "middle" not in cache
        assert "late" in cache and "dear" in cache
        assert cache._clock == 3.0

    def test_hit_reprices_to_clock_plus_cost(self):
        cache = ResultCache(max_entries=2)
        _put(cache, "cheap", 1.0)
        _put(cache, "dear", 5.0)
        _put(cache, "middle", 3.0)  # evicts "cheap": clock 1
        _put(cache, "late", 2.5)  # evicts "middle": clock 3, "late" at 3.5
        # The hit re-prices "late" to 3 + 2.5 = 5.5, above "dear"'s 5.
        assert cache.lookup("late") is not None
        assert _put(cache, "next", 2.2)  # priority 5.2
        assert "dear" not in cache
        assert "late" in cache and "next" in cache
        assert cache._clock == 5.0

    def test_splice_probe_reprices_like_a_hit(self):
        cache = ResultCache(max_entries=2)
        _put(cache, "cheap", 1.0)
        _put(cache, "dear", 5.0)
        _put(cache, "middle", 3.0)  # evicts "cheap": clock 1
        _put(cache, "late", 2.5)  # evicts "middle": clock 3, "late" at 3.5
        assert cache.splice_probe("late") is not None  # re-priced to 5.5
        assert _put(cache, "next", 2.2)  # priority 5.2
        assert "dear" not in cache
        assert "late" in cache and "next" in cache
        assert cache.stats().splices == 1

    def test_equal_costs_evict_the_least_recently_touched(self):
        cache = ResultCache(max_entries=2)
        _put(cache, "first", 1.0)
        _put(cache, "second", 1.0)
        _put(cache, "third", 1.0)  # evicts "first": clock 1
        # "second" (priority 1) is older than "third" (priority 2)...
        assert cache.lookup("second") is not None  # ...until touched: 2
        _put(cache, "fourth", 1.0)  # evicts the oldest of the ties: "third"
        assert "third" not in cache
        assert "second" in cache and "fourth" in cache

    def test_negative_cost_is_clamped_to_zero(self):
        cache = ResultCache(max_entries=2)
        _put(cache, "free", 0.0)
        _put(cache, "negative", -4.0)
        assert cache._entries["negative"].cost == 0.0
        # Both are priced 0; the older of the tie goes, not the negative one.
        _put(cache, "cheap", 0.5)
        assert "free" not in cache
        assert "negative" in cache and "cheap" in cache
        assert cache._clock == 0.0

    def test_refill_replaces_without_evicting(self):
        cache = ResultCache(max_entries=2)
        _put(cache, "a", 1.0)
        _put(cache, "b", 2.0)
        assert _put(cache, "a", 9.0)
        stats = cache.stats()
        assert stats.entries == 2 and stats.evictions == 0
        assert stats.insertions == 3
        # The refill re-priced "a" at 9, so "b" is now the victim.
        _put(cache, "c", 3.0)
        assert "b" not in cache and "a" in cache

    def test_byte_budget_evicts_by_priority_too(self):
        # Room for two ten-row entries but not three.
        cache = ResultCache(max_bytes=2 * (256 + 10 * 64) + 100)
        _put(cache, "dear", 5.0, rows=10)
        _put(cache, "cheap", 1.0, rows=10)
        assert _put(cache, "middle", 3.0, rows=10)
        assert "cheap" not in cache
        assert "dear" in cache and "middle" in cache
        assert cache._clock == 1.0
        assert cache.stats().bytes <= 2 * (256 + 10 * 64) + 100

    def test_invalidation_leaves_the_clock_alone(self):
        cache = ResultCache(max_entries=2)
        _put(cache, "cheap", 1.0, sources=("AD",))
        _put(cache, "dear", 5.0, sources=("CD",))
        _put(cache, "middle", 3.0, sources=("AD",))  # evicts "cheap": clock 1
        assert cache.invalidate("AD") == 1
        assert cache._clock == 1.0
        stats = cache.stats()
        assert stats.evictions == 1 and stats.invalidated == 1

    def test_concurrent_fills_keep_the_books_exact(self):
        cache = ResultCache(max_entries=16)
        workers, rounds = 8, 200

        def work(worker):
            for i in range(rounds):
                _put(cache, f"{worker}-{i}", float((worker * 7 + i) % 11))
                cache.lookup(f"{worker}-{i // 2}")

        threads = [threading.Thread(target=work, args=(w,)) for w in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = cache.stats()
        assert stats.insertions == workers * rounds
        assert stats.entries + stats.evictions == stats.insertions
        assert stats.entries == len(cache) == 16
        assert stats.hits + stats.misses == workers * rounds
        assert stats.bytes == 16 * (256 + 64)
        assert all(e.priority >= cache._clock for e in cache._entries.values())


def test_measured_latency_keeps_the_slow_subtree_cached():
    """A source behind an injected per-query delay makes its rows' measured
    timings, and so its cache entries, expensive; a stream of fast queries
    over another source evicts its own entries first."""
    slow = 'SELECT ANAME FROM PALUMNUS WHERE MAJOR = "IS"'
    fast = [
        f"SELECT {', '.join(columns)} FROM PSTUDENT"
        for width in (1, 2)
        for columns in combinations(("SID#", "SNAME", "GPA", "MAJOR"), width)
    ]
    cache = ResultCache(max_entries=4)
    with _federation(cache) as federation, federation.session() as session:
        first = session.execute(slow, cache="on")
        assert not first.cache_hit
        assert max(
            first.trace.timings[row.result.index].duration
            for row in first.iom
            if row.el == "AD"
        ) >= 0.05
        for query in fast:
            assert not session.execute(query, cache="on").cache_hit
        assert cache.stats().evictions > 0
        again = session.execute(slow, cache="on")
    assert again.cache_hit
    assert again.relation == first.relation
    assert again.lineage == first.lineage


def test_entry_weight_is_the_subtree_measured_time():
    """Every stored subtree is weighed by the summed durations of exactly
    the rows inside it — the trace's record, with no estimate on top."""
    cache = ResultCache()
    with _federation(cache, per_query=0.02) as federation:
        with federation.session() as session:
            result = session.execute(PAPER_SQL, cache="on")
    timings = result.trace.timings
    fingerprints = fingerprint_plan(result.iom)
    assert len(cache) == len(set(fingerprints.by_index.values()))
    for index, subtree in fingerprints.subtrees.items():
        entry = cache._entries[fingerprints.by_index[index]]
        assert entry.cost == pytest.approx(
            sum(timings[member].duration for member in subtree)
        )
    final = cache._entries[fingerprints.final]
    assert final.cost >= 0.02 * sum(1 for row in result.iom if row.el == "AD")


def test_a_spliced_subtree_keeps_its_measured_weight():
    """A subtree served by splicing runs as a near-free CACHED row; the
    fill after that run must not re-store it at that near-zero cost."""
    cache = ResultCache()
    with _federation(cache, per_query=0.03) as federation:
        with federation.session() as session:
            session.execute('SELECT ANAME FROM PALUMNUS WHERE MAJOR = "IS"', cache="on")
            weights = {fp: entry.cost for fp, entry in cache._entries.items()}
            wider = session.execute(
                'SELECT ANAME, DEGREE FROM PALUMNUS WHERE MAJOR = "IS"', cache="on"
            )
    assert wider.caching.any
    for fingerprint in wider.caching.fingerprints:
        assert weights[fingerprint] >= 0.03
        assert cache._entries[fingerprint].cost == weights[fingerprint]
