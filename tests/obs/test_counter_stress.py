"""Concurrency stress for the shared stats counters.

Many sessions hammer the same :class:`TransferStats` (LQP accounting)
and :class:`ResultCache` at once; the counters must come out exact —
a lost ``+=`` under contention is precisely the bug the internal locks
exist to prevent."""

import threading

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.cost import AccountingLQP, TransferStats
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.service.cache import ResultCache
from repro.service.federation import PolygenFederation

from tests.integration.conftest import PAPER_SQL


def _run_threads(worker, count):
    threads = [threading.Thread(target=worker, args=(i,)) for i in range(count)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestTransferStatsAtomicity:
    def test_concurrent_record_loses_no_updates(self):
        stats = TransferStats()

        class _Result:
            cardinality = 3

        workers, rounds = 8, 1500

        def work(_):
            for i in range(rounds):
                stats.record(("retrieve", "select")[i % 2], _Result())

        _run_threads(work, workers)
        assert stats.queries == workers * rounds
        assert stats.tuples_shipped == workers * rounds * 3
        assert stats.retrieves + stats.selects == workers * rounds

    def test_count_and_add_tuples_interleave_exactly(self):
        stats = TransferStats()
        workers, rounds = 8, 1000

        def work(_):
            for _ in range(rounds):
                stats.count("retrieve")
                stats.add_tuples(5)

        _run_threads(work, workers)
        assert stats.queries == stats.retrieves == workers * rounds
        assert stats.tuples_shipped == workers * rounds * 5

    def test_snapshot_and_merge_are_consistent(self):
        stats = TransferStats()

        class _Result:
            cardinality = 1

        stop = threading.Event()

        def mutate():
            while not stop.is_set():
                stats.record("retrieve", _Result())

        writer = threading.Thread(target=mutate)
        writer.start()
        try:
            for _ in range(300):
                snap = stats.snapshot()
                # Internal consistency: the kind counters always sum to
                # queries inside one snapshot, even mid-hammering.
                assert snap.retrieves + snap.selects == snap.queries
                assert snap.tuples_shipped == snap.queries
        finally:
            stop.set()
            writer.join()

    def test_accounting_lqp_counts_across_worker_threads(self):
        database = paper_databases()["AD"]
        accounted = AccountingLQP(RelationalLQP(database))
        workers, rounds = 6, 200

        def work(_):
            for _ in range(rounds):
                accounted.retrieve("BUSINESS")

        _run_threads(work, workers)
        assert accounted.stats.queries == workers * rounds
        assert accounted.stats.retrieves == workers * rounds


class TestConcurrentSessions:
    def test_federation_counters_exact_under_parallel_sessions(self):
        registry = LQPRegistry()
        for database in paper_databases().values():
            registry.register(AccountingLQP(RelationalLQP(database)))
        with PolygenFederation(
            paper_polygen_schema(),
            registry,
            resolver=paper_identity_resolver(),
        ) as federation:
            workers, rounds = 6, 4
            errors = []

            def work(index):
                try:
                    session = federation.session(f"stress-{index}", cache="on")
                    for _ in range(rounds):
                        result = session.submit(PAPER_SQL).result(timeout=30)
                        assert len(result.relation) == 3
                except Exception as exc:  # pragma: no cover - failure detail
                    errors.append(exc)

            _run_threads(work, workers)
            assert errors == []
            stats = federation.stats()
            total = workers * rounds
            assert stats.queries_submitted == total
            assert stats.queries_completed == total
            assert stats.queries_failed == stats.queries_cancelled == 0
            assert stats.queries_active == 0
            # Cache counters are coherent: every query either hit or missed.
            cache = stats.cache
            assert cache.hits + cache.misses == total
            assert cache.hits >= 1  # repeats of one plan must hit
            # Per-session metric labels: one series per stress session.
            counter = federation.metrics.counter("polygen_session_queries_total")
            assert counter.total() == total
            assert len(counter.samples()) == workers


class TestResultCacheStress:
    def test_concurrent_lookups_and_puts_keep_counters_coherent(self):
        from repro.core.relation import PolygenRelation

        cache = ResultCache(max_entries=16)
        relation = PolygenRelation.from_data(["A"], [[1]], origins=["AD"])
        workers, rounds = 8, 400

        def work(index):
            for i in range(rounds):
                key = f"fp-{(index + i) % 24}"
                if cache.lookup(key) is None:
                    cache.put(key, relation, {}, {"AD"}, cost=1.0)

        _run_threads(work, workers)
        stats = cache.stats()
        assert stats.hits + stats.misses == workers * rounds
        assert stats.entries <= 16
        assert stats.insertions >= stats.entries
