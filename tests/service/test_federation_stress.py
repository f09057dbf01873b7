"""Multi-user stress: one federation, many sessions, zero thread churn.

The acceptance bar for the service redesign: one
:class:`~repro.service.federation.PolygenFederation` serves at least eight
concurrent sessions with results tag-identical to the serial executor, its
per-database worker pool survives across queries (no thread creation after
warmup), and shutdown through the context manager leaves nothing running.
"""

import threading

import pytest

from repro.datasets.paper import (
    build_paper_federation,
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.cost import LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.service.federation import PolygenFederation

from tests.integration.conftest import PAPER_SQL

#: Concurrent sessions (the acceptance floor is 8) × queries per session.
SESSIONS = 8
QUERIES_PER_SESSION = 3

#: A mixed workload: SQL and algebra, joins, merges, pushdown-eligible
#: selections — every query exercises tags across all three databases.
WORKLOAD = [
    PAPER_SQL,
    '((((PALUMNUS [DEGREE = "MBA"]) [AID# = AID#] PCAREER)'
    " [ONAME = ONAME] PORGANIZATION) [CEO = ANAME]) [ONAME, CEO]",
    "(PORGANIZATION [ONAME, INDUSTRY, CEO])",
    '(PCAREER [POSITION = "CEO"]) [ONAME]',
    'SELECT ONAME, HEADQUARTERS FROM PORGANIZATION WHERE INDUSTRY = "Banking"',
]


def _federation(overlapping=False, **kwargs) -> PolygenFederation:
    """The paper's federation in memory; ``overlapping`` puts each source
    behind a zero-delay :class:`LatencyLQP`, which overlaps, so the
    concurrent engine pools plans over them."""
    registry = LQPRegistry()
    for database in paper_databases().values():
        lqp = RelationalLQP(database)
        registry.register(LatencyLQP(lqp, per_query=0.0) if overlapping else lqp)
    return PolygenFederation(
        paper_polygen_schema(),
        registry,
        resolver=paper_identity_resolver(),
        **kwargs,
    )


@pytest.fixture(scope="module")
def serial_reference():
    """Every workload query answered by the serial, single-user facade."""
    facade = build_paper_federation()
    return [
        facade.run_sql(q) if q.lstrip().upper().startswith("SELECT") else facade.run_algebra(q)
        for q in WORKLOAD
    ]


@pytest.mark.parametrize("overlapping", [False, True], ids=["inline", "pooled"])
def test_eight_sessions_concurrent_submits_are_tag_identical(serial_reference, overlapping):
    """N session threads × M in-flight submits each: every result —
    relation, tags, lineage — equals the serial executor's, whether the
    plans run inline on their coordinators or their same-database rows
    queue on the shared worker pool."""
    failures = []
    with _federation(overlapping, max_concurrent_queries=SESSIONS) as federation:

        def user(user_index: int) -> None:
            try:
                with federation.session(name=f"user-{user_index}") as session:
                    picks = [
                        (user_index + offset) % len(WORKLOAD)
                        for offset in range(QUERIES_PER_SESSION)
                    ]
                    handles = [(pick, session.submit(WORKLOAD[pick])) for pick in picks]
                    for pick, handle in handles:
                        result = handle.result(timeout=60)
                        expected = serial_reference[pick]
                        assert result.relation == expected.relation, WORKLOAD[pick]
                        assert result.lineage == expected.lineage, WORKLOAD[pick]
            except BaseException as exc:  # surfaces in the main thread
                failures.append((user_index, exc))

        threads = [
            threading.Thread(target=user, args=(index,), name=f"stress-user-{index}")
            for index in range(SESSIONS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
        stats = federation.stats()

    assert not failures, failures[:3]
    assert stats.queries_submitted == SESSIONS * QUERIES_PER_SESSION
    assert stats.queries_completed == SESSIONS * QUERIES_PER_SESSION
    assert stats.queries_failed == 0


def test_worker_pool_survives_across_queries_without_churn():
    """After one warmup query the pool owns exactly one thread per
    database, and many further queries reuse those same threads."""
    with _federation(overlapping=True) as federation:
        session = federation.session()
        session.execute(PAPER_SQL)  # warmup: creates the per-DB workers
        warm_names = federation.pool.thread_names()
        assert len(warm_names) == 3  # AD, PD, CD
        warm_threads = {
            t.name: t.ident for t in threading.enumerate() if t.name in warm_names
        }

        for round_index in range(10):
            session.execute(WORKLOAD[round_index % len(WORKLOAD)])

        assert federation.pool.thread_names() == warm_names
        after = {
            t.name: t.ident for t in threading.enumerate() if t.name in warm_names
        }
        # Same names AND same thread identities: nothing was respawned.
        assert after == warm_threads


def test_context_manager_shutdown_is_clean():
    with _federation(overlapping=True) as federation:
        with federation.session() as session:
            handles = [session.submit(q) for q in WORKLOAD]
            for handle in handles:
                handle.result(timeout=60)
        worker_names = set(federation.pool.thread_names())
    # The with-block closed the federation: pool refuses work, workers
    # joined, sessions detached.
    assert federation.closed and federation.pool.closed
    assert not (worker_names & {t.name for t in threading.enumerate()})
    assert federation.stats().sessions_open == 0
