"""Unit tests for the PolygenFederation service API."""

import threading

import pytest

from repro.core.cell import ConflictPolicy
from repro.datasets.paper import (
    build_paper_federation,
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.errors import (
    ExecutionError,
    QueryCancelledError,
    ServiceClosedError,
    SqlParseError,
    TranslationError,
)
from repro.lqp.cost import LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net import LQPServer
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions

from tests.integration.conftest import PAPER_SQL

PAPER_ALGEBRA = (
    '((((PALUMNUS [DEGREE = "MBA"]) [AID# = AID#] PCAREER)'
    " [ONAME = ONAME] PORGANIZATION) [CEO = ANAME]) [ONAME, CEO]"
)


#: The eight texts of the benchmark's ``small_sql`` workload.
_CEO_SQL = (
    "SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND ONAME IN "
    "(SELECT ONAME FROM PCAREER WHERE AID# IN "
    '(SELECT AID# FROM PALUMNUS WHERE DEGREE = "{degree}"))'
)
SMALL_SQL = (
    _CEO_SQL.format(degree="MBA"),
    _CEO_SQL.format(degree="MS"),
    _CEO_SQL.format(degree="SF"),
    'SELECT ANAME, MAJOR FROM PALUMNUS WHERE DEGREE = "MBA"',
    'SELECT ONAME, INDUSTRY, HEADQUARTERS FROM PORGANIZATION WHERE INDUSTRY = "High Tech"',
    "SELECT ONAME, PROFIT FROM PFINANCE WHERE YEAR = 1989",
    "SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME",
    'SELECT ONAME, CEO FROM PORGANIZATION, PALUMNUS WHERE CEO = ANAME AND DEGREE = "MBA"',
)
SPINE_SQL = SMALL_SQL[3]


def _registry(latency=None) -> LQPRegistry:
    """The paper's databases in memory; with a ``latency`` (0.0 included)
    each sits behind a :class:`LatencyLQP`, a source that overlaps, so
    the concurrent engine pools plans over them."""
    registry = LQPRegistry()
    for database in paper_databases().values():
        lqp = RelationalLQP(database)
        registry.register(lqp if latency is None else LatencyLQP(lqp, per_query=latency))
    return registry


def _federation(latency=None, **kwargs) -> PolygenFederation:
    return PolygenFederation(
        paper_polygen_schema(),
        _registry(latency),
        resolver=paper_identity_resolver(),
        **kwargs,
    )


@pytest.fixture(scope="module")
def reference():
    """The serial facade's answer to the paper's query — the tag oracle."""
    return build_paper_federation().run_sql(PAPER_SQL)


class TestQueryOptions:
    def test_defaults(self):
        options = QueryOptions()
        assert options.engine == "concurrent"
        assert options.optimize
        assert not options.prune_projections
        assert options.policy is ConflictPolicy.DROP

    def test_replace_resolves_overrides(self):
        base = QueryOptions()
        assert base.replace() is base
        tuned = base.replace(engine="serial", fetch_size=7)
        assert (tuned.engine, tuned.fetch_size) == ("serial", 7)
        assert base.engine == "concurrent"  # immutable

    def test_validation(self):
        with pytest.raises(ValueError, match="engine"):
            QueryOptions(engine="warp")
        with pytest.raises(ValueError, match="fetch_size"):
            QueryOptions(fetch_size=0)
        with pytest.raises(ValueError, match="no_such_flag"):
            QueryOptions().replace(no_such_flag=True)
        with pytest.raises(ValueError, match="pushdown"):  # a retired knob
            QueryOptions(pushdown=False)

    def test_ill_typed_fields_rejected_by_name(self):
        # A knob that would merely truthy-coerce must fail loudly, naming
        # the field: these options flow through three defaulting levels,
        # so a silent coercion is a query running with behaviour nobody
        # asked for.
        with pytest.raises(ValueError, match="prune_projections"):
            QueryOptions(prune_projections=1)
        with pytest.raises(ValueError, match="policy"):
            QueryOptions(policy="drop")
        with pytest.raises(ValueError, match="fetch_size"):
            QueryOptions(fetch_size="64")
        with pytest.raises(ValueError, match="fetch_size"):
            QueryOptions(fetch_size=True)
        with pytest.raises(ValueError, match="optimize"):
            QueryOptions(optimize="fast")
        assert QueryOptions(optimize=1).optimize  # historical facade tolerance
        with pytest.raises(ValueError, match="engine"):
            QueryOptions(engine=0)

    @pytest.mark.parametrize("mode", [True, False, 1, 0])
    def test_optimize_is_on_or_off(self, mode):
        assert QueryOptions(optimize=mode).optimize == bool(mode)

    @pytest.mark.parametrize("mode", ["cost", "fastest", "True", None, 2])
    def test_optimize_has_no_third_mode(self, mode):
        with pytest.raises(ValueError, match="optimize"):
            QueryOptions(optimize=mode)

    def test_typoed_override_raises_not_noop(self):
        base = QueryOptions()
        with pytest.raises(ValueError, match="engin"):
            base.replace(engin="serial")
        # A retired knob (scan sharding) is refused by name at every level.
        with pytest.raises(ValueError, match="shard_width"):
            QueryOptions(shard_width=4)
        with _federation() as federation:
            with pytest.raises(ValueError, match="shard_width"):
                federation.session(shard_width=4)
            with federation.session() as session:
                with pytest.raises(ValueError, match="shard_width"):
                    session.submit(PAPER_SQL, shard_width="auto")


class TestSubmission:
    def test_sql_submission_matches_facade(self, reference):
        with _federation() as federation, federation.session() as session:
            result = session.execute(PAPER_SQL)
        assert result.relation == reference.relation
        assert result.lineage == reference.lineage
        assert result.sql == PAPER_SQL and result.translation is not None

    def test_algebra_text_and_tree_submissions(self, reference):
        with _federation() as federation, federation.session() as session:
            from_text = session.execute(PAPER_ALGEBRA)
            tree, _ = federation.analyze(PAPER_ALGEBRA)
            from_tree = session.execute(tree)
        assert from_text.relation == reference.relation
        assert from_tree.relation == reference.relation

    def test_plan_submission_executes_as_given(self, reference):
        with _federation() as federation, federation.session() as session:
            _, pom = federation.analyze(PAPER_ALGEBRA)
            iom = federation.plan(pom)
            result = session.execute(iom)
        assert result.relation == reference.relation
        assert result.optimization is None  # plans run without optimization
        assert result.pom is None and result.expression is None

    def test_unsupported_query_type_raises(self):
        with _federation() as federation, federation.session() as session:
            with pytest.raises(TypeError, match="submit"):
                session.submit(12345)

    def test_handle_is_future_like(self):
        with _federation() as federation, federation.session() as session:
            handle = session.submit(PAPER_SQL)
            result = handle.result(timeout=30)
            assert handle.done() and not handle.cancelled()
            assert handle.exception() is None
            assert result.relation.cardinality > 0

    def test_per_submit_engine_override(self, reference):
        with _federation(latency=0.0) as federation, federation.session() as session:
            serial = session.execute(PAPER_SQL, engine="serial")
            concurrent = session.execute(PAPER_SQL, engine="concurrent")
        assert serial.relation == concurrent.relation == reference.relation
        assert {t.worker for t in serial.trace.timings.values()} == {"serial"}
        assert any(
            t.worker != "serial" for t in concurrent.trace.timings.values()
        )

    def test_session_option_specialization(self):
        with _federation() as federation:
            session = federation.session(engine="serial", prune_projections=True)
            assert session.defaults.engine == "serial"
            assert session.defaults.prune_projections
            result = session.execute(PAPER_ALGEBRA)
            assert result.optimization.attributes_pruned > 0

    def test_translation_errors_propagate_through_handles(self):
        with _federation() as federation, federation.session() as session:
            handle = session.submit("SELECT NOPE FROM NOWHERE")
            with pytest.raises(TranslationError):
                handle.result(timeout=30)
            assert isinstance(handle.exception(), TranslationError)

    def test_non_decimal_digit_is_a_parse_error_through_handles(self):
        # "²" passes str.isdigit() but not int(); it is no digit of a number.
        with _federation() as federation, federation.session() as session:
            handle = session.submit("SELECT ONAME FROM PFINANCE WHERE YEAR = ²")
            with pytest.raises(SqlParseError, match="unexpected character '²'"):
                handle.result(timeout=30)

    def test_concurrent_and_serial_sessions_agree(self, reference):
        with _federation() as federation:
            with federation.session() as session:
                first = session.execute(PAPER_SQL)
                second = session.execute(PAPER_SQL, engine="serial")
            stats = federation.stats()
        for result in (first, second):
            assert result.relation == reference.relation
            assert result.lineage == reference.lineage
        assert stats.queries_completed == 2


class TestStreamingCursor:
    def test_cursor_streams_all_rows(self, reference):
        with _federation() as federation, federation.session() as session:
            rows = list(session.cursor(PAPER_SQL, fetch_size=2))
        assert len(rows) == reference.relation.cardinality
        assert {row.data for row in rows} == {
            t.data for t in reference.relation.tuples
        }

    def test_cursor_failure_propagates(self):
        with _federation() as federation, federation.session() as session:
            cursor = session.cursor("SELECT NOPE FROM NOWHERE")
            with pytest.raises(TranslationError):
                cursor.fetchall(timeout=30)

    def test_fetchmany_respects_fetch_size_option(self):
        with _federation() as federation, federation.session() as session:
            handle = session.submit('PORGANIZATION [INDUSTRY = "High Tech"]', fetch_size=3)
            cursor = handle.cursor()
            batch = cursor.fetchmany(timeout=30)
            assert 0 < len(batch) <= 3


class TestCancellation:
    def test_cancel_running_query(self):
        with _federation(latency=0.25) as federation:
            session = federation.session()
            handle = session.submit(PAPER_SQL)
            assert handle.cancel()
            with pytest.raises(QueryCancelledError):
                handle.result(timeout=30)
            assert handle.cancelled()
            with pytest.raises(QueryCancelledError):
                handle.cursor().fetchall(timeout=30)

    def test_cancel_queued_query_never_runs(self):
        with _federation(latency=0.2, max_concurrent_queries=1) as federation:
            session = federation.session()
            running = session.submit(PAPER_SQL)
            queued = session.submit(PAPER_SQL)
            assert queued.cancel()
            assert queued.cancelled()
            with pytest.raises(QueryCancelledError):
                queued.result(timeout=30)
            running.result(timeout=60)  # the first query is unharmed

    def test_cancel_after_completion_returns_false(self):
        with _federation() as federation, federation.session() as session:
            handle = session.submit(PAPER_SQL)
            handle.result(timeout=30)
            assert not handle.cancel()
            assert not handle.cancelled()

    def test_federation_survives_cancellation(self, reference):
        with _federation(latency=0.05) as federation:
            session = federation.session()
            session.submit(PAPER_SQL).cancel()
            result = session.execute(PAPER_SQL)
        assert result.relation == reference.relation


class TestLifecycleAndStats:
    def test_closed_federation_refuses_work(self):
        federation = _federation()
        session = federation.session()
        federation.close()
        assert federation.closed
        with pytest.raises(ServiceClosedError):
            federation.session()
        with pytest.raises(ServiceClosedError):
            session.submit(PAPER_SQL)
        federation.close()  # idempotent

    def test_close_joins_worker_threads(self):
        federation = _federation(latency=0.0)
        session = federation.session()
        session.execute(PAPER_SQL)
        workers = federation.pool.thread_names()
        assert workers  # warmup created the per-database workers
        federation.close()
        assert federation.pool.closed
        alive = {t.name for t in threading.enumerate()}
        assert not (set(workers) & alive)

    def test_a_closed_federation_is_freed_without_the_cycle_collector(self):
        import gc
        import weakref

        registry = _registry()
        federation = PolygenFederation(paper_polygen_schema(), registry)
        federation.session().execute(PAPER_SQL)
        assert "polygen_sessions_open" in federation.metrics_text()
        freed = weakref.ref(federation), weakref.ref(registry)
        gc.disable()
        try:
            federation.close()
            del federation, registry
            # The federation and the sources its registry holds go with the
            # last reference, not at some later full collection.
            assert [ref() for ref in freed] == [None, None]
        finally:
            gc.enable()

    def test_dropped_sessions_are_not_pinned(self):
        import gc

        with _federation() as federation:
            for _ in range(10):
                session = federation.session()
                session.execute(PAPER_ALGEBRA)
                del session  # dropped without close()
            gc.collect()
            assert federation.stats().sessions_open == 0

    def test_session_close_detaches(self):
        with _federation() as federation:
            session = federation.session(name="alice")
            assert federation.stats().sessions_open == 1
            session.close()
            assert session.closed
            assert federation.stats().sessions_open == 0
            with pytest.raises(ServiceClosedError):
                session.submit(PAPER_SQL)

    def test_stats_count_outcomes(self):
        with _federation() as federation:
            session = federation.session()
            session.execute(PAPER_SQL)
            session.execute(PAPER_ALGEBRA)
            with pytest.raises(TranslationError):
                session.execute("SELECT NOPE FROM NOWHERE")
            stats = federation.stats()
        assert stats.queries_submitted == 3
        assert stats.queries_completed == 2
        assert stats.queries_failed == 1
        assert stats.queries_active == 0
        assert stats.uptime_seconds > 0

    def test_stats_report_utilization_and_traffic(self):
        with _federation(latency=0.0) as federation:
            federation.session().execute(PAPER_SQL)
            stats = federation.stats()
        # Every location that did measured work shows up, including the PQP.
        assert {"AD", "PD", "CD", "PQP"} <= set(stats.busy_by_location)
        assert all(busy >= 0 for busy in stats.busy_by_location.values())
        assert set(stats.utilization()) == set(stats.busy_by_location)
        assert stats.lqp_queries["AD"] >= 2  # ALUMNUS select + CAREER retrieve
        assert stats.lqp_tuples_shipped["CD"] > 0
        assert len(stats.worker_threads) == 3
        assert stats.render()

    def test_empty_plan_raises_execution_error(self):
        from repro.pqp.matrix import IntermediateOperationMatrix

        with _federation() as federation, federation.session() as session:
            with pytest.raises(ExecutionError, match="empty"):
                session.execute(IntermediateOperationMatrix())


class TestSchedulerFollowsSources:
    """The concurrent engine pools a plan only when one of its local rows
    sits at a source that overlaps and another local row can run beside
    it; in-process sources never overlap."""

    def test_an_in_memory_federation_starts_no_pool_thread(self):
        concurrent = QueryOptions(engine="concurrent")
        with _federation() as federation, federation.session() as session:
            for text in SMALL_SQL:
                expected = session.execute(text, engine="serial").relation
                ran = federation.run(text, concurrent)
                handle = session.submit(text, concurrent)
                handle.cursor().fetchall()
                fetched = handle.result(timeout=30)
                assert ran.relation == fetched.relation == expected
                # An in-process source hands over whole relations, so
                # even a spine drained by a cursor runs inline.
                for result in (ran, fetched):
                    assert {t.worker for t in result.trace.timings.values()} == {"serial"}
            assert federation.pool.thread_names() == ()
            assert federation.stats().worker_threads == ()

    @pytest.mark.parametrize(
        "latency, text, scheduler",
        [
            (None, PAPER_SQL, "inline"),
            (None, SPINE_SQL, "inline"),
            (0.0, PAPER_SQL, "pooled"),
            # A LatencyLQP overlaps but ships no chunks: its spine is inline.
            (0.0, SPINE_SQL, "inline"),
        ],
        ids=["in-memory", "in-memory-spine", "overlapping", "overlapping-spine"],
    )
    def test_the_execute_span_names_the_scheduler(self, latency, text, scheduler):
        with _federation(latency) as federation, federation.session() as session:
            result = session.execute(text)
            serial = session.execute(text, engine="serial")
        (span,) = [span for span in result.trace.spans if span.name == "execute"]
        assert span.attributes["scheduler"] == scheduler
        # Without a pool nothing is pooled.
        (span,) = [span for span in serial.trace.spans if span.name == "execute"]
        assert span.attributes["scheduler"] == "inline"

    def test_a_spine_over_polygen_urls_streams_under_either_engine(self):
        servers = [
            LQPServer(RelationalLQP(database), chunk_size=2).start()
            for database in paper_databases().values()
        ]
        registry = LQPRegistry()
        try:
            for server in servers:
                registry.register(server.url)
            with PolygenFederation(
                paper_polygen_schema(), registry, resolver=paper_identity_resolver()
            ) as federation, federation.session() as session:
                for engine in ("concurrent", "serial"):
                    result = session.execute(SPINE_SQL, engine=engine)
                    (span,) = [s for s in result.trace.spans if s.name == "execute"]
                    assert span.attributes["scheduler"] == "stream", engine
                    workers = {t.worker for t in result.trace.timings.values()}
                    assert workers == {"stream"}, engine
        finally:
            registry.close()
            for server in servers:
                server.stop()


class TestSynchronousRun:
    def test_run_executes_on_the_calling_thread(self, reference):
        with _federation() as federation:
            result = federation.run(PAPER_SQL)
            assert result.relation == reference.relation
            stats = federation.stats()
        assert stats.queries_submitted == stats.queries_completed == 1

    def test_run_counts_failures(self):
        with _federation() as federation:
            with pytest.raises(TranslationError):
                federation.run("SELECT NOPE FROM NOWHERE")
            assert federation.stats().queries_failed == 1

    def test_run_on_closed_federation_raises(self):
        federation = _federation()
        federation.close()
        with pytest.raises(ServiceClosedError):
            federation.run(PAPER_SQL)


class TestFacadeOverFederation:
    def test_facade_exposes_its_federation(self):
        pqp = build_paper_federation()
        assert pqp.federation.defaults.engine == "serial"
        assert pqp.executor.pool is None

    def test_serial_facade_spawns_no_threads(self):
        before = threading.active_count()
        for _ in range(5):
            pqp = build_paper_federation()
            pqp.run_sql(PAPER_SQL)
        # The historical facade held zero threads for the serial engine;
        # the federation-backed facade must not regress that (no
        # coordinator threads, no pool workers on the serial path).
        assert threading.active_count() == before

    def test_dropped_concurrent_facade_releases_its_workers(self):
        import gc
        import time

        from repro.pqp.processor import PolygenQueryProcessor

        before = threading.active_count()
        for _ in range(3):
            pqp = PolygenQueryProcessor(
                paper_polygen_schema(),
                _registry(),
                resolver=paper_identity_resolver(),
                concurrent=True,
            )
            pqp.run_sql(PAPER_SQL)
            del pqp  # dropped without close(): the pool finalizer must fire
        gc.collect()
        # The stop sentinels are asynchronous; give the workers a moment.
        deadline = time.time() + 5.0
        while threading.active_count() > before and time.time() < deadline:
            time.sleep(0.01)
        assert threading.active_count() == before

    def test_concurrent_facade_shares_the_pool(self):
        registry = _registry()
        from repro.pqp.processor import PolygenQueryProcessor

        with PolygenQueryProcessor(
            paper_polygen_schema(),
            registry,
            resolver=paper_identity_resolver(),
            concurrent=True,
        ) as pqp:
            assert pqp.executor.pool is pqp.federation.pool
            first = pqp.run_sql(PAPER_SQL)
            warm = pqp.federation.pool.thread_names()
            second = pqp.run_sql(PAPER_SQL)
            assert pqp.federation.pool.thread_names() == warm
        assert first.relation == second.relation
