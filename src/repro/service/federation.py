"""The long-lived multi-user federation engine.

:class:`PolygenFederation` is the system the paper's Figure 2 sketches — a
Polygen Query Processor serving many users over a federation of autonomous
local databases — realized as one long-lived object:

- it **owns the federation**: the polygen schema, the (thread-safe) LQP
  registry, the identity resolver, the domain-transform registry, and an
  interned :class:`~repro.storage.tag_pool.TagPool` every materialized
  relation shares, so equal tag sets intern once across all queries;
- it **owns the machinery**: one shared
  :class:`~repro.pqp.pool.WorkerPool` (a single long-lived worker
  thread per local database — the paper's one-connection-per-source
  assumption, with zero per-query thread churn) and a bounded coordinator
  pool that drives up to ``max_concurrent_queries`` plan DAGs at once;
- clients open lightweight :class:`~repro.service.session.Session`\\ s and
  ``submit()`` SQL text, algebra (text or tree), or pre-built plans;
  behaviour knobs are a per-call
  :class:`~repro.service.options.QueryOptions` resolved against the
  federation's defaults rather than constructor flags.

Intra-query semantics are untouched: each submitted plan runs through the
very same serial or DAG-driven executor code path, so results — data,
headings *and tags* — are bit-for-bit what the blocking
:class:`~repro.pqp.processor.PolygenQueryProcessor` produces (that facade
is, in fact, now a single-session federation).  What changes is
*inter-query* behaviour: plans from many sessions execute concurrently,
their local rows interleaving on the shared per-database workers, one
request per database at a time.

:meth:`PolygenFederation.stats` reports queries served, per-LQP busy-time
utilization (aggregated from every completed trace's measured row timings)
and live pool occupancy.
"""

from __future__ import annotations

import dataclasses
import itertools
import re
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - typing only; service never needs
    # to import the network layer unless remote LQPs are registered.
    from repro.net.transport import TransportStats

from repro.algebra_lang.parser import parse_expression
from repro.catalog.schema import PolygenSchema
from repro.core.cell import ConflictPolicy
from repro.core.expression import Expression
from repro.errors import QueryCancelledError, ServiceClosedError
from repro.integration.domains import TransformRegistry, default_registry
from repro.integration.identity import IdentityResolver
from repro.lqp.registry import LQPRegistry
from repro.obs.events import EventLog, slow_query_event
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Span, Tracer, use_span
from repro.pqp.executor import ExecutionTrace, Executor
from repro.pqp.fingerprint import PlanFingerprints, fingerprint_plan, splice_cached
from repro.pqp.interpreter import PolygenOperationInterpreter
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    Operation,
    PolygenOperationMatrix,
)
from repro.pqp.optimizer import OptimizationReport, QueryOptimizer
from repro.pqp.result import QueryResult
from repro.pqp.runtime import ConcurrentExecutor
from repro.pqp.syntax_analyzer import SyntaxAnalyzer
from repro.service.cache import CacheStats, ResultCache
from repro.service.cursor import Cursor
from repro.service.handle import QueryHandle
from repro.service.options import QueryOptions
from repro.service.plan_memo import PlanMemo, PreparedPlan
from repro.pqp.pool import WorkerPool
from repro.service.session import Session
from repro.storage.tag_pool import GLOBAL_TAG_POOL, TagPool
from repro.translate.translator import translate_sql

__all__ = ["PolygenFederation", "FederationStats"]

#: Anything ``submit()`` accepts as a query.
Query = Union[str, Expression, IntermediateOperationMatrix]

_SQL_RE = re.compile(r"\s*select\b", re.IGNORECASE)


@dataclass(frozen=True)
class FederationStats:
    """A point-in-time snapshot of a federation's service counters."""

    queries_submitted: int
    queries_completed: int
    queries_failed: int
    queries_cancelled: int
    queries_active: int
    sessions_open: int
    uptime_seconds: float
    #: Live worker-thread names — constant across queries once warmed up.
    worker_threads: Tuple[str, ...]
    #: database → jobs queued or running on its worker right now.
    pool_occupancy: Dict[str, int]
    #: location (LQP name or "PQP") → measured busy seconds, summed over
    #: every completed query's trace timings.
    busy_by_location: Dict[str, float]
    #: database → local queries answered (from the registry's accounting).
    lqp_queries: Dict[str, int]
    #: database → tuples shipped to the PQP.
    lqp_tuples_shipped: Dict[str, int]
    #: database → transport counters, for every network-backed LQP
    #: (:class:`~repro.net.client.RemoteLQP`) in the registry: requests,
    #: bytes, chunks, retries/timeouts, in-flight high-water mark.
    remote_transports: Dict[str, "TransportStats"] = dataclasses.field(
        default_factory=dict
    )
    #: Semantic result cache counters: hits, misses, subtree splices,
    #: evictions, precise invalidations, resident entries and bytes.
    cache: Optional[CacheStats] = None

    def utilization(self) -> Dict[str, float]:
        """location → fraction of the federation's uptime it spent busy.

        Can exceed 1.0: serial-engine queries run their local rows on the
        coordinating thread rather than the pool, so several threads may
        be inside the same location at once.
        """
        if self.uptime_seconds <= 0:
            return {location: 0.0 for location in self.busy_by_location}
        return {
            location: busy / self.uptime_seconds
            for location, busy in self.busy_by_location.items()
        }

    def render(self) -> str:
        lines = [
            f"queries: {self.queries_submitted} submitted, "
            f"{self.queries_completed} completed, {self.queries_failed} failed, "
            f"{self.queries_cancelled} cancelled, {self.queries_active} active",
            f"sessions open: {self.sessions_open}; uptime {self.uptime_seconds:.2f}s",
            f"pool: {len(self.worker_threads)} worker thread(s)",
        ]
        utilization = self.utilization()
        for location in sorted(self.busy_by_location):
            lines.append(
                f"  {location:>4s}: busy {self.busy_by_location[location]:.3f}s "
                f"({utilization[location]:.1%} of uptime), "
                f"{self.lqp_queries.get(location, 0)} local queries, "
                f"{self.lqp_tuples_shipped.get(location, 0)} tuples shipped, "
                f"{self.pool_occupancy.get(location, 0)} queued"
            )
        if self.remote_transports:
            lines.append(f"remote transports: {len(self.remote_transports)}")
            for name in sorted(self.remote_transports):
                lines.append(
                    f"  {name:>4s}: {self.remote_transports[name].render()}"
                )
        if self.cache is not None:
            lines.append(self.cache.render())
        return "\n".join(lines)


class PolygenFederation:
    """A long-lived PQP server: sessions in front, shared workers behind."""

    def __init__(
        self,
        schema: PolygenSchema,
        registry: LQPRegistry,
        resolver: IdentityResolver | None = None,
        transforms: TransformRegistry | None = None,
        defaults: QueryOptions | None = None,
        max_concurrent_queries: int = 8,
        tag_pool: TagPool | None = None,
        result_cache: ResultCache | None = None,
        source_max_age: Optional[float] = 60.0,
        event_log: EventLog | None = None,
    ):
        """``source_max_age`` bounds (in seconds) how stale a cached result
        may get when it depends on a registered source whose capabilities
        report ``signals_writes=False`` — an external SQLite file or log
        directory another process may extend without a
        ``notify_refresh``.  Precise invalidation still governs
        well-behaved sources; an explicit
        :meth:`ResultCache.set_max_age` for a database overrides this
        default for it.  ``None`` disables the safety net entirely."""
        if max_concurrent_queries < 1:
            raise ValueError(
                f"max_concurrent_queries must be >= 1, got {max_concurrent_queries}"
            )
        if source_max_age is not None and source_max_age <= 0:
            raise ValueError("source_max_age must be positive seconds or None")
        self.schema = schema
        self.registry = registry
        # Not `resolver or ...`: an empty resolver is falsy, and a fresh
        # one would not see groups added to the caller's later.
        self.resolver = (
            resolver if resolver is not None else IdentityResolver.identity()
        )
        self.transforms = transforms or default_registry()
        self.defaults = defaults or QueryOptions()
        self.tag_pool = tag_pool or GLOBAL_TAG_POOL
        self.max_concurrent_queries = max_concurrent_queries

        self._analyzer = SyntaxAnalyzer()
        #: The semantic result cache (queries opt in via
        #: ``QueryOptions.cache``).  Subscribed to the registry's refresh
        #: notifications, so any ``notify_refresh(D)`` — a write hook, a
        #: re-registration, :meth:`invalidate` — precisely evicts the
        #: entries whose tag sets consult ``D``.
        # Not `result_cache or ...`: an empty ResultCache has len() 0 and
        # is falsy, which would silently discard a caller-supplied cache.
        self.cache = result_cache if result_cache is not None else ResultCache()
        self.source_max_age = source_max_age
        self._cache_listener = self.cache.invalidate
        self.registry.subscribe(self._cache_listener)
        self._pool = WorkerPool()
        self._coordinators = ThreadPoolExecutor(
            max_workers=max_concurrent_queries, thread_name_prefix="pqp-coordinator"
        )
        self._lock = threading.Lock()
        self._interpreter = PolygenOperationInterpreter(schema)
        self._optimizers: Dict[Tuple[bool, ConflictPolicy], QueryOptimizer] = {}
        self._executors: Dict[Tuple[str, object], Executor] = {}
        #: Prepared plans: query text → optimized plan, per epoch.
        self._plans = PlanMemo()
        #: Weak: a session a client drops without close() must not be
        #: pinned (with its last handles and results) for the life of a
        #: long-running federation.
        self._sessions: "weakref.WeakSet[Session]" = weakref.WeakSet()
        self._session_counter = itertools.count(1)
        self._query_counter = itertools.count(1)
        self._started_at = time.perf_counter()
        self._closed = False
        #: Observability: one tracer (a root ``query`` span per query, with
        #: remote LQP spans stitched in), one metrics registry (the single
        #: source of truth behind :meth:`stats` and :meth:`metrics_text`),
        #: one structured event log (the slow-query log's sink).
        self.tracer = Tracer("federation")
        self.metrics = MetricsRegistry()
        self.events = event_log if event_log is not None else EventLog()
        self._exporters: list = []
        self._m_submitted = self.metrics.counter(
            "polygen_queries_submitted_total",
            "Queries accepted by submit() or run().",
        )
        self._m_finished = self.metrics.counter(
            "polygen_queries_total",
            "Finished queries by terminal status (completed/failed/cancelled).",
        )
        self._m_active = self.metrics.gauge(
            "polygen_queries_active", "Queries currently planning or executing."
        )
        self._m_latency = self.metrics.histogram(
            "polygen_query_seconds", "End-to-end query wall time in seconds."
        )
        self._m_sources = self.metrics.counter(
            "polygen_source_consulted_total",
            "Completed queries whose answer consulted each source tag.",
        )
        self._m_session_queries = self.metrics.counter(
            "polygen_session_queries_total", "Completed queries per session."
        )
        self._m_busy = self.metrics.counter(
            "polygen_busy_seconds_total",
            "Measured busy seconds per execution location (LQP name or PQP).",
        )
        self._m_slow = self.metrics.counter(
            "polygen_slow_queries_total",
            "Queries that crossed their slow_query_ms threshold.",
        )
        self._m_sessions_opened = self.metrics.counter(
            "polygen_sessions_opened_total", "Sessions opened."
        )
        self._m_plan_memo = self.metrics.counter(
            "polygen_plan_memo_total",
            "Plan-memo lookups by outcome (hit/miss).",
        )
        # The federation owns this registry, so a bound method in it would be
        # a reference cycle: a closed federation, with every source its LQP
        # registry holds, would live on until a full garbage collection.
        collect_metrics = weakref.WeakMethod(self._collect_metrics)

        def collector(registry: MetricsRegistry) -> None:
            method = collect_metrics()
            if method is not None:
                method(registry)

        self.metrics.add_collector(collector)

    # -- lifecycle ----------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def pool(self) -> WorkerPool:
        """The shared per-database worker pool (for introspection)."""
        return self._pool

    def close(self) -> None:
        """Shut the service down cleanly: close every session (cancelling
        unfinished queries), drain the coordinators, join the worker
        threads, and close any remote connections the registry dialed for
        ``polygen://`` URL registrations.  Idempotent; ``submit`` raises
        afterwards."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            sessions = list(self._sessions)
        for session in sessions:
            session.close()
        for exporter in self._exporters:
            exporter.close()
        self._coordinators.shutdown(wait=True)
        self._pool.close(wait=True)
        # The registry may be shared with (or outlive) this federation:
        # detach our cache's invalidator rather than poking a dead cache.
        self.registry.unsubscribe(self._cache_listener)
        self.registry.close()

    def __enter__(self) -> "PolygenFederation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- sessions -----------------------------------------------------------

    def session(self, name: str | None = None, **option_overrides) -> Session:
        """Open a lightweight session.  ``option_overrides`` specialize the
        federation's default :class:`QueryOptions` for every query this
        session submits (each still overridable per ``submit``)."""
        with self._lock:
            if self._closed:
                raise ServiceClosedError("federation is closed")
            number = next(self._session_counter)
            session = Session(
                self,
                name or f"session-{number}",
                self.defaults.replace(**option_overrides),
            )
            self._sessions.add(session)
        self._m_sessions_opened.inc()
        return session

    def _forget_session(self, session: Session) -> None:
        with self._lock:
            self._sessions.discard(session)

    # -- cache invalidation ---------------------------------------------------

    def invalidate(self, database: str) -> int:
        """Report that ``database``'s data changed; returns how many cache
        entries were evicted.

        Precision is the polygen guarantee: an entry is evicted iff its tag
        set — originating *and* intermediate sources of its rows, plus
        every database its plan subtree shipped from or consulted — contains
        ``database``.  Entries that never touched it are untouched.  The
        notification routes through the registry so any other subscriber
        (another federation sharing the registry) hears it too.
        """
        before = self.cache.stats().invalidated
        self.registry.notify_refresh(database)
        return self.cache.stats().invalidated - before

    # -- pipeline stages (shared by sessions and the compat facade) ---------

    def analyze(
        self, expression: Expression | str
    ) -> Tuple[Expression, PolygenOperationMatrix]:
        """Expression (or bracket-notation text) → POM (paper, Table 1)."""
        tree = parse_expression(expression) if isinstance(expression, str) else expression
        return tree, self._analyzer.analyze(tree)

    def plan(self, pom: PolygenOperationMatrix) -> IntermediateOperationMatrix:
        """POM → IOM via the two-pass interpreter (paper, Tables 2–3)."""
        return self._interpreter.interpret(pom)

    def optimize(
        self, iom: IntermediateOperationMatrix, options: QueryOptions | None = None
    ) -> Tuple[IntermediateOperationMatrix, Optional[OptimizationReport]]:
        """Optimize a plan under ``options`` (no-op when ``optimize=False``)."""
        options = options or self.defaults
        if not options.optimize:
            return iom, None
        return self._optimizer_for(options).optimize(iom)

    def _optimizer_for(self, options: QueryOptions) -> QueryOptimizer:
        key = (options.prune_projections, options.policy)
        with self._lock:
            optimizer = self._optimizers.get(key)
            if optimizer is None:
                optimizer = QueryOptimizer(
                    schema=self.schema,
                    resolver=self.resolver,
                    prune_projections=options.prune_projections,
                    # Capability-aware pushdown: selections stay at the PQP
                    # for registered engines without native selection.
                    registry=self.registry,
                    policy=options.policy,
                )
                self._optimizers[key] = optimizer
            return optimizer

    def executor_for(self, options: QueryOptions | None = None) -> Executor:
        """The (cached, reentrant) execution engine ``options`` selects.

        Concurrent engines dispatch into the federation's shared worker
        pool; serial engines run on the submitting coordinator thread.
        """
        options = options or self.defaults
        key = (options.engine, options.policy)
        with self._lock:
            executor = self._executors.get(key)
            if executor is None:
                if options.engine == "concurrent":
                    executor = ConcurrentExecutor(
                        self.schema,
                        self.registry,
                        resolver=self.resolver,
                        transforms=self.transforms,
                        policy=options.policy,
                        tag_pool=self.tag_pool,
                        pool=self._pool,
                    )
                else:
                    executor = Executor(
                        self.schema,
                        self.registry,
                        resolver=self.resolver,
                        transforms=self.transforms,
                        policy=options.policy,
                        tag_pool=self.tag_pool,
                    )
                self._executors[key] = executor
            return executor

    # -- submission ---------------------------------------------------------

    @staticmethod
    def _classify(query: Query) -> str:
        if isinstance(query, IntermediateOperationMatrix):
            return "plan"
        if isinstance(query, Expression):
            return "algebra"
        if isinstance(query, str):
            return "sql" if _SQL_RE.match(query) else "algebra"
        raise TypeError(
            "submit() accepts SQL text, a polygen algebra expression "
            f"(text or tree), or an IntermediateOperationMatrix; got {type(query).__name__}"
        )

    def _submit(self, session: Session, query: Query, options: QueryOptions) -> QueryHandle:
        kind = self._classify(query)
        with self._lock:
            if self._closed:
                raise ServiceClosedError("federation is closed")
            query_id = next(self._query_counter)
        cancel = threading.Event()
        cursor = Cursor(fetch_size=options.fetch_size)
        handle = QueryHandle(query_id, session, cursor, cancel)
        try:
            future = self._coordinators.submit(
                self._run_query, query, kind, options, cancel, cursor,
                session.name,
            )
        except RuntimeError:
            # Lost the race with close(): the coordinator pool shut down
            # between our closed-check and the submit.  Nothing was counted
            # yet (counters are monotone and only move after a successful
            # dispatch), so just surface the service-level error.
            raise ServiceClosedError("federation is closed") from None
        self._m_submitted.inc()
        self._m_active.inc()
        future.add_done_callback(self._settle)
        handle._bind(future)
        return handle

    def run(self, query: Query, options: QueryOptions | None = None) -> QueryResult:
        """Execute ``query`` synchronously on the *calling* thread.

        The single-user path: no coordinator is involved (so a process
        that only ever calls ``run`` — e.g. through the
        :class:`~repro.pqp.processor.PolygenQueryProcessor` facade —
        holds no service threads beyond the worker pool the concurrent
        engine warms up).  Counted in :meth:`stats` like any submission.
        """
        options = options or self.defaults
        kind = self._classify(query)
        with self._lock:
            if self._closed:
                raise ServiceClosedError("federation is closed")
            next(self._query_counter)
        self._m_submitted.inc()
        self._m_active.inc()
        try:
            # No cursor (nobody could read it before this returns) and no
            # cancel event (nobody else holds a handle to set it) — the
            # executors then skip batch slicing and cancellation polling.
            result = self._run_query(query, kind, options, None, None)
        except BaseException as exc:
            self._m_active.dec()
            status = (
                "cancelled"
                if isinstance(exc, QueryCancelledError)
                else "failed"
            )
            self._m_finished.inc(status=status)
            raise
        self._m_active.dec()
        self._m_finished.inc(status="completed")
        return result

    def _run_query(
        self,
        query: Query,
        kind: str,
        options: QueryOptions,
        cancel: threading.Event | None,
        cursor: Cursor | None,
        session: str | None = None,
    ) -> QueryResult:
        """One query, end to end, under a root ``query`` span.

        Wraps :meth:`_run_pipeline` with the per-query observability:
        opens the trace (every stage/row/remote span hangs off the root
        via the ambient contextvar), attaches the finished span set to
        ``result.trace.spans``, records latency/source/busy metrics and
        emits the slow-query event when ``options.slow_query_ms`` is
        crossed.  ``cancel`` and ``cursor`` are ``None`` on the
        synchronous :meth:`run` path; ``session`` labels the metrics."""
        began = time.perf_counter()
        root = self.tracer.start(
            "query",
            kind=kind,
            engine=options.engine,
            **({"session": session} if session else {}),
        )
        try:
            if cancel is not None and cancel.is_set():
                raise QueryCancelledError("query cancelled before it started")
            with use_span(root):
                prepared = self._prepare(query, kind, options, root)
                result, fingerprints = self._run_pipeline(
                    prepared, options, cancel, cursor
                )
        except BaseException as exc:
            root.end(exc)
            if cursor is not None:
                cursor._fail(exc)
            raise
        root.set(tuples=len(result.relation)).end()
        result.trace.spans = root.trace_spans()
        self._observe_query(
            result,
            began,
            options,
            session,
            lambda: fingerprints or prepared.fingerprints,
        )
        return result

    def _prepare(
        self, query: Query, kind: str, options: QueryOptions, root: Span
    ) -> PreparedPlan:
        """The front end — translate, analyze, plan, optimize — run once
        per query text and epoch (see :mod:`repro.service.plan_memo`); a
        memo hit marks the root span ``plan="memo"`` instead of opening
        the four stage spans."""
        if kind == "plan":
            # A pre-built IOM executes as given — the paper's
            # "Table 3 as the execution plan, without further
            # optimization"; optimize explicitly first if wanted.
            return PreparedPlan(iom=query, policy=options.policy)
        key = None
        if isinstance(query, str):
            epoch = (self.schema.version, self.registry.version, self.resolver.version)
            key = PlanMemo.key(query, kind, options, epoch)
            prepared = self._plans.get(key)
            if prepared is not None:
                self._m_plan_memo.inc(outcome="hit")
                root.set(plan="memo")
                return prepared
            self._m_plan_memo.inc(outcome="miss")
        prepared = self._front_end(query, kind, options)
        if key is not None:
            self._plans.put(key, prepared)
        return prepared

    def _front_end(
        self, query: Query, kind: str, options: QueryOptions
    ) -> PreparedPlan:
        """Query text or tree → optimized IOM, one stage span each."""
        sql = translation = None
        if kind == "sql":
            sql = query
            with self.tracer.span("translate"):
                translation = translate_sql(query, self.schema)
            expression = translation.expression
        else:
            expression = query
        with self.tracer.span("analyze"):
            tree, pom = self.analyze(expression)
        with self.tracer.span("plan"):
            iom = self.plan(pom)
        with self.tracer.span("optimize"):
            iom, report = self.optimize(iom, options)
        return PreparedPlan(
            iom=iom,
            policy=options.policy,
            sql=sql,
            translation=translation,
            expression=tree,
            pom=pom,
            report=report,
        )

    def _run_pipeline(
        self,
        prepared: PreparedPlan,
        options: QueryOptions,
        cancel: threading.Event | None,
        cursor: Cursor | None,
    ) -> Tuple[QueryResult, Optional[PlanFingerprints]]:
        """Everything after the front end, feeding the cursor (when one
        exists) the moment the plan's result node completes.  Runs with
        the query's root span ambient, so each stage opens a child.
        Returns the result and the final plan's fingerprints when the
        cache probe computed them."""
        iom = prepared.iom
        caching = fingerprints = cache_epoch = None
        if options.cache != "off":
            with self.tracer.span("cache.probe") as probe:
                # Fingerprint the prepared plan: results cached under one
                # shape key only that shape, and the conflict policy salts
                # every hash.
                fingerprints = prepared.fingerprints
                cache_epoch = self.cache.tick()
                hit = (
                    self.cache.lookup(fingerprints.final)
                    if options.cache == "on"
                    else None
                )
                if hit is not None:
                    probe.set(outcome="hit")
                elif options.cache == "on":
                    # Subtree hits: splice cached subplans into the matrix
                    # as pre-materialized CACHED rows, then re-fingerprint
                    # (carried hashes keep untouched rows' keys stable).
                    iom, splice = splice_cached(
                        iom, self.cache.splice_probe, fingerprints, options.policy
                    )
                    if splice.any:
                        caching = splice
                        fingerprints = fingerprint_plan(iom, options.policy)
                    probe.set(outcome="spliced" if splice.any else "miss")
                else:
                    probe.set(outcome="refresh")
            if hit is not None:
                # Whole-plan hit: no executor dispatch at all.  The
                # synthetic trace carries the cached relation and
                # lineage, with no timings (nothing ran).
                trace = ExecutionTrace(
                    relation=hit.relation,
                    results={iom.rows[-1].result.index: hit.relation},
                    lineage=dict(hit.lineage),
                )
                if cursor is not None:
                    cursor._feed(hit.relation)
                result = self._result(prepared, iom, trace, cache_hit=True)
                return result, fingerprints
        executor = self.executor_for(options)
        with self.tracer.span("execute", engine=options.engine) as exec_span:
            trace = executor.execute(
                iom,
                cancel=cancel,
                on_result=None if cursor is None else cursor._feed,
                on_chunk=None if cursor is None else cursor._feed_chunk,
                stream_chunk_size=options.stream_chunk_size,
            )
            exec_span.set(rows=len(iom), tuples=len(trace.relation))
        if options.cache != "off":
            with self.tracer.span("cache.store"):
                self._store_results(iom, trace, fingerprints, cache_epoch)
        result = self._result(prepared, iom, trace, caching=caching)
        return result, fingerprints

    @staticmethod
    def _result(
        prepared: PreparedPlan,
        iom: IntermediateOperationMatrix,
        trace: ExecutionTrace,
        **outcome,
    ) -> QueryResult:
        """The answer plus every pipeline artifact (``outcome``: the cache
        hit flag or splice report)."""
        return QueryResult(
            relation=trace.relation,
            expression=prepared.expression,
            pom=prepared.pom,
            iom=iom,
            trace=trace,
            sql=prepared.sql,
            translation=prepared.translation,
            optimization=prepared.report,
            **outcome,
        )

    def _store_results(
        self,
        iom: IntermediateOperationMatrix,
        trace: ExecutionTrace,
        fingerprints: PlanFingerprints,
        as_of: Optional[int],
    ) -> None:
        """Insert every executed subtree's result into the cache.

        Each entry's tag set is the union of the relation's own
        contributing sources (the polygen harvest: origins and
        intermediates of its surviving rows) and the plan subtree's
        shipped/consulted databases — the superset matters, because a
        result whose rows from ``D`` were all filtered out still *depends*
        on ``D`` and must be evicted when ``D`` changes.  Entries are
        weighted by recompute cost — the summed measured durations
        (:class:`~repro.pqp.executor.RowTiming`) of the subtree's rows — so
        GreedyDual eviction keeps what is expensive to rebuild.
        ``as_of`` guards against the stale-fill race (see
        :meth:`ResultCache.put`); entries whose sources include an engine
        that cannot signal its writes additionally carry a TTL
        (:meth:`_staleness_bound`).
        """
        timings = trace.timings
        for row in iom:
            if row.op is Operation.CACHED:
                continue
            index = row.result.index
            relation = trace.results.get(index)
            lineage = trace.lineages.get(index)
            if relation is None or lineage is None:
                continue
            sources = set(fingerprints.sources[index])
            sources.update(relation.contributing_sources())
            cost = sum(
                timings[member].duration
                for member in fingerprints.subtrees[index]
                if member in timings
            )
            self.cache.put(
                fingerprints.by_index[index],
                relation,
                lineage,
                sources,
                cost=cost,
                as_of=as_of,
                max_age=self._staleness_bound(sources),
            )

    def _staleness_bound(self, sources) -> Optional[float]:
        """The TTL (seconds) a cache entry over ``sources`` must carry.

        ``None`` — no bound — when every source either signals its writes
        (``capabilities().signals_writes``, so precise invalidation covers
        it) or has its own explicit :meth:`ResultCache.set_max_age` policy
        (the cache applies that bound itself).  A registered source that
        can neither is capped at the federation's ``source_max_age``; the
        tightest applicable bound wins.
        """
        if self.source_max_age is None:
            return None
        bound = None
        for database in sources:
            if self.cache.max_age_for(database) is not None:
                continue
            if database not in self.registry:
                continue
            if self.registry.get(database).capabilities().signals_writes:
                continue
            if bound is None or self.source_max_age < bound:
                bound = self.source_max_age
        return bound

    def _settle(self, future) -> None:
        """Done-callback classifying every query's outcome (including ones
        cancelled before their coordinator ever ran them)."""
        self._m_active.dec()
        if future.cancelled():
            self._m_finished.inc(status="cancelled")
            return
        error = future.exception()
        if error is None:
            self._m_finished.inc(status="completed")
        elif isinstance(error, QueryCancelledError):
            self._m_finished.inc(status="cancelled")
        else:
            self._m_finished.inc(status="failed")

    # -- observability ------------------------------------------------------

    def _observe_query(
        self,
        result: QueryResult,
        began: float,
        options: QueryOptions,
        session: str | None,
        fingerprints: Callable[[], PlanFingerprints],
    ) -> None:
        """Per-query metrics and the slow-query log, on the success path.
        ``fingerprints`` yields the executed plan's fingerprints — ones an
        earlier step already holds when it can — and is called only for a
        slow query."""
        elapsed = time.perf_counter() - began
        self._m_latency.observe(elapsed)
        if session:
            self._m_session_queries.inc(session=session)
        busy = result.trace.busy_by_location()
        for location, seconds in busy.items():
            self._m_busy.inc(seconds, location=location)
        sources = self._consulted_sources(result)
        for source in sorted(sources):
            self._m_sources.inc(source=source)
        threshold = options.slow_query_ms
        if threshold is None or elapsed * 1000.0 < threshold:
            return
        self._m_slow.inc()
        self.events.emit(
            "slow_query",
            **slow_query_event(
                query=self._query_text(result),
                elapsed_ms=elapsed * 1000.0,
                threshold_ms=threshold,
                fingerprint=fingerprints().final,
                shape=self._shape_of(result),
                cache=self._cache_disposition(result, options),
                busy_by_location=busy,
                sources=sorted(sources),
                session=session,
                engine=options.engine,
            ),
        )

    @staticmethod
    def _query_text(result: QueryResult) -> str:
        if result.sql is not None:
            return result.sql
        if result.expression is not None:
            return str(result.expression)
        return "<plan>"

    @staticmethod
    def _consulted_sources(result: QueryResult) -> set:
        """Source tags this query touched: the answer's contributing
        sources (the polygen harvest) plus every database a plan row
        executed against — a source whose rows were all filtered out was
        still *consulted* and must show in the per-source counters."""
        sources = set(result.relation.contributing_sources())
        for row in result.iom:
            if row.is_local and row.el:
                sources.add(row.el)
        return sources

    @staticmethod
    def _shape_of(result: QueryResult) -> Optional[str]:
        return None if result.optimization is None else "rewritten"

    @staticmethod
    def _cache_disposition(result: QueryResult, options: QueryOptions) -> str:
        if options.cache == "off":
            return "off"
        if result.cache_hit:
            return "hit"
        if result.caching is not None and result.caching.any:
            return "spliced"
        return "miss"

    def _busy_snapshot(self) -> Dict[str, float]:
        return {
            dict(key).get("location", "?"): seconds
            for key, seconds in self._m_busy.samples()
        }

    def _collect_metrics(self, registry: MetricsRegistry) -> None:
        """Scrape-time collector: gauges mirroring the pull-style
        components (pool, cache, LQP accounting, transports)
        so one ``render()`` shows the whole federation without those
        components ever importing :mod:`repro.obs`."""
        registry.gauge(
            "polygen_uptime_seconds", "Seconds since the federation started."
        ).set(time.perf_counter() - self._started_at)
        registry.gauge(
            "polygen_sessions_open", "Sessions currently open."
        ).set(len(self._sessions))
        registry.gauge(
            "polygen_worker_threads", "Live per-database worker threads."
        ).set(len(self._pool.thread_names()))
        occupancy = registry.gauge(
            "polygen_pool_queue_depth",
            "Jobs queued or running per database worker group.",
        )
        for database, depth in self._pool.occupancy().items():
            occupancy.set(depth, database=database)
        cache = self.cache.stats()
        registry.gauge(
            "polygen_cache_entries", "Resident result-cache entries."
        ).set(cache.entries)
        registry.gauge(
            "polygen_cache_bytes", "Resident result-cache bytes."
        ).set(cache.bytes)
        events = registry.gauge(
            "polygen_cache_events", "Result-cache lifecycle counters by kind."
        )
        for kind in (
            "hits",
            "misses",
            "splices",
            "insertions",
            "evictions",
            "invalidated",
            "invalidations",
            "expired",
        ):
            events.set(getattr(cache, kind), kind=kind)
        lqp_queries = registry.gauge(
            "polygen_lqp_queries", "Local queries answered per database."
        )
        lqp_tuples = registry.gauge(
            "polygen_lqp_tuples_shipped", "Tuples shipped to the PQP per database."
        )
        for name, stats in self.registry.stats().items():
            lqp_queries.set(stats.queries, database=name)
            lqp_tuples.set(stats.tuples_shipped, database=name)
        transport_fields = (
            "requests",
            "chunks",
            "tuples",
            "bytes_sent",
            "bytes_received",
            "retries",
            "timeouts",
            "reconnects",
            "in_flight_hwm",
        )
        for name, stats in self._remote_transport_stats().items():
            for field in transport_fields:
                registry.gauge(
                    f"polygen_transport_{field}",
                    f"Remote transport {field.replace('_', ' ')} per database.",
                ).set(getattr(stats, field), database=name)

    def metrics_text(self) -> str:
        """The Prometheus text exposition of every federation metric
        (collectors refreshed first)."""
        return self.metrics.render()

    def serve_metrics(self, host: str = "127.0.0.1", port: int = 0):
        """Start a TCP exposition endpoint for :meth:`metrics_text`;
        returns the :class:`~repro.obs.export.MetricsExporter` (its
        ``address`` is the bound ``(host, port)``).  Closed with the
        federation."""
        from repro.obs.export import MetricsExporter

        exporter = MetricsExporter(self.metrics, host=host, port=port)
        self._exporters.append(exporter)
        return exporter

    def _remote_transport_stats(self) -> Dict[str, "TransportStats"]:
        """database → transport counters for every network-backed LQP.

        Duck-typed on ``transport_stats()`` through the ``.inner``
        decoration chain (accounting/latency wrappers), so the service
        layer needs no import of — and no dependency on — ``repro.net``
        unless remote LQPs are actually registered.
        """
        transports: Dict[str, "TransportStats"] = {}
        for lqp in self.registry:
            inner = lqp
            while inner is not None:
                snapshot = getattr(inner, "transport_stats", None)
                if callable(snapshot):
                    transports[lqp.name] = snapshot()
                    break
                inner = getattr(inner, "inner", None)
        return transports

    def stats(self) -> FederationStats:
        """A snapshot of service counters, pool state and LQP traffic.

        A thin view over :attr:`metrics` — the registry is the single
        source of truth for the query/busy counters; this keeps the
        historical :class:`FederationStats` shape for existing callers.
        """
        lqp_stats = self.registry.stats()
        remote_transports = self._remote_transport_stats()
        with self._lock:
            return FederationStats(
                queries_submitted=int(self._m_submitted.total()),
                queries_completed=int(self._m_finished.value(status="completed")),
                queries_failed=int(self._m_finished.value(status="failed")),
                queries_cancelled=int(self._m_finished.value(status="cancelled")),
                queries_active=int(round(self._m_active.value())),
                sessions_open=len(self._sessions),
                uptime_seconds=time.perf_counter() - self._started_at,
                worker_threads=self._pool.thread_names(),
                pool_occupancy=self._pool.occupancy(),
                busy_by_location=self._busy_snapshot(),
                lqp_queries={name: s.queries for name, s in lqp_stats.items()},
                lqp_tuples_shipped={
                    name: s.tuples_shipped for name, s in lqp_stats.items()
                },
                remote_transports=remote_transports,
                cache=self.cache.stats(),
            )

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return (
            f"PolygenFederation({len(self.registry)} databases, "
            f"{len(self._sessions)} sessions, {state})"
        )
