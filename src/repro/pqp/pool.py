"""The shared per-database worker pool.

The paper's Figure-1 architecture gives every autonomous local database its
own connection; the executor's pooled scheduler assumes **one in-flight request
per database** (rows at the same LQP queue, rows at
different LQPs overlap).  :class:`WorkerPool` realizes that assumption as a
set of long-lived worker threads — one *group* per local database name,
created lazily the first time work is routed there and kept alive until the
pool is closed.

A group normally holds exactly one thread: the paper's single-connection
assumption.  Network-backed
LQPs break that ceiling: a :class:`~repro.net.client.RemoteLQP` multiplexes
N concurrent requests over its one connection, so its database's group
grows to ``width == native_concurrency`` threads, all draining the same
job queue — N rows for that database genuinely in flight at once while the
wire-level one-connection-per-source invariant still holds (the
concurrency lives in the multiplexer, not in extra sockets).

An :class:`~repro.pqp.executor.Executor` given a pool dispatches into it;
its long-lived workers spare a multi-user service the thread churn of
spawning and joining per-database threads on every ``execute()`` call.  A
:class:`~repro.service.federation.PolygenFederation` owns one ``WorkerPool``
and shares it across every session and every concurrently executing plan:
jobs from different queries bound for the same database simply queue on
that database's group.  Only a plan with a local row at a source that
overlaps (:attr:`~repro.lqp.base.LocalQueryProcessor.overlaps`: a socket,
a sleep) and another local row beside it reaches the pool; every other
plan runs inline on its coordinator, so a federation of in-process
sources starts no worker.

Jobs are fire-and-forget callables: the executor routes completions through
its own queue, so the pool never holds results.  Workers are daemon threads
— an abandoned pool cannot block interpreter exit — but well-behaved owners
call :meth:`close` (or use the pool as a context manager), which drains
every queued job and joins the workers.
"""

from __future__ import annotations

import itertools
import queue
import threading
import weakref
from typing import Callable, Dict, List, Tuple

from repro.errors import ServiceClosedError

__all__ = ["WorkerPool"]

#: Sentinel telling a worker thread to exit its loop.
_STOP = object()


def _stop_workers(groups: "Dict[str, _WorkerGroup]") -> None:
    """GC finalizer: wake every worker with a stop sentinel so a pool
    dropped without :meth:`WorkerPool.close` does not strand its (daemon)
    threads parked in ``queue.get()`` forever.  Takes the groups dict,
    not the pool, so the finalizer holds no reference that would keep the
    pool alive.  Redundant sentinels after an explicit close are harmless.
    """
    for group in list(groups.values()):
        for _ in group.threads:
            group.jobs.put(_STOP)


class _WorkerGroup:
    """One database's workers: N threads draining a shared job queue.

    ``width == 1`` is the historical single worker; wider groups serve
    LQPs with native concurrency (a free thread picks the next job, so
    jobs distribute to idle workers without any routing logic).
    """

    __slots__ = ("name", "prefix", "jobs", "threads", "busy", "_busy_lock")

    def __init__(self, name: str, prefix: str):
        self.name = name
        self.prefix = prefix
        self.jobs: "queue.SimpleQueue[object]" = queue.SimpleQueue()
        self.threads: List[threading.Thread] = []
        self.busy = 0
        self._busy_lock = threading.Lock()
        self._spawn()

    def _spawn(self) -> None:
        # The first thread keeps the historical `prefix-DB` name (asserted
        # stable by the no-thread-churn stress test); extra width is
        # visibly numbered `prefix-DB#2`, `#3`, …
        ordinal = len(self.threads) + 1
        name = self.prefix if ordinal == 1 else f"{self.prefix}#{ordinal}"
        thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self.threads.append(thread)
        thread.start()

    def grow_to(self, width: int) -> None:
        """Ensure at least ``width`` threads (caller holds the pool lock).
        Groups only grow: a database observed wide once stays wide, so
        thread names remain stable across queries."""
        while len(self.threads) < width:
            self._spawn()

    def _loop(self) -> None:
        while True:
            job = self.jobs.get()
            if job is _STOP:
                return
            with self._busy_lock:
                self.busy += 1
            try:
                job()
            except BaseException:
                # Fire-and-forget jobs report outcomes (including errors)
                # through their own channel; a job that raises anyway must
                # not take one of the database's workers down with it.
                pass
            finally:
                with self._busy_lock:
                    self.busy -= 1
                # Drop the closure before parking in get(): a job captures
                # its executor (which holds this pool), and a reference
                # surviving in this frame would keep an abandoned pool
                # uncollectable — so its GC finalizer could never stop us.
                job = None

    def occupancy(self) -> int:
        """Jobs queued or running right now (approximate, lock-free)."""
        return self.jobs.qsize() + self.busy


class WorkerPool:
    """Long-lived worker groups, one per local database name."""

    _instances = itertools.count()

    def __init__(self, thread_name_prefix: str = "lqp"):
        self._prefix = f"{thread_name_prefix}-{next(self._instances)}"
        self._lock = threading.Lock()
        self._groups: Dict[str, _WorkerGroup] = {}
        self._closed = False
        self._finalizer = weakref.finalize(self, _stop_workers, self._groups)

    # -- dispatch -----------------------------------------------------------

    def submit(self, database: str, job: Callable[[], None], width: int = 1) -> None:
        """Queue ``job`` on ``database``'s worker group (created on first
        use), growing the group to ``width`` threads if it is narrower.

        Fire-and-forget: the job communicates its outcome through whatever
        channel it closed over.  Raises :class:`ServiceClosedError` once the
        pool is closed.

        The enqueue happens under the pool lock so it serializes against
        :meth:`close`: a job is either queued ahead of the stop sentinels
        (and will run during the close drain) or refused — never silently
        dropped behind them.
        """
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width}")
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    f"worker pool {self._prefix!r} is closed"
                )
            group = self._groups.get(database)
            if group is None:
                group = _WorkerGroup(database, f"{self._prefix}-{database}")
                self._groups[database] = group
            group.grow_to(width)
            group.jobs.put(job)

    # -- introspection ------------------------------------------------------

    @property
    def closed(self) -> bool:
        return self._closed

    def worker_count(self) -> int:
        """Databases with a live worker group."""
        with self._lock:
            return len(self._groups)

    def width(self, database: str) -> int:
        """Threads currently serving ``database`` (0 when none yet)."""
        with self._lock:
            group = self._groups.get(database)
            return len(group.threads) if group else 0

    def thread_names(self) -> Tuple[str, ...]:
        """The worker threads' names, sorted — stable across queries, which
        is what the no-thread-churn stress test asserts."""
        with self._lock:
            return tuple(
                sorted(
                    thread.name
                    for group in self._groups.values()
                    for thread in group.threads
                )
            )

    def occupancy(self) -> Dict[str, int]:
        """Per-database jobs queued or running (the pool-occupancy stat)."""
        with self._lock:
            return {name: g.occupancy() for name, g in self._groups.items()}

    # -- lifecycle ----------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Stop accepting work, let queued jobs drain, join the workers.

        Idempotent.  With ``wait=False`` the stop sentinels are queued but
        the (daemon) workers are not joined.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            groups = list(self._groups.values())
            # Sentinels go out under the lock: submit() also enqueues under
            # it, so no job can land behind a _STOP and no worker created
            # concurrently can miss one.  One sentinel per thread: the
            # shared queue hands each exactly one.
            for group in groups:
                for _ in group.threads:
                    group.jobs.put(_STOP)
        if wait:
            for group in groups:
                for thread in group.threads:
                    thread.join()

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        threads = sum(len(g.threads) for g in self._groups.values())
        return (
            f"WorkerPool({self._prefix!r}, databases={len(self._groups)}, "
            f"threads={threads}, {state})"
        )
