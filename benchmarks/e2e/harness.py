"""Set-up, the closed-loop clients, answer checks and harness hygiene.

One :class:`System` is one complete set-up of a workload — generated data,
sources (in-memory, SQLite, or LQPServers in a child process), a
:class:`~repro.service.federation.PolygenFederation` and one session per
client.  :class:`Client` drives one session in a closed loop through the
public API only: ``Session.submit(text)`` then ``QueryHandle.stream()``
drained with ``chunks()`` or ``fetchmany()``/``fetchall()``; an operation
is timed from ``submit`` to the last tagged tuple out of the cursor, and
every check happens after that interval closes.

The clock (README, "The clock"): everything runs on one CPU, times are
read off the CPU clock of this process and its server child
(:meth:`System.cpu_seconds`), and the timed run is made of whole blocks
with a :func:`yardstick` between them (:class:`Rounds`) by which each
block's times are normalized (:func:`block_means`).
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import select
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.backends.sqlite_lqp import SqliteLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.net.client import RemoteLQP
from repro.net.protocol import parse_url
from repro.service.federation import PolygenFederation
from repro.service.options import QueryOptions

from check import canonical_rows, checksum
from tracing import Recorder, SpanRecord, TimedLQP, to_records
from workloads import REMOTE_CONCURRENCY, Read, Workload, Write

__all__ = [
    "Client", "Phase", "System", "block_means", "host_speed", "oracle_expected",
    "percentile", "pin_to_one_cpu", "run_phase", "run_timed", "verify_answers", "yardstick",
]

HERE = Path(__file__).resolve().parent

#: Hard limit on any single wait for a query's rows or result; an op that
#: hits it is a failed op, never a hang.
OP_TIMEOUT_S = 30.0
#: How long a helper process may take to come up or to exit.
CHILD_TIMEOUT_S = 60.0
#: Consecutive failed ops after which a client gives up on the run.
MAX_CONSECUTIVE_FAILURES = 3


def pin_to_one_cpu() -> None:
    """Pin this process, every thread it starts and every child process
    (the LQP server child inherits the mask) to its last allowed CPU — the
    first one serves the VM's device interrupts.

    On a small VM of a shared host the scheduler otherwise moves one
    query's threads — client, coordinator, per-database workers — between
    CPUs, each cross-CPU wake-up of the hand-offs between them costs
    enough that whole seconds of a run flip between two latency modes 1.5x
    apart, and a second CPU's speed varies on its own.  The two workloads
    that used both CPUs (``scan_remote``'s server child, ``sessions_mixed``'s
    second client) spread 20-34 % from run to run of one commit; on one CPU
    they repeat like the others.  The interpreter lock serializes a
    process's threads anyway; what one CPU hides is the overlap of the
    server child's encoding with the coordinator's decoding, and whatever
    a later change gains by releasing the lock (README, "Not covered").
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def oracle_expected(
    workload: Workload, seed: int, writes: int = 0, queries: str = "all"
) -> Dict[int, Tuple[int, str]]:
    """Reference ``(cardinality, checksum)`` per query index, computed by
    ``check.py`` in its own process (its memory must not count as ours)."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "check.py"),
            "--workload", workload.name, "--seed", str(seed),
            "--writes", str(writes), "--queries", queries,
        ],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S * 2, check=True,
    )
    expected = json.loads(completed.stdout.splitlines()[-1])["expected"]
    return {int(index): (pair[0], pair[1]) for index, pair in expected.items()}


class _ServerChild:
    """The ``scan_remote`` source process; reaped on every exit path."""

    def __init__(self, workload: Workload, seed: int):
        self._process = subprocess.Popen(
            [
                sys.executable, str(HERE / "server_child.py"),
                "--workload", workload.name, "--seed", str(seed),
            ],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            ready, _, _ = select.select([self._process.stdout], [], [], CHILD_TIMEOUT_S)
            line = self._process.stdout.readline() if ready else ""
            if not line:
                raise RuntimeError("the LQP server child did not come up")
            self.urls: Dict[str, str] = json.loads(line)["urls"]
            self._asking = threading.Lock()
        except BaseException:
            self.stop()
            raise

    def cpu_seconds(self) -> float:
        """CPU the child has used so far: it answers every line on its
        stdin with its ``time.process_time()``."""
        with self._asking:
            self._process.stdin.write("cpu\n")
            self._process.stdin.flush()
            ready, _, _ = select.select([self._process.stdout], [], [], CHILD_TIMEOUT_S)
            line = self._process.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("the LQP server child does not answer")
        return float(line)

    def stop(self) -> None:
        process = self._process
        if process.stdin and not process.stdin.closed:
            process.stdin.close()  # end-of-file on stdin is its cue to exit
        try:
            process.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
        if process.stdout:
            process.stdout.close()


class System:
    """One set-up of a workload, from data generation to open sessions."""

    def __init__(
        self,
        workload: Workload,
        seed: int,
        recorder: Optional[Recorder] = None,
    ):
        """With a ``recorder`` every source is registered behind a
        :class:`~tracing.TimedLQP` (the ``--trace 1`` configuration)."""
        self.workload = workload
        self._threads_before = set(threading.enumerate())
        self.dataset = workload.dataset(seed)
        self.federation: Optional[PolygenFederation] = None
        self.sqlite: Dict[str, SqliteLQP] = {}
        self._remotes: List[RemoteLQP] = []
        self._child: Optional[_ServerChild] = None
        try:
            registry = LQPRegistry()
            self._register_sources(registry, seed, recorder)
            self.federation = PolygenFederation(
                self.dataset.schema,
                registry,
                resolver=self.dataset.resolver,
                defaults=QueryOptions(**workload.options),
            )
            self.sessions = [
                self.federation.session(f"client-{index}")
                for index in range(workload.clients)
            ]
        except BaseException:
            self.close()
            raise

    def _register_sources(self, registry: LQPRegistry, seed: int, recorder) -> None:
        def timed(lqp, span_name: str, **attributes):
            if recorder is None:
                return lqp
            return TimedLQP(lqp, recorder, span_name, **attributes)

        if self.workload.sources == "remote":
            self._child = _ServerChild(self.workload, seed)
            for url in self._child.urls.values():
                if recorder is None:
                    registry.register(url, concurrency=REMOTE_CONCURRENCY)
                    continue
                remote = RemoteLQP(url, concurrency=REMOTE_CONCURRENCY)
                self._remotes.append(remote)
                host, port = parse_url(url)
                # The decoder runs on this transport's event-loop thread.
                registry.register(
                    timed(remote, "net.scan", peer=f"lqp-mux-{host}:{port}")
                )
            return
        for name, database in self.dataset.databases.items():
            if self.workload.sources == "sqlite":
                self.sqlite[name] = SqliteLQP.from_database(database)
                registry.register(timed(self.sqlite[name], "backends.sqlite"))
            else:
                registry.register(timed(RelationalLQP(database), "lqp.verb"))

    @property
    def server_urls(self) -> Dict[str, str]:
        return self._child.urls if self._child is not None else {}

    def cpu_seconds(self) -> float:
        """The benchmark's clock: CPU this process and its server child
        have used (see README, "The clock")."""
        child = self._child.cpu_seconds() if self._child is not None else 0.0
        return time.process_time() + child

    def tuples_shipped(self) -> int:
        return self.federation.registry.total_stats().tuples_shipped

    def close(self) -> List[str]:
        """Tear everything down; returns the names of leaked threads
        (threads alive now that were not before the set-up began)."""
        if self.federation is not None:
            self.federation.close()
        for remote in self._remotes:
            remote.close()
        for store in self.sqlite.values():
            store.close()
        if self._child is not None:
            self._child.stop()
        leaked = [t for t in threading.enumerate() if t not in self._threads_before]
        for thread in leaked:
            thread.join(timeout=2.0)
        return [thread.name for thread in leaked if thread.is_alive()]


# -- one client's closed loop --------------------------------------------------


@dataclass
class Phase:
    """What one client measured between two points of its op sequence."""

    #: Per read, on the CPU clock: submit → last tuple, submit → first batch.
    latencies: List[float] = field(default_factory=list)
    first_batches: List[float] = field(default_factory=list)
    #: Per read, submit → last tuple on the wall clock.
    wall_latencies: List[float] = field(default_factory=list)
    rows_returned: int = 0
    attempted: int = 0
    failed: int = 0
    stale_reads: int = 0
    reads_after_write: int = 0
    cache_hits: int = 0
    cache_splices: int = 0
    reads: int = 0
    errors: List[str] = field(default_factory=list)
    #: The first and last read of the phase, kept for their full checksum.
    first_read: Optional[Tuple[Read, list, int]] = None
    last_read: Optional[Tuple[Read, list, int]] = None
    #: Latency samples so far at each whole block's end (timed phase only).
    block_samples: List[int] = field(default_factory=lambda: [0])
    records: List[SpanRecord] = field(default_factory=list)
    busy_lqp: float = 0.0
    busy_pqp: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(message)


class Client:
    """One session's closed loop over its seeded op sequence."""

    def __init__(
        self,
        system: System,
        index: int,
        seed: int,
        expected: Dict[int, Tuple[int, str]],
        recorder: Optional[Recorder] = None,
    ):
        self._system = system
        self._session = system.sessions[index]
        self._ops: Iterator[object] = system.workload.client_ops(seed, index, system.dataset)
        self._expected = expected
        self._recorder = recorder
        #: ``--trace 1`` runs wait for the QueryResult after every op
        #: (outside the timed interval) — traced or not, so that the traced
        #: and untraced passes of one process run the same loop.
        self._wait_result = recorder is not None
        self.traced = False
        self.writes = 0
        self.ops_done = 0
        #: query index → (read, answer) at its first unbumped occurrence.
        self.first_seen: Dict[int, Tuple[Read, list]] = {}

    # -- reads ---------------------------------------------------------------

    def _now(self) -> Tuple[float, float]:
        """(wall clock, CPU clock)."""
        return time.perf_counter(), self._system.cpu_seconds()

    def _drain(self, cursor) -> Tuple[Tuple[float, float], list]:
        """Drain ``cursor``; returns (time of first batch, answer parts)."""
        if self._system.workload.reader == "chunks":
            parts = []
            first = None
            for batch in cursor.chunks(timeout=OP_TIMEOUT_S):
                if first is None:
                    first = self._now()
                parts.append(batch)
            return (first if first is not None else self._now()), parts
        rows = cursor.fetchmany(timeout=OP_TIMEOUT_S)
        first = self._now()
        rows.extend(cursor.fetchall(timeout=OP_TIMEOUT_S))
        return first, rows

    def _read(self, op: Read, phase: Phase) -> None:
        tracing = self.traced and self._recorder is not None
        root = self._recorder.root("op", kind="read") if tracing else None
        started = self._now()
        if tracing:
            with root:
                with self._recorder.span("service.submit"):
                    handle = self._session.submit(op.text)
                with self._recorder.span("cursor.read"):
                    first, answer = self._drain(handle.stream())
        else:
            handle = self._session.submit(op.text)
            first, answer = self._drain(handle.stream())
        finished = self._now()
        # -- the timed interval is closed; everything below is checking --
        phase.wall_latencies.append(finished[0] - started[0])
        phase.latencies.append(finished[1] - started[1])
        phase.first_batches.append(first[1] - started[1])
        phase.reads += 1
        if self._wait_result:
            result = handle.result(timeout=OP_TIMEOUT_S)
            phase.cache_hits += bool(result.cache_hit)
            phase.cache_splices += bool(result.caching is not None and result.caching.any)
            if tracing:
                phase.records.extend(to_records(root.trace_spans(), self.ops_done))
                phase.records.extend(
                    to_records(result.trace.spans, self.ops_done, parent=root.span_id)
                )
                for location, seconds in result.trace.busy_by_location().items():
                    if location == "PQP":
                        phase.busy_pqp += seconds
                    else:
                        phase.busy_lqp += seconds
        self._check(op, answer, phase)

    def _check(self, op: Read, answer: list, phase: Phase) -> None:
        rows = sum(getattr(part, "cardinality", 1) for part in answer)
        phase.rows_returned += rows
        kept = (op, answer, self.writes)
        if phase.first_read is None:
            phase.first_read = kept
        phase.last_read = kept
        if op.after_write:
            phase.reads_after_write += 1
        if op.query is None:
            # A probe: the key a write is about to insert / just inserted.
            want = [] if op.row is None else [op.row]
            got = [
                tuple(cell.datum for cell in row) for row in answer
            ]
            origins_ok = all(
                cell.origins == frozenset({op.origin}) for row in answer for cell in row
            )
            if got != want or not origins_ok:
                if op.after_write:
                    phase.stale_reads += 1
                phase.fail(f"probe {op.text!r}: expected {want}, got {got}")
            return
        cardinality = self._expected[op.query][0] + op.bump
        if rows != cardinality:
            if op.bump:
                phase.stale_reads += 1
            phase.fail(f"{op.text!r}: expected {cardinality} rows, got {rows}")
        elif not op.bump and op.query not in self.first_seen:
            self.first_seen[op.query] = (op, answer)

    def first_answer(self) -> Phase:
        """The set-up's closing step: the workload's first distinct query,
        answered and checked (the same query on every seed, unlike the
        first op of the seeded sequence)."""
        phase = Phase(attempted=1)
        try:
            self._read(Read(self._system.dataset.queries[0].text, 0), phase)
        except Exception as error:
            phase.fail(f"{type(error).__name__}: {error}")
        return phase

    # -- writes --------------------------------------------------------------

    def _write(self, op: Write, phase: Phase) -> None:
        source = self._system.sqlite[op.database]
        federation = self._system.federation
        if self.traced and self._recorder is not None:
            root = self._recorder.root("op", kind="write")
            with root:
                with self._recorder.span("backends.sqlite.insert"):
                    source.insert("ORG", [op.row])
                with self._recorder.span("cache.invalidate") as span:
                    span.set(entries=federation.invalidate(op.database))
            phase.records.extend(to_records(root.trace_spans(), self.ops_done))
        else:
            source.insert("ORG", [op.row])
            federation.invalidate(op.database)
        self.writes += 1

    # -- the loop ------------------------------------------------------------

    def run(self, stop: Callable[[int], bool], rounds: Optional["Rounds"] = None) -> Phase:
        """Run ops until ``stop(ops done in this phase)`` says so; with
        ``rounds``, meet the other clients there at every block's end."""
        block_ops = self._system.workload.block_ops
        phase = Phase()
        done = 0
        consecutive = 0
        while not stop(done):
            op = next(self._ops)
            phase.attempted += 1
            failures = phase.failed
            try:
                if isinstance(op, Write):
                    self._write(op, phase)
                else:
                    self._read(op, phase)
            except Exception as error:  # a failed op is a result, not a crash
                phase.fail(f"{type(error).__name__}: {error}")
            consecutive = consecutive + 1 if phase.failed > failures else 0
            if consecutive >= MAX_CONSECUTIVE_FAILURES:
                phase.errors.append("giving up after repeated failures")
                if rounds is not None:
                    rounds.abort()
                break
            done += 1
            self.ops_done += 1
            if rounds is not None and done % block_ops == 0:
                phase.block_samples.append(len(phase.latencies))
                rounds.meet()
        return phase


def run_phase(
    clients: Sequence[Client],
    stop: Callable[[int], bool],
    rounds: Optional["Rounds"] = None,
) -> List[Phase]:
    """Run every client's loop at once (the first on the calling thread)."""
    phases: List[Optional[Phase]] = [None] * len(clients)

    def drive(index: int) -> None:
        phases[index] = clients[index].run(stop, rounds)

    threads = [
        threading.Thread(target=drive, args=(index,), name=f"bench-client-{index}")
        for index in range(1, len(clients))
    ]
    for thread in threads:
        thread.start()
    drive(0)
    for thread in threads:
        thread.join()
    return phases


# -- the timed run: whole blocks between yardsticks ----------------------------

_YARDSTICK_TABLE = {key: (key, str(key)) for key in range(50_000)}
_YARDSTICK_KEYS = random.Random(0).sample(range(50_000), 14_000)
#: What the yardstick takes on an undisturbed CPU of the machine the first
#: baselines were taken on.  It only fixes the scale of the reported times.
YARDSTICK_REFERENCE_S = 0.0150


def yardstick() -> float:
    """Seconds of this thread's CPU that a fixed piece of interpreter work
    takes: an arithmetic loop (four fifths of it) and a walk over a
    50k-entry dict in shuffled order (one fifth).  It uses nothing of the
    program under test, so it costs the same on every commit; what moves
    it is the speed at which the host runs this CPU right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.thread_time()
        total = 0
        for number in range(520_000):
            total += number
        table = _YARDSTICK_TABLE
        for key in _YARDSTICK_KEYS:
            total += table[key][0]
        return time.thread_time() - began
    finally:
        if enabled:
            gc.enable()


def host_speed(*yardsticks: float) -> float:
    """The host's speed while ``yardsticks`` were taken (1 = reference):
    multiply a CPU time measured between them by it to normalize it."""
    return YARDSTICK_REFERENCE_S / statistics.fmean(yardsticks)


@dataclass
class Mark:
    """A block boundary: the clocks when the block before it ended, the
    yardstick run at the boundary, the clocks when the next block began."""

    ended_wall: float
    ended_cpu: float
    shipped: int
    yardstick: float
    began_wall: float
    began_cpu: float


class Rounds:
    """Where the clients of a timed phase meet after every block.

    All clients wait here; one of them records a :class:`Mark` (running
    the yardstick while the others are parked, so it is timed alone) and
    decides whether the phase is over; then all go on with their next
    block.  A block therefore starts on every client at the same instant
    and ends when the slowest client has finished its ``block_ops`` ops.
    """

    def __init__(self, system: System, clients: int, seconds: float):
        self._system = system
        self._barrier = threading.Barrier(clients, action=self._mark)
        self.stopped = False
        self.marks: List[Mark] = []
        self._deadline = time.perf_counter() + seconds
        self._mark()

    def _mark(self) -> None:
        ended = time.perf_counter(), self._system.cpu_seconds()
        shipped = self._system.tuples_shipped()
        measured = yardstick()
        self.marks.append(
            Mark(*ended, shipped, measured, time.perf_counter(), self._system.cpu_seconds())
        )
        self.stopped = self.stopped or time.perf_counter() >= self._deadline

    def meet(self) -> None:
        try:
            self._barrier.wait(timeout=OP_TIMEOUT_S * 4)
        except threading.BrokenBarrierError:
            self.stopped = True

    def abort(self) -> None:
        self.stopped = True
        self._barrier.abort()


def run_timed(
    system: System, clients: Sequence[Client], seconds: float
) -> Tuple[List[Phase], List[Mark]]:
    """The timed phase: whole blocks for ``seconds``; returns the clients'
    phases and the marks between the blocks."""
    rounds = Rounds(system, len(clients), seconds)
    phases = run_phase(clients, lambda done: rounds.stopped, rounds)
    return phases, rounds.marks


def trimmed_mean(values: Sequence[float], trim: float = 0.1) -> float:
    """Mean of ``values`` without its lowest and highest ``trim`` share."""
    ordered = sorted(values)
    cut = int(trim * len(ordered))
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def block_means(
    phases: Sequence[Phase], marks: Sequence[Mark], block_ops: int
) -> Dict[str, float]:
    """A timed phase's rates and latencies: **10 %-trimmed means over whole
    blocks, each block's times taken on the CPU clock and normalized by
    the yardsticks run right before and after it** (README, "The clock").

    Every block holds the same mix of operations, so a block is the unit
    that repeats; the trimmed mean drops the blocks a hiccup hit.

    - ``queries_per_s``: the clients' ``block_ops`` each over the block's
      duration;
    - ``tuples_per_s``: source tuples the LQPs shipped during the block
      over its duration;
    - ``query_ms`` / ``first_batch_ms``: the block's mean operation latency
      / mean time to the first batch, pooled over the clients.
    """
    durations, shipped, latencies, first_batches = [], [], [], []
    for index, (start, end) in enumerate(zip(marks, marks[1:])):
        speed = host_speed(start.yardstick, end.yardstick)
        durations.append((end.ended_cpu - start.began_cpu) * speed)
        shipped.append((end.shipped - start.shipped) / durations[-1])
        for samples, into in (("latencies", latencies), ("first_batches", first_batches)):
            block = [
                value
                for phase in phases
                if index + 1 < len(phase.block_samples)
                for value in getattr(phase, samples)[
                    phase.block_samples[index]:phase.block_samples[index + 1]
                ]
            ]
            if block:
                into.append(statistics.fmean(block) * speed)
    if not durations or not latencies:
        raise RuntimeError("the timed phase did not complete one whole block")
    return {
        "queries_per_s": len(phases) * block_ops / trimmed_mean(durations),
        "tuples_per_s": trimmed_mean(shipped),
        "query_ms": trimmed_mean(latencies) * 1e3,
        "first_batch_ms": trimmed_mean(first_batches) * 1e3,
    }


def verify_answers(
    workload: Workload,
    seed: int,
    clients: Sequence[Client],
    phases: Sequence[Phase],
    expected: Dict[int, Tuple[int, str]],
) -> List[str]:
    """Full tag-including checksums, outside every timed interval: each
    distinct query at its first occurrence, and each timed phase's first
    and last read (against the reference *after* the writes before it)."""
    problems = []
    for client in clients:
        for index, (op, answer) in client.first_seen.items():
            if checksum(canonical_rows(answer)) != expected[index][1]:
                problems.append(f"checksum mismatch (first occurrence): {op.text!r}")
    for phase in phases:
        for kept in (phase.first_read, phase.last_read):
            if kept is None or kept[0].query is None:
                continue
            op, answer, writes = kept
            reference = expected
            if op.bump:
                reference = oracle_expected(workload, seed, writes, str(op.query))
            if checksum(canonical_rows(answer)) != reference[op.query][1]:
                problems.append(f"checksum mismatch (after {writes} writes): {op.text!r}")
    return problems
