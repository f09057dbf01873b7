"""Unit tests for the service layer's plumbing: WorkerPool and Cursor."""

import threading
import time

import pytest

from repro.core.relation import PolygenRelation
from repro.errors import ServiceClosedError
from repro.service.cursor import Cursor
from repro.service import WorkerPool


class TestWorkerPool:
    def test_workers_are_created_lazily_per_database(self):
        with WorkerPool() as pool:
            assert pool.worker_count() == 0
            done = threading.Event()
            pool.submit("AD", done.set)
            assert done.wait(2.0)
            assert pool.worker_count() == 1
            pool.submit("AD", lambda: None)
            pool.submit("PD", lambda: None)
        assert pool.worker_count() == 2

    def test_same_database_jobs_serialize_in_order(self):
        order = []
        done = threading.Event()
        with WorkerPool() as pool:
            for i in range(20):
                pool.submit("AD", lambda i=i: order.append(i))
            pool.submit("AD", done.set)
            assert done.wait(2.0)
        assert order == list(range(20))

    def test_different_databases_overlap(self):
        barrier = threading.Barrier(2, timeout=2.0)
        with WorkerPool() as pool:
            results = []
            for name in ("AD", "PD"):
                # Each job blocks until the *other* database's worker
                # arrives — only possible if the two run concurrently.
                pool.submit(name, lambda: results.append(barrier.wait()))
            deadline = time.time() + 2.0
            while len(results) < 2 and time.time() < deadline:
                time.sleep(0.005)
        assert sorted(results) == [0, 1]

    def test_close_drains_queued_jobs(self):
        ran = []
        pool = WorkerPool()
        pool.submit("AD", lambda: time.sleep(0.05))
        pool.submit("AD", lambda: ran.append(True))
        pool.close(wait=True)
        assert ran == [True]

    def test_submit_after_close_raises(self):
        pool = WorkerPool()
        pool.close()
        with pytest.raises(ServiceClosedError):
            pool.submit("AD", lambda: None)
        pool.close()  # idempotent

    def test_thread_names_are_stable_and_prefixed(self):
        with WorkerPool(thread_name_prefix="fed") as pool:
            done = threading.Event()
            pool.submit("CD", done.set)
            assert done.wait(2.0)
            names = pool.thread_names()
            assert len(names) == 1 and "fed" in names[0] and "CD" in names[0]
            pool.submit("CD", lambda: None)
            assert pool.thread_names() == names

    def test_width_grows_a_database_worker_group(self):
        barrier = threading.Barrier(3, timeout=2.0)
        with WorkerPool() as pool:
            results = []
            # Three same-database jobs that can only finish together:
            # impossible on the historical single worker, trivial once the
            # group is width 3 (a remote LQP's native concurrency).
            for _ in range(3):
                pool.submit("AD", lambda: results.append(barrier.wait()), width=3)
            deadline = time.time() + 2.0
            while len(results) < 3 and time.time() < deadline:
                time.sleep(0.005)
            assert sorted(results) == [0, 1, 2]
            assert pool.width("AD") == 3
            assert pool.width("PD") == 0

    def test_width_only_grows_and_names_stay_stable(self):
        with WorkerPool(thread_name_prefix="net") as pool:
            done = threading.Event()
            pool.submit("AD", lambda: None, width=2)
            pool.submit("AD", done.set, width=1)  # narrower: no shrink
            assert done.wait(2.0)
            names = pool.thread_names()
            assert len(names) == 2
            assert any(name.endswith("#2") for name in names)
            pool.submit("AD", lambda: None, width=2)
            assert pool.thread_names() == names

    def test_bad_width_rejected(self):
        with WorkerPool() as pool:
            with pytest.raises(ValueError, match="width"):
                pool.submit("AD", lambda: None, width=0)

    def test_occupancy_counts_queued_and_running(self):
        gate = threading.Event()
        with WorkerPool() as pool:
            pool.submit("AD", lambda: gate.wait(2.0))
            pool.submit("AD", lambda: None)
            deadline = time.time() + 2.0
            while pool.occupancy().get("AD", 0) < 2 and time.time() < deadline:
                time.sleep(0.005)
            assert pool.occupancy()["AD"] == 2  # one running, one queued
            gate.set()

    def test_job_errors_do_not_kill_the_worker(self):
        with WorkerPool() as pool:
            def boom():
                raise RuntimeError("job error")

            # Fire-and-forget jobs are expected to swallow their own
            # errors; a raising job must still leave the worker serving.
            pool.submit("AD", boom)
            done = threading.Event()
            pool.submit("AD", done.set)
            assert done.wait(2.0)


def _relation(n=10):
    return PolygenRelation.from_data(
        ["A", "B"], [(f"a{i}", i) for i in range(n)], origins=["AD"]
    )


class TestCursor:
    def test_fetchone_and_end_of_stream(self):
        cursor = Cursor(fetch_size=3)
        cursor._feed(_relation(2))
        assert cursor.fetchone().data == ("a0", 0)
        assert cursor.fetchone().data == ("a1", 1)
        assert cursor.fetchone() is None
        assert cursor.fetchone() is None  # stays at end

    def test_fetchmany_batches_and_attributes(self):
        cursor = Cursor(fetch_size=4)
        cursor._feed(_relation(10))
        assert cursor.attributes == ("A", "B")
        first = cursor.fetchmany()
        assert [row.data[1] for row in first] == [0, 1, 2, 3]
        assert len(cursor.fetchmany(5)) == 5
        assert len(cursor.fetchmany(5)) == 1
        assert cursor.fetchmany() == []

    def test_fetchall_and_iteration(self):
        cursor = Cursor(fetch_size=3)
        cursor._feed(_relation(7))
        assert len(cursor.fetchall()) == 7
        other = Cursor(fetch_size=2)
        other._feed(_relation(5))
        assert [row.data[1] for row in other] == [0, 1, 2, 3, 4]

    def test_mixed_fetches_resume_mid_batch_in_order(self):
        cursor = Cursor(fetch_size=3)
        cursor._feed(_relation(8))
        taken = [cursor.fetchone()] + cursor.fetchmany(4) + [cursor.fetchone()]
        taken += cursor.fetchall()
        assert [row.data[1] for row in taken] == list(range(8))
        assert cursor.fetchall() == [] and cursor.fetchone() is None

    def test_rows_stream_before_the_producer_finishes(self):
        cursor = Cursor(fetch_size=2)

        def produce():
            time.sleep(0.05)
            cursor._feed(_relation(6))

        threading.Thread(target=produce, daemon=True).start()
        rows = cursor.fetchmany(timeout=2.0)
        assert len(rows) == 2

    def test_failure_surfaces_on_fetch(self):
        cursor = Cursor()
        cursor._fail(RuntimeError("query exploded"))
        with pytest.raises(RuntimeError, match="exploded"):
            cursor.fetchone()

    def test_buffered_rows_drain_before_failure(self):
        # A late failure must not eat rows already produced.
        cursor = Cursor(fetch_size=2)
        cursor._feed(_relation(2))
        cursor._fail(RuntimeError("late"))
        assert len(cursor.fetchmany(2)) == 2
        with pytest.raises(RuntimeError, match="late"):
            cursor.fetchone()

    def test_close_refuses_further_fetches(self):
        cursor = Cursor()
        cursor._feed(_relation(3))
        cursor.close()
        with pytest.raises(ServiceClosedError):
            cursor.fetchone()

    def test_fetch_timeout(self):
        cursor = Cursor()
        with pytest.raises(TimeoutError):
            cursor.fetchone(timeout=0.05)
