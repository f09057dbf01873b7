"""The LQP registry: how the PQP routes local operations.

An Intermediate Operation Matrix row carries an execution location (EL);
when the EL names a local database the executor looks its LQP up here.
Every registered LQP is wrapped in an :class:`~repro.lqp.cost.AccountingLQP`
so benchmark runs can interrogate traffic without any extra wiring.

The registry is shared mutable state of a long-lived federation: worker
threads check LQPs out concurrently while an administrator may still be
registering databases.  All mutation and every snapshot therefore happens
under a lock; :meth:`get` checkouts stay a bare dict read (atomic under the
GIL, and the dict is only ever added to), so the per-row hot path pays
nothing for the safety.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterator, Tuple, Union

from repro.errors import ExecutionError, UnknownDatabaseError
from repro.lqp.base import LocalQueryProcessor
from repro.lqp.cost import AccountingLQP, TransferStats

__all__ = ["LQPRegistry"]


class LQPRegistry:
    """Name → LQP lookup with built-in traffic accounting.  Thread-safe."""

    def __init__(self) -> None:
        self._lqps: Dict[str, AccountingLQP] = {}
        #: Remote LQPs this registry dialed itself (URL registrations).
        #: The registry owns their connections: :meth:`close` closes them.
        #: Caller-constructed LQPs stay the caller's to close.
        self._dialed: list = []
        #: Refresh listeners (``listener(database)``): fired when a database
        #: reports changed data — and on registration, since a (re)appearing
        #: database is the ultimate data change.  The federation's semantic
        #: result cache subscribes its invalidator here.
        self._listeners: list = []
        #: Bumped by every registration: what a plan may depend on (the
        #: databases present, their capabilities) changed.  Data changes
        #: (:meth:`notify_refresh`) leave it alone.
        self._version = 0
        self._lock = threading.Lock()

    def register(
        self,
        lqp: Union[LocalQueryProcessor, str],
        **remote_options,
    ) -> AccountingLQP:
        """Register an LQP under its database name.  Returns the accounting
        wrapper actually stored (useful for reading stats later).

        ``lqp`` may also be a URL, in which case the registry opens the
        backend itself and owns the resulting connection (closed by
        :meth:`close`):

        - ``polygen://host:port`` dials the
          :class:`~repro.net.server.LQPServer` at that address and
          registers the resulting :class:`~repro.net.client.RemoteLQP`
          (the database name arrives in the server's hello frame);
          ``remote_options`` — ``concurrency``, ``timeout``,
          ``retries``, ``wire_format``, … — are forwarded to its
          constructor (the wire encoding is a property of the connection).
        - ``sqlite:///path/to/store.db`` opens an existing
          :class:`~repro.backends.sqlite_lqp.SqliteLQP` store.
        - ``file:///path/to/log-dir`` opens an existing
          :class:`~repro.backends.log_lqp.LogStoreLQP` segment
          directory.

        ``remote_options`` are rejected for in-process registrations
        (including the ``sqlite://``/``file://`` schemes — there is no
        transport to configure).
        """
        dialed = None
        if isinstance(lqp, str):
            lqp = dialed = self._open_url(lqp, remote_options)
        elif remote_options:
            raise TypeError(
                "remote transport options "
                f"{sorted(remote_options)} only apply to polygen:// URL "
                "registrations"
            )
        try:
            with self._lock:
                if lqp.name in self._lqps:
                    raise ExecutionError(
                        f"an LQP is already registered for {lqp.name!r}"
                    )
                wrapped = AccountingLQP(lqp)
                self._lqps[lqp.name] = wrapped
                self._version += 1
                if dialed is not None:
                    self._dialed.append(dialed)
        except BaseException:
            # A connection we dialed ourselves must not outlive a failed
            # registration (the name was taken): close it rather than
            # leaking the socket and its reader thread until GC.
            if dialed is not None:
                dialed.close()
            raise
        self.notify_refresh(lqp.name)
        return wrapped

    @staticmethod
    def _open_url(url: str, remote_options) -> LocalQueryProcessor:
        """Open the backend a registration URL names.  Imports are local:
        ``repro.net`` and ``repro.backends`` build on ``repro.lqp``, not
        the reverse, and federations that never use a scheme never pay
        for it."""
        if url.startswith("polygen://"):
            from repro.net.client import RemoteLQP

            return RemoteLQP(url, **remote_options)
        if remote_options:
            raise TypeError(
                "remote transport options "
                f"{sorted(remote_options)} only apply to polygen:// URL "
                "registrations"
            )
        if url.startswith("sqlite://"):
            from repro.backends.sqlite_lqp import SqliteLQP

            return SqliteLQP.open(url[len("sqlite://"):])
        if url.startswith("file://"):
            from repro.backends.log_lqp import LogStoreLQP

            return LogStoreLQP.open(url[len("file://"):])
        from repro.errors import ProtocolError

        raise ProtocolError(
            f"unknown LQP URL scheme in {url!r}: expected polygen://, "
            "sqlite:// or file://"
        )

    def get(self, database: str) -> AccountingLQP:
        try:
            return self._lqps[database]
        except KeyError:
            raise UnknownDatabaseError(database) from None

    def __contains__(self, database: str) -> bool:
        return database in self._lqps

    @property
    def version(self) -> int:
        """How many registrations this registry has seen (plan-memo epoch)."""
        return self._version

    def __iter__(self) -> Iterator[AccountingLQP]:
        with self._lock:
            return iter(tuple(self._lqps.values()))

    def __len__(self) -> int:
        return len(self._lqps)

    def names(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._lqps)

    # -- refresh notifications -------------------------------------------------

    def subscribe(self, listener) -> None:
        """Add a refresh listener: ``listener(database)`` is called whenever
        :meth:`notify_refresh` reports that database's data changed (and
        when a database is registered).  Listeners must not raise."""
        with self._lock:
            self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        """Remove a previously subscribed listener (no-op when absent) — a
        federation sharing this registry unsubscribes its cache on close."""
        with self._lock:
            try:
                self._listeners.remove(listener)
            except ValueError:
                pass

    def notify_refresh(self, database: str) -> None:
        """Report that ``database``'s underlying data changed (a write, a
        reload, a re-registration).  Fires every listener outside the lock,
        so a listener may safely consult the registry."""
        with self._lock:
            listeners = tuple(self._listeners)
        for listener in listeners:
            listener(database)

    # -- accounting -----------------------------------------------------------

    def stats(self) -> Dict[str, TransferStats]:
        """Per-database traffic counters."""
        with self._lock:
            return {name: lqp.stats for name, lqp in self._lqps.items()}

    def total_stats(self) -> TransferStats:
        total = TransferStats()
        for lqp in self:
            total = total.merged_with(lqp.stats)
        return total

    def reset_stats(self) -> None:
        for lqp in self:
            lqp.stats.reset()

    # -- lifecycle ------------------------------------------------------------

    def close(self) -> None:
        """Close every backend *this registry opened itself* (URL
        registrations: remote connections, SQLite handles, log segment
        files).  Idempotent; caller-constructed LQPs — including
        hand-built :class:`~repro.net.client.RemoteLQP`\\ s — are untouched,
        they belong to whoever made them.  Called by
        :meth:`~repro.service.federation.PolygenFederation.close`, so a
        federation built from URLs tears its transports down with it."""
        with self._lock:
            dialed, self._dialed = self._dialed, []
        for remote in dialed:
            remote.close()
