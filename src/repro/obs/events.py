"""Structured event log: JSONL sink + bounded in-memory tail.

Every event is one JSON object per line — ``{"at": <unix seconds>,
"event": <kind>, ...fields}`` — appended to an optional file and kept
in a bounded in-memory deque (the tail the tests and the example read;
a crashed scrape loses nothing that matters).  Writes take one lock, so
concurrent sessions interleave whole lines, never torn ones.

The marquee consumer is the **slow-query log**: when a query's wall
time crosses the ``slow_query_ms`` threshold (a
:class:`~repro.service.options.QueryOptions` knob with a federation
default), the federation emits a ``slow_query`` event carrying
everything needed to debug it after the fact — the structural plan
fingerprint, the plan shape (``"rewritten"`` when the optimizer ran,
else ``None``), the cache disposition (hit/miss/spliced), per-LQP busy
time and the consulted source tags.
:func:`slow_query_event` builds that payload so the federation and the
tests agree on its schema.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from pathlib import Path
from typing import Dict, List, Optional, Union

__all__ = ["EventLog", "slow_query_event"]


class EventLog:
    """Thread-safe structured event sink.

    ``path=None`` keeps events purely in memory (the default for
    embedded federations and tests); a path appends JSONL.  ``tail``
    bounds the in-memory deque.
    """

    def __init__(
        self,
        path: Optional[Union[str, Path]] = None,
        *,
        tail: int = 256,
    ) -> None:
        self._path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._tail: "deque[Dict[str, object]]" = deque(maxlen=tail)
        self._emitted = 0

    @property
    def path(self) -> Optional[Path]:
        return self._path

    def emit(self, event: str, **fields: object) -> Dict[str, object]:
        """Record one event; returns the full record (with timestamp)."""
        record: Dict[str, object] = {"at": time.time(), "event": event}
        record.update(fields)
        line = json.dumps(record, default=str, sort_keys=True)
        with self._lock:
            self._emitted += 1
            self._tail.append(record)
            if self._path is not None:
                with self._path.open("a", encoding="utf-8") as sink:
                    sink.write(line + "\n")
        return record

    def records(
        self, event: Optional[str] = None
    ) -> List[Dict[str, object]]:
        """The in-memory tail, oldest first, optionally filtered by kind."""
        with self._lock:
            records = list(self._tail)
        if event is not None:
            records = [r for r in records if r.get("event") == event]
        return records

    def __len__(self) -> int:
        with self._lock:
            return self._emitted


def slow_query_event(
    *,
    query: str,
    elapsed_ms: float,
    threshold_ms: float,
    fingerprint: Optional[str],
    shape: Optional[str],
    cache: str,
    busy_by_location: Dict[str, float],
    sources: List[str],
    session: Optional[str] = None,
    engine: Optional[str] = None,
) -> Dict[str, object]:
    """The canonical slow-query payload (sans timestamp/kind).

    ``cache`` is the disposition: ``"hit"``, ``"miss"``, ``"spliced"``
    or ``"off"``.  ``busy_by_location`` maps each LQP (and ``"PQP"``)
    to seconds spent busy on this query's rows.
    """
    return {
        "query": query,
        "elapsed_ms": round(float(elapsed_ms), 3),
        "threshold_ms": float(threshold_ms),
        "fingerprint": fingerprint,
        "shape": shape,
        "cache": cache,
        "busy_by_location": {
            location: round(float(busy), 6)
            for location, busy in sorted(busy_by_location.items())
        },
        "sources": sorted(sources),
        "session": session,
        "engine": engine,
    }
