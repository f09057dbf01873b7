"""An append-only log-structured local engine (JSONL segments).

:class:`LogStoreLQP` models the weakest interesting source in a
heterogeneous federation: an event-log store that can only *append* and
*replay*.  Data lives in a directory of ``segment-NNNNN.jsonl`` files —
one JSON record per line — and opening a store replays every segment in
order to rebuild an in-memory index (relation headings + row lists).
Appends write through to the active segment, which rotates once it
reaches ``segment_rows`` records, so a long-lived store stays a series
of bounded immutable files plus one live tail.

The engine has essentially no native query power, and says so through
its :class:`~repro.lqp.base.Capabilities`: selections scan-filter the
replayed rows in Python, there is no native projection, and — crucially
— nothing stops another process from appending to the same directory,
so the store *cannot signal writes*.  The federation's result cache
reads that last flag and bounds staleness with a TTL instead of
trusting invalidation (:mod:`repro.service.cache`).

Record grammar, one JSON object per line::

    {"polygen": {"database": "AD"}}                       # first line ever
    {"create": {"relation": "BUSINESS",
                "heading": ["BNAME", "IND"], "key": ["BNAME"]}}
    {"rows": {"relation": "BUSINESS", "rows": [["IBM", "High Tech"]]}}

Values must be JSON-safe scalars (nil/int/float/str — no bools, which
polygen comparison semantics treat as a distinct type JSON round-trips
cannot preserve apart from careful handling; refusing keeps replay
faithful), enforced at append time with
:class:`~repro.errors.LocalEngineError`.
"""

from __future__ import annotations

import json
import math
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.predicate import Theta
from repro.errors import (
    ConstraintViolationError,
    LocalEngineError,
    UnknownRelationError,
)
from repro.lqp.base import Capabilities, LocalQueryProcessor
from repro.relational import algebra
from repro.relational.database import LocalDatabase
from repro.relational.relation import Relation
from repro.relational.schema import RelationSchema

__all__ = ["LogStoreLQP"]

_SEGMENT_PREFIX = "segment-"
_SEGMENT_SUFFIX = ".jsonl"


def _json_safe(value: Any) -> bool:
    """Scalars a JSONL record round-trips without changing type."""
    if value is None or isinstance(value, str):
        return True
    if isinstance(value, bool):
        return False
    if isinstance(value, int):
        return True
    if isinstance(value, float):
        return math.isfinite(value)  # NaN/inf are not JSON
    return False


class LogStoreLQP(LocalQueryProcessor):
    """A local database persisted as replayable JSONL segments."""

    def __init__(
        self,
        path: str,
        database: Optional[str] = None,
        segment_rows: int = 4096,
    ):
        self._path = path
        self._segment_rows = segment_rows
        self._headings: Dict[str, List[str]] = {}
        self._keys: Dict[str, List[str]] = {}
        self._rows: Dict[str, List[Tuple[Any, ...]]] = {}
        self._active = None
        self._active_records = 0
        self._segment_index = 0
        os.makedirs(path, exist_ok=True)
        replayed_name = self._replay()
        if replayed_name is None:
            if database is None:
                raise LocalEngineError(
                    f"log store {path!r} is empty; a database name is "
                    "required to create it"
                )
            self._name = database
            self._append_record({"polygen": {"database": database}})
        else:
            if database is not None and database != replayed_name:
                raise LocalEngineError(
                    f"log store {path!r} holds database {replayed_name!r}, "
                    f"not {database!r}"
                )
            self._name = replayed_name

    # -- replay / segments ---------------------------------------------------

    def _segments(self) -> List[str]:
        names = sorted(
            entry
            for entry in os.listdir(self._path)
            if entry.startswith(_SEGMENT_PREFIX)
            and entry.endswith(_SEGMENT_SUFFIX)
        )
        return [os.path.join(self._path, name) for name in names]

    def _replay(self) -> Optional[str]:
        """Rebuild the in-memory index from every segment, oldest first."""
        name: Optional[str] = None
        segments = self._segments()
        for segment in segments:
            records = 0
            with open(segment, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    records += 1
                    record = json.loads(line)
                    if "polygen" in record:
                        name = record["polygen"]["database"]
                    elif "create" in record:
                        body = record["create"]
                        self._headings[body["relation"]] = list(body["heading"])
                        self._keys[body["relation"]] = list(body.get("key", []))
                        self._rows[body["relation"]] = []
                    elif "rows" in record:
                        body = record["rows"]
                        self._rows[body["relation"]].extend(
                            tuple(row) for row in body["rows"]
                        )
            self._segment_index += 1
            self._active_records = records
        if segments:
            # Resume appending to the last segment until it fills.
            self._segment_index -= 1
            last = segments[-1]
            if self._active_records >= self._segment_rows:
                self._segment_index += 1
                self._active_records = 0
            else:
                self._active = open(last, "a", encoding="utf-8")
        return name

    def _append_record(self, record: Dict[str, Any]) -> None:
        if self._active is not None and self._active_records >= self._segment_rows:
            self._active.close()
            self._active = None
            self._segment_index += 1
            self._active_records = 0
        if self._active is None:
            segment = os.path.join(
                self._path,
                f"{_SEGMENT_PREFIX}{self._segment_index:05d}{_SEGMENT_SUFFIX}",
            )
            self._active = open(segment, "a", encoding="utf-8")
        self._active.write(json.dumps(record, sort_keys=True) + "\n")
        self._active.flush()
        self._active_records += 1

    def close(self) -> None:
        if self._active is not None:
            self._active.close()
            self._active = None

    def __enter__(self) -> "LogStoreLQP":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- construction --------------------------------------------------------

    @classmethod
    def from_database(
        cls,
        database: LocalDatabase,
        path: str,
        segment_rows: int = 4096,
    ) -> "LogStoreLQP":
        """Materialize an in-memory :class:`LocalDatabase` into a log."""
        store = cls(path, database=database.name, segment_rows=segment_rows)
        for relation_name in database.relation_names():
            schema = database.schema(relation_name)
            store.create(schema)
            store.append(relation_name, database.relation(relation_name).rows)
        return store

    @classmethod
    def open(cls, path: str, database: Optional[str] = None) -> "LogStoreLQP":
        """Open an existing store (the ``file://`` registry scheme)."""
        return cls(path, database=database)

    # -- capability contract -------------------------------------------------

    def capabilities(self) -> Capabilities:
        return Capabilities(
            native_select=False,
            native_projection=False,
            signals_writes=False,
        )

    # -- schema + data management --------------------------------------------

    @property
    def name(self) -> str:
        return self._name

    @property
    def path(self) -> str:
        return self._path

    def segment_count(self) -> int:
        return len(self._segments())

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._headings)

    def create(self, schema: RelationSchema) -> "LogStoreLQP":
        """Register an (initially empty) relation.  Returns self."""
        if schema.name in self._headings:
            raise ConstraintViolationError(
                f"relation {schema.name!r} already exists in log store for "
                f"database {self._name!r}"
            )
        self._headings[schema.name] = list(schema.attributes)
        self._keys[schema.name] = list(schema.key)
        self._rows[schema.name] = []
        self._append_record(
            {
                "create": {
                    "relation": schema.name,
                    "heading": list(schema.attributes),
                    "key": list(schema.key),
                }
            }
        )
        return self

    def append(self, relation_name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Append rows — the only mutation a log store supports."""
        if relation_name not in self._headings:
            raise UnknownRelationError(relation_name, self._name)
        heading = self._headings[relation_name]
        key = self._keys[relation_name]
        key_positions = [heading.index(a) for a in key]
        existing_keys = {
            tuple(row[p] for p in key_positions)
            for row in self._rows[relation_name]
        } if key_positions else set()
        prepared = []
        for row in rows:
            row_tuple = tuple(row)
            if len(row_tuple) != len(heading):
                raise ConstraintViolationError(
                    f"row of degree {len(row_tuple)} for relation "
                    f"{relation_name!r} of degree {len(heading)}"
                )
            for value in row_tuple:
                if not _json_safe(value):
                    raise LocalEngineError(
                        f"log store cannot persist {value!r} faithfully "
                        f"(relation {relation_name!r})"
                    )
            if key_positions:
                key_value = tuple(row_tuple[p] for p in key_positions)
                if any(part is None for part in key_value):
                    raise ConstraintViolationError(
                        f"nil key value for relation {relation_name!r}"
                    )
                if key_value in existing_keys:
                    raise ConstraintViolationError(
                        f"duplicate key {key_value!r} for relation "
                        f"{relation_name!r}"
                    )
                existing_keys.add(key_value)
            prepared.append(row_tuple)
        if not prepared:
            return
        self._rows[relation_name].extend(prepared)
        self._append_record(
            {
                "rows": {
                    "relation": relation_name,
                    "rows": [list(row) for row in prepared],
                }
            }
        )

    # -- query surface (scan-filter over the replayed index) ------------------

    def _relation(self, relation_name: str) -> Relation:
        if relation_name not in self._headings:
            raise UnknownRelationError(relation_name, self._name)
        return Relation(
            self._headings[relation_name], self._rows[relation_name]
        )

    def retrieve(self, relation_name: str) -> Relation:
        return self._relation(relation_name)

    def select(
        self, relation_name: str, attribute: str, theta: Theta, value: Any
    ) -> Relation:
        return algebra.select(self._relation(relation_name), attribute, theta, value)
