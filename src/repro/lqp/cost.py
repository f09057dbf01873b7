"""Cost models, traffic accounting and latency injection for LQP traffic.

A :class:`CostModel` prices one local query as ``per_query + per_tuple ·
tuples``; the scheduling simulator (:mod:`repro.pqp.schedule`) and the
optimizer's cost-based mode use it, and :class:`CalibratedCostModel` fits
one to observed executions.

LQP decorators subclass :class:`ForwardingLQP`, which writes the
delegation and the four relation verbs once and hands each shipped
relation to a single hook.  :class:`AccountingLQP` — the wrapper every
registered LQP sits behind — counts queries and shipped tuples in
:class:`TransferStats` (chunk streams included, as their chunks arrive);
:class:`LatencyLQP` injects *real* delay per query and per shipped tuple,
turning an in-memory engine into a slow autonomous source so the
concurrent runtime's overlap is measurable on a wall clock.

Accounting is thread-safe: the concurrent runtime drives one worker per
database, and a single LQP may serve several plans at once, so counter
updates take a lock.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Sequence, Tuple

from repro.lqp.base import Capabilities, LocalQueryProcessor, RelationStats
from repro.relational.relation import Relation

__all__ = [
    "CostModel",
    "CalibratedCostModel",
    "TransferStats",
    "ForwardingLQP",
    "AccountingLQP",
    "LatencyLQP",
]


@dataclass(frozen=True)
class CostModel:
    """A linear cost model for PQP↔LQP traffic.

    ``per_query`` models round-trip/setup latency of one local query;
    ``per_tuple`` models marshalling + transfer of one result tuple.
    Units are arbitrary (call them milliseconds).
    """

    per_query: float = 1.0
    per_tuple: float = 0.01

    def cost(self, queries: int, tuples: int) -> float:
        return self.per_query * queries + self.per_tuple * tuples


@dataclass(frozen=True)
class CalibratedCostModel(CostModel):
    """A :class:`CostModel` fitted to *observed* executions of one LQP.

    The paper's sources are autonomous: the PQP cannot inspect their
    optimizers or catalogs, so the only honest cost model is one learned
    from the traffic the federation itself observed.  Each observation is
    one local query — ``(tuples shipped, measured seconds)`` — and the fit
    is ordinary least squares of ``duration ≈ per_query + per_tuple·tuples``
    (units are therefore *seconds*, unlike the static model's abstract
    milliseconds).  Degenerate sample sets fall back gracefully: a single
    distinct tuple count cannot separate the two components, so the
    per-tuple rate collapses to zero and the per-query intercept absorbs
    the mean; negative components are re-fit with the offending component
    pinned at zero (a latency cannot be negative).

    ``observations`` and ``residual`` (root-mean-square error of the fit,
    seconds) let callers judge how much to trust the model.
    """

    observations: int = 0
    residual: float = 0.0

    @classmethod
    def fit(cls, samples: Sequence[Tuple[int, float]]) -> "CalibratedCostModel":
        """Least-squares fit over ``(tuples, seconds)`` observations."""
        if not samples:
            raise ValueError("cannot fit a cost model to zero observations")
        count = len(samples)
        mean_t = sum(t for t, _ in samples) / count
        mean_d = sum(d for _, d in samples) / count
        var_t = sum((t - mean_t) ** 2 for t, _ in samples)
        if var_t == 0.0:
            per_query, per_tuple = max(mean_d, 0.0), 0.0
        else:
            cov = sum((t - mean_t) * (d - mean_d) for t, d in samples)
            per_tuple = cov / var_t
            per_query = mean_d - per_tuple * mean_t
            if per_tuple < 0.0:
                # Slower for *fewer* tuples is noise, not physics.
                per_query, per_tuple = max(mean_d, 0.0), 0.0
            elif per_query < 0.0:
                # Through-origin refit: all latency is per-tuple.
                denominator = sum(t * t for t, _ in samples)
                per_query = 0.0
                per_tuple = (
                    sum(t * d for t, d in samples) / denominator
                    if denominator
                    else 0.0
                )
        residual = (
            sum(
                (d - (per_query + per_tuple * t)) ** 2 for t, d in samples
            )
            / count
        ) ** 0.5
        return cls(
            per_query=per_query,
            per_tuple=per_tuple,
            observations=count,
            residual=residual,
        )

    @classmethod
    def from_sums(
        cls,
        count: int,
        sum_t: int,
        sum_tt: int,
        sum_d: float,
        sum_td: float,
        sum_dd: float,
    ) -> "CalibratedCostModel":
        """:meth:`fit` from running sums instead of the samples: O(1).

        ``sum_t``/``sum_tt`` (Σt, Σt²) are exact integers, so the
        single-distinct-count case (``var_t == 0``) is decided exactly;
        ``sum_d``/``sum_td``/``sum_dd`` are Σd, Σt·d, Σd².  Same branches
        as :meth:`fit`, which stays the reference the two are tested
        against."""
        if count <= 0:
            raise ValueError("cannot fit a cost model to zero observations")
        mean_t = sum_t / count
        mean_d = sum_d / count
        # Centered sums: n·Var and n·Cov, not the raw second moments.
        var_t = (count * sum_tt - sum_t * sum_t) / count
        var_d = max(sum_dd - sum_d * mean_d, 0.0)
        cov = sum_td - sum_t * mean_d
        if var_t == 0:
            per_query, per_tuple = max(mean_d, 0.0), 0.0
        else:
            per_tuple = cov / var_t
            per_query = mean_d - per_tuple * mean_t
            if per_tuple < 0.0:
                per_query, per_tuple = max(mean_d, 0.0), 0.0
            elif per_query < 0.0:
                per_query = 0.0
                per_tuple = sum_td / sum_tt if sum_tt else 0.0
        # Σ(d − a − b·t)² = Σ(d − d̄)² − 2b·Cov + b²·Var + n·(d̄ − a − b·t̄)²
        offset = mean_d - per_query - per_tuple * mean_t
        squares = (
            var_d
            - 2.0 * per_tuple * cov
            + per_tuple * per_tuple * var_t
            + count * offset * offset
        )
        return cls(
            per_query=per_query,
            per_tuple=per_tuple,
            observations=count,
            residual=(max(squares, 0.0) / count) ** 0.5,
        )


@dataclass
class TransferStats:
    """Mutable traffic counters for one LQP.

    Internally locked: ``record``/``count``/``add_tuples``/``reset`` are
    atomic, so many sessions' rows hitting the same LQP concurrently
    (the federation's shared worker pool, or a multiplexed RemoteLQP)
    never lose an update.  Plain field reads stay lock-free — each is a
    single atomic int read; use :meth:`snapshot` for a consistent
    multi-field view.
    """

    queries: int = 0
    retrieves: int = 0
    selects: int = 0
    range_retrieves: int = 0
    range_selects: int = 0
    tuples_shipped: int = 0

    def __post_init__(self) -> None:
        self._lock = threading.Lock()

    def record(self, kind: str, result: Relation) -> None:
        with self._lock:
            self._count(kind)
            self.tuples_shipped += result.cardinality

    def count(self, kind: str) -> None:
        """Count one query of ``kind`` with no tuples yet (a chunk stream
        counts its rows as they flow; see :meth:`add_tuples`)."""
        with self._lock:
            self._count(kind)

    def add_tuples(self, tuples: int) -> None:
        with self._lock:
            self.tuples_shipped += tuples

    def _count(self, kind: str) -> None:
        self.queries += 1
        if kind == "retrieve":
            self.retrieves += 1
        elif kind == "retrieve_range":
            self.range_retrieves += 1
        elif kind == "select_range":
            self.range_selects += 1
        else:
            self.selects += 1

    def snapshot(self) -> "TransferStats":
        """A consistent point-in-time copy of every counter."""
        with self._lock:
            return TransferStats(
                queries=self.queries,
                retrieves=self.retrieves,
                selects=self.selects,
                range_retrieves=self.range_retrieves,
                range_selects=self.range_selects,
                tuples_shipped=self.tuples_shipped,
            )

    def merged_with(self, other: "TransferStats") -> "TransferStats":
        mine, theirs = self.snapshot(), other.snapshot()
        return TransferStats(
            queries=mine.queries + theirs.queries,
            retrieves=mine.retrieves + theirs.retrieves,
            selects=mine.selects + theirs.selects,
            range_retrieves=mine.range_retrieves + theirs.range_retrieves,
            range_selects=mine.range_selects + theirs.range_selects,
            tuples_shipped=mine.tuples_shipped + theirs.tuples_shipped,
        )

    def reset(self) -> None:
        with self._lock:
            self.queries = self.retrieves = self.selects = 0
            self.range_retrieves = self.range_selects = self.tuples_shipped = 0


class _AccountedChunkStream:
    """Wraps a chunk stream so shipped tuples still hit the counters.

    The query is counted on first iteration (matching when traffic
    actually starts flowing), each chunk's rows as they arrive — so a
    stream abandoned early records only what was really shipped.
    """

    def __init__(self, inner, owner: "AccountingLQP", kind: str):
        self._inner = inner
        self._owner = owner
        self._kind = kind

    @property
    def attributes(self):
        return self._inner.attributes

    def __iter__(self):
        stats = self._owner.stats
        stats.count(self._kind)
        for chunk in self._inner:
            stats.add_tuples(chunk.count)
            yield chunk

    def __getattr__(self, name):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._inner, name)


class ForwardingLQP(LocalQueryProcessor):
    """An LQP that delegates everything to an inner LQP.

    The base of every decorator: identity, capabilities, concurrency and
    catalog calls pass straight through, so decoration never masks the
    wrapped engine; the four relation verbs forward their arguments
    unchanged (``columns=`` included, which the caller only sends to an
    engine reporting ``native_projection``) and hand the shipped relation
    to :meth:`_shipped` — the one hook a subclass overrides.
    """

    def __init__(self, inner: LocalQueryProcessor):
        self._inner = inner

    @property
    def name(self) -> str:
        return self._inner.name

    @property
    def inner(self) -> LocalQueryProcessor:
        return self._inner

    @property
    def native_concurrency(self) -> int:
        return self._inner.native_concurrency

    def capabilities(self) -> Capabilities:
        return self._inner.capabilities()

    def relation_names(self) -> Tuple[str, ...]:
        return self._inner.relation_names()

    def cardinality_estimate(self, relation_name: str) -> int | None:
        return self._inner.cardinality_estimate(relation_name)

    def relation_stats(self, relation_name: str) -> RelationStats | None:
        # Catalog metadata, like cardinality_estimate: never traffic.
        return self._inner.relation_stats(relation_name)

    def _shipped(self, kind: str, result: Relation) -> Relation:
        """Called with each verb's result (``kind`` is the verb name)."""
        return result

    def retrieve(self, *args, **kwargs) -> Relation:
        return self._shipped("retrieve", self._inner.retrieve(*args, **kwargs))

    def select(self, *args, **kwargs) -> Relation:
        return self._shipped("select", self._inner.select(*args, **kwargs))

    def retrieve_range(self, *args, **kwargs) -> Relation:
        return self._shipped("retrieve_range", self._inner.retrieve_range(*args, **kwargs))

    def select_range(self, *args, **kwargs) -> Relation:
        return self._shipped("select_range", self._inner.select_range(*args, **kwargs))


class AccountingLQP(ForwardingLQP):
    """Wraps an LQP, recording every request and its result size."""

    def __init__(self, inner: LocalQueryProcessor):
        super().__init__(inner)
        self.stats = TransferStats()

    def _shipped(self, kind: str, result: Relation) -> Relation:
        self.stats.record(kind, result)
        return result

    def __getattr__(self, name):
        # The chunk-stream verbs exist on this wrapper exactly when the
        # wrapped engine has them, so the executor's duck-typed streaming
        # probe (``getattr(lqp, "retrieve_chunks", None)``) sees through
        # the accounting layer; the stream itself is wrapped so streamed
        # tuples still land in the counters.
        if name in ("retrieve_chunks", "select_chunks"):
            inner_method = getattr(self._inner, name)
            kind = "retrieve" if name == "retrieve_chunks" else "select"

            def stream_verb(*args, **kwargs):
                return _AccountedChunkStream(
                    inner_method(*args, **kwargs), self, kind
                )

            stream_verb.__name__ = name
            return stream_verb
        raise AttributeError(
            f"{type(self).__name__} object has no attribute {name!r}"
        )


class LatencyLQP(ForwardingLQP):
    """Wraps an LQP, sleeping a configurable delay on every request.

    ``per_query`` seconds model round-trip/setup latency; ``per_tuple``
    seconds model marshalling + transfer of each shipped tuple — the
    wall-clock realization of :class:`CostModel`.  Catalog lookups stay
    free, as metadata would be, and whole verbs are delayed: there are no
    chunk-stream verbs.
    """

    def __init__(
        self, inner: LocalQueryProcessor, per_query: float = 0.01, per_tuple: float = 0.0
    ):
        super().__init__(inner)
        self.per_query = per_query
        self.per_tuple = per_tuple

    def cost_model(self) -> CostModel:
        """The injected delays as a :class:`CostModel` (units: seconds), so
        a simulated schedule can be compared against measured wall clock."""
        return CostModel(per_query=self.per_query, per_tuple=self.per_tuple)

    def _shipped(self, kind: str, result: Relation) -> Relation:
        pause = self.per_query + self.per_tuple * result.cardinality
        if pause > 0:
            time.sleep(pause)
        return result
