"""Trace-driven cost calibration: learning per-LQP cost models.

The paper's local databases are autonomous — the PQP can neither inspect
their optimizers nor read their catalogs, so *a priori* cost constants
(:class:`~repro.lqp.cost.CostModel`'s defaults) are guesses.  What the
federation *does* own is evidence: every executed plan returns an
:class:`~repro.pqp.executor.ExecutionTrace` with measured per-row timings
and materialized cardinalities.  A :class:`CostCalibrator` turns that
evidence into :class:`~repro.lqp.cost.CalibratedCostModel`\\ s, one per
local database, in the Mariposa/Garlic tradition of feedback-driven
per-source costing:

- each completed **local** row contributes one observation
  ``(tuples shipped, measured seconds)`` to its database's sliding window,
- each completed **PQP** row contributes ``(tuples consumed, seconds)`` to
  a through-origin fit of the PQP's per-tuple processing rate,
- models are re-fit lazily (least squares, see
  :meth:`~repro.lqp.cost.CalibratedCostModel.fit`) whenever new evidence
  arrived since the last read — from running sums each window keeps, so a
  refit costs O(databases), not O(window),
- after every observation the calibrator also *scores itself*: it predicts
  the observed plan's makespan with its current models and records the
  relative error against the measured wall clock — the number
  :meth:`~repro.service.federation.PolygenFederation.stats` reports so an
  operator can tell whether the learned models have converged.

Windows are bounded (``window`` observations per database) so a long-lived
federation adapts when a source's performance drifts instead of averaging
over its whole history.  All methods are thread-safe: coordinator threads
observe concurrently while other threads read models for planning.
"""

from __future__ import annotations

import json
import math
import os
import threading
from collections import deque
from typing import Deque, Dict, Iterable, Iterator, Optional, Tuple

from repro.lqp.cost import CalibratedCostModel
from repro.pqp.executor import ExecutionTrace
from repro.pqp.matrix import IntermediateOperationMatrix
from repro.pqp.schedule import schedule_plan

__all__ = ["CostCalibrator"]

#: Fallback PQP per-tuple rate (seconds) before any PQP row was observed.
_DEFAULT_PQP_RATE = 0.0

#: Self-scoring cadence: every plan while the models are young, then a
#: deterministic sample.  Scoring forces a refit plus a plan simulation, so
#: an always-on federation that never reads the models shouldn't pay it per
#: query; a 1-in-N sample keeps the reported error fresh at bounded cost.
_SCORE_WARMUP = 16
_SCORE_INTERVAL = 4


class _Window:
    """A bounded window of ``(tuples, seconds)`` observations plus the
    running sums a least-squares fit reads, so a refit costs O(1) instead
    of a pass over the window.

    Σt and Σt² are exact integers; Σd, Σt·d and Σd² are floats, updated on
    every append and eviction and re-summed exactly from the samples once
    per ``maxlen`` appends, so eviction rounding cannot accumulate (still
    O(1) amortized)."""

    __slots__ = (
        "samples", "sum_t", "sum_tt", "sum_d", "sum_td", "sum_dd", "_appends",
    )

    def __init__(self, maxlen: int):
        self.samples: Deque[Tuple[int, float]] = deque(maxlen=maxlen)
        self.sum_t = self.sum_tt = 0
        self.sum_d = self.sum_td = self.sum_dd = 0.0
        self._appends = 0

    def append(self, tuples: int, seconds: float) -> None:
        samples = self.samples
        if len(samples) == samples.maxlen:
            old_t, old_d = samples[0]
            self.sum_t -= old_t
            self.sum_tt -= old_t * old_t
            self.sum_d -= old_d
            self.sum_td -= old_t * old_d
            self.sum_dd -= old_d * old_d
        samples.append((tuples, seconds))
        self.sum_t += tuples
        self.sum_tt += tuples * tuples
        self.sum_d += seconds
        self.sum_td += tuples * seconds
        self.sum_dd += seconds * seconds
        self._appends += 1
        if self._appends == samples.maxlen:
            self._resum()

    def extend(self, observations: Iterable[Tuple[int, float]]) -> None:
        for tuples, seconds in observations:
            self.append(tuples, seconds)

    def _resum(self) -> None:
        samples = self.samples
        self.sum_d = math.fsum(d for _, d in samples)
        self.sum_td = math.fsum(t * d for t, d in samples)
        self.sum_dd = math.fsum(d * d for _, d in samples)
        self._appends = 0

    def fit(self) -> CalibratedCostModel:
        return CalibratedCostModel.from_sums(
            len(self.samples),
            self.sum_t,
            self.sum_tt,
            self.sum_d,
            self.sum_td,
            self.sum_dd,
        )

    def origin_rate(self) -> float:
        """The through-origin least-squares slope Σt·d / Σt²."""
        return self.sum_td / self.sum_tt if self.sum_tt else 0.0

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self) -> Iterator[Tuple[int, float]]:
        return iter(self.samples)


class CostCalibrator:
    """Accumulates execution evidence and fits per-LQP cost models."""

    def __init__(self, window: int = 512):
        if window < 2:
            raise ValueError(f"window must be >= 2 observations, got {window}")
        self._window = window
        self._lock = threading.Lock()
        #: database → (tuples shipped, seconds) window.
        self._local: Dict[str, _Window] = {}
        #: (tuples consumed, seconds) of PQP rows, one shared window.
        self._pqp = _Window(window)
        self._models: Dict[str, CalibratedCostModel] = {}
        self._pqp_rate: Optional[float] = None
        self._dirty = False
        #: |predicted − measured| / measured makespan, recent plans.
        self._errors: Deque[float] = deque(maxlen=window)
        self._observed_plans = 0

    # -- evidence intake ----------------------------------------------------

    def observe(self, iom: IntermediateOperationMatrix, trace: ExecutionTrace) -> None:
        """Fold one executed plan's measurements into the windows.

        Rows without a timing or a materialized result (a cancelled plan's
        stragglers) are skipped.  The plan is then re-simulated under the
        updated models and the makespan prediction error recorded — every
        plan during warm-up, a deterministic sample afterwards, so the
        intake path stays cheap for federations that never plan by cost.
        """
        timings, results = trace.timings, trace.results
        with self._lock:
            for row in iom:
                index = row.result.index
                timing = timings.get(index)
                relation = results.get(index)
                if timing is None or relation is None:
                    continue
                if row.is_local:
                    samples = self._local.get(row.el)
                    if samples is None:
                        samples = self._local[row.el] = _Window(self._window)
                    samples.append(relation.cardinality, timing.duration)
                else:
                    # Every PQP row — Merge included, now one hash pass —
                    # is observed at the sum of its inputs, the same
                    # x-variable the simulator charges, so the fitted rate
                    # and the predictions stay consistent.
                    inputs = sum(
                        results[ref.index].cardinality
                        for ref in row.referenced_results()
                        if ref.index in results
                    )
                    self._pqp.append(inputs, timing.duration)
            self._dirty = True
            self._observed_plans += 1
            plan_number = self._observed_plans
        if plan_number <= _SCORE_WARMUP or plan_number % _SCORE_INTERVAL == 0:
            self._score_prediction(iom, trace)

    def _score_prediction(
        self, iom: IntermediateOperationMatrix, trace: ExecutionTrace
    ) -> None:
        """Predict the observed plan's makespan with the current models and
        log the relative error against the measured wall clock."""
        measured = trace.wall_clock
        if measured <= 0.0:
            return
        local_costs = self.local_costs()
        if not local_costs:
            return
        predicted = schedule_plan(
            iom,
            trace,
            local_costs=local_costs,
            default_cost=CalibratedCostModel(per_query=0.0, per_tuple=0.0),
            pqp_cost_per_tuple=self.pqp_cost_per_tuple() or _DEFAULT_PQP_RATE,
        ).makespan
        with self._lock:
            self._errors.append(abs(predicted - measured) / measured)

    # -- fitted models ------------------------------------------------------

    def _refit(self) -> None:
        """Re-fit every stale model from its window's running sums — O(1)
        per database (caller holds the lock)."""
        if not self._dirty:
            return
        self._models = {
            name: samples.fit() for name, samples in self._local.items() if samples
        }
        if self._pqp:
            self._pqp_rate = self._pqp.origin_rate()
        self._dirty = False

    def local_costs(self) -> Dict[str, CalibratedCostModel]:
        """database → fitted model, for every database observed so far."""
        with self._lock:
            self._refit()
            return dict(self._models)

    def model_for(self, database: str) -> Optional[CalibratedCostModel]:
        with self._lock:
            self._refit()
            return self._models.get(database)

    def pqp_cost_per_tuple(self) -> Optional[float]:
        """Fitted PQP per-tuple processing rate (seconds), or ``None``
        before any PQP row was observed."""
        with self._lock:
            self._refit()
            return self._pqp_rate

    # -- persistence --------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serializable snapshot of every observation window.

        Models are *not* serialized — they are derived state, re-fit from
        the windows on the first read after :meth:`from_dict`."""
        with self._lock:
            return {
                "window": self._window,
                "local": {
                    name: [[int(t), float(d)] for t, d in samples]
                    for name, samples in self._local.items()
                },
                "pqp": [[int(t), float(d)] for t, d in self._pqp],
                "observed_plans": self._observed_plans,
            }

    def from_dict(self, snapshot: dict) -> None:
        """Fold a :meth:`to_dict` snapshot's evidence into this calibrator.

        Appends after any evidence already held (each window's ``maxlen``
        keeps windows bounded), so a federation can both restore a saved
        state at startup and merge a peer's observations.  The calibrator's
        own ``window`` size wins over the snapshot's."""
        local = {
            str(name): [(int(t), float(d)) for t, d in samples]
            for name, samples in dict(snapshot.get("local", {})).items()
        }
        pqp = [(int(t), float(d)) for t, d in snapshot.get("pqp", ())]
        plans = int(snapshot.get("observed_plans", 0))
        with self._lock:
            for name, samples in local.items():
                window = self._local.get(name)
                if window is None:
                    window = self._local[name] = _Window(self._window)
                window.extend(samples)
            self._pqp.extend(pqp)
            self._observed_plans += plans
            self._dirty = True

    def save(self, path: str) -> None:
        """Write the observation windows to ``path`` as JSON (atomically:
        a temp file in the same directory, then ``os.replace``)."""
        payload = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        temporary = f"{path}.tmp.{os.getpid()}"
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(payload)
        os.replace(temporary, path)

    def load(self, path: str) -> bool:
        """Restore evidence saved by :meth:`save`; ``False`` (and no state
        change) when ``path`` does not exist."""
        if not os.path.exists(path):
            return False
        with open(path, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        self.from_dict(snapshot)
        return True

    # -- self-assessment ----------------------------------------------------

    def prediction_error(self) -> Optional[float]:
        """Mean relative makespan error of recent predictions (lower is
        better; ``None`` before the first scored plan)."""
        with self._lock:
            if not self._errors:
                return None
            return sum(self._errors) / len(self._errors)

    def sample_counts(self) -> Dict[str, int]:
        """database → observations currently in its window."""
        with self._lock:
            return {name: len(samples) for name, samples in self._local.items()}

    @property
    def observed_plans(self) -> int:
        return self._observed_plans

    def render(self) -> str:
        models = self.local_costs()
        lines = [
            f"calibration: {self.observed_plans} plans observed, "
            f"prediction error "
            + (
                f"{self.prediction_error():.1%}"
                if self.prediction_error() is not None
                else "n/a"
            )
        ]
        for name in sorted(models):
            model = models[name]
            lines.append(
                f"  {name:>4s}: per_query {model.per_query * 1e3:.2f}ms, "
                f"per_tuple {model.per_tuple * 1e6:.2f}us "
                f"({model.observations} obs, rms {model.residual * 1e3:.2f}ms)"
            )
        rate = self.pqp_cost_per_tuple()
        if rate is not None:
            lines.append(f"  PQP : per_tuple {rate * 1e6:.2f}us")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"CostCalibrator({len(self.sample_counts())} databases, "
            f"{self.observed_plans} plans observed)"
        )
