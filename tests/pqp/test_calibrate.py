"""Unit tests for trace-driven cost calibration."""

import pytest

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.cost import CalibratedCostModel, CostModel, LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.calibrate import CostCalibrator
from repro.pqp.executor import ExecutionTrace, RowTiming
from repro.pqp.matrix import (
    IntermediateOperationMatrix,
    LocalOperand,
    MatrixRow,
    Operation,
    ResultOperand,
)
from repro.pqp.optimizer import OptimizationReport
from repro.pqp.processor import PolygenQueryProcessor
from repro.service.options import QueryOptions

from tests.integration.conftest import PAPER_SQL


class _Sized:
    """The calibrator only reads ``cardinality`` off a trace's results."""

    def __init__(self, cardinality):
        self.cardinality = cardinality


def _merge_plan(cards_by_db):
    """N retrieves (one per database) + a Merge + a no-op Project."""
    rows = []
    for position, database in enumerate(cards_by_db, start=1):
        rows.append(
            MatrixRow(
                ResultOperand(position),
                Operation.RETRIEVE,
                LocalOperand("ORG"),
                el=database,
                scheme="GORGANIZATION",
            )
        )
    inputs = tuple(ResultOperand(i) for i in range(1, len(cards_by_db) + 1))
    rows.append(
        MatrixRow(
            ResultOperand(len(rows) + 1),
            Operation.MERGE,
            inputs,
            el="PQP",
            scheme="GORGANIZATION",
        )
    )
    return IntermediateOperationMatrix(rows)


def _trace_for(iom, cards_by_db, model_for, pqp_rate):
    """A synthetic trace whose timings obey the given cost models exactly
    (Merges pay the sum of their inputs, one hash-partitioned pass)."""
    results, timings = {}, {}
    clock = 0.0
    for row in iom:
        index = row.result.index
        if row.is_local:
            tuples = cards_by_db[row.el]
            duration = model_for(row.el).cost(1, tuples)
        else:
            work = sum(
                results[ref.index].cardinality for ref in row.referenced_results()
            )
            tuples = sum(cards_by_db.values())
            duration = pqp_rate * work
        results[index] = _Sized(tuples)
        timings[index] = RowTiming(start=clock, finish=clock + duration, location=row.el or "PQP")
        clock += duration
    final = iom.rows[-1].result.index
    return ExecutionTrace(results[final], results, {}, timings)


class TestCalibratedCostModelFit:
    def test_exact_linear_recovery(self):
        model = CalibratedCostModel.fit(
            [(t, 0.02 + 0.003 * t) for t in (1, 5, 20, 100)]
        )
        assert model.per_query == pytest.approx(0.02)
        assert model.per_tuple == pytest.approx(0.003)
        assert model.observations == 4
        assert model.residual == pytest.approx(0.0, abs=1e-12)

    def test_is_a_cost_model(self):
        model = CalibratedCostModel.fit([(10, 0.1), (20, 0.2)])
        assert isinstance(model, CostModel)
        assert model.cost(2, 10) == pytest.approx(2 * model.per_query + 10 * model.per_tuple)

    def test_single_tuple_count_collapses_to_per_query(self):
        model = CalibratedCostModel.fit([(7, 0.05), (7, 0.07)])
        assert model.per_tuple == 0.0
        assert model.per_query == pytest.approx(0.06)

    def test_negative_slope_is_clamped(self):
        # Slower for fewer tuples: noise, not physics.
        model = CalibratedCostModel.fit([(10, 0.2), (100, 0.1)])
        assert model.per_tuple == 0.0
        assert model.per_query == pytest.approx(0.15)

    def test_negative_intercept_refits_through_origin(self):
        # Purely per-tuple latency with a noisy dip below zero at t=0.
        model = CalibratedCostModel.fit([(10, 0.0005), (1000, 0.9)])
        assert model.per_query == 0.0
        assert model.per_tuple > 0.0

    def test_zero_observations_rejected(self):
        with pytest.raises(ValueError):
            CalibratedCostModel.fit([])


class TestCostCalibrator:
    CARDS = {"A": 50, "B": 500, "C": 20}
    MODELS = {
        "A": CostModel(per_query=0.1, per_tuple=0.001),
        "B": CostModel(per_query=0.005, per_tuple=0.0001),
        "C": CostModel(per_query=0.25, per_tuple=0.0),
    }
    PQP_RATE = 0.0004

    def _observe(self, calibrator, runs=3, jitter=0):
        for run in range(runs):
            cards = {db: c + jitter * run for db, c in self.CARDS.items()}
            iom = _merge_plan(cards)
            calibrator.observe(
                iom, _trace_for(iom, cards, self.MODELS.__getitem__, self.PQP_RATE)
            )

    def test_models_recover_known_costs(self):
        calibrator = CostCalibrator()
        # Vary cardinalities across runs so per-query/per-tuple separate.
        self._observe(calibrator, runs=3, jitter=40)
        models = calibrator.local_costs()
        assert set(models) == {"A", "B", "C"}
        for name, expected in self.MODELS.items():
            assert models[name].per_query == pytest.approx(
                expected.per_query, rel=1e-6, abs=1e-9
            )
            assert models[name].per_tuple == pytest.approx(
                expected.per_tuple, rel=1e-6, abs=1e-9
            )
        assert calibrator.pqp_cost_per_tuple() == pytest.approx(self.PQP_RATE)
        assert calibrator.model_for("A") == models["A"]
        assert calibrator.model_for("unknown") is None
        assert calibrator.observed_plans == 3
        assert "3 plans observed" in calibrator.render()

    def test_concurrent_observers_lose_no_update(self):
        """Eight threads observe at once under a tiny switch interval; the
        running sums must still fit exactly like the window they hold."""
        import sys
        import threading

        calibrator = CostCalibrator(window=64)
        threads_n, plans_each = 8, 40

        def observer(worker):
            for run in range(plans_each):
                cards = {db: 10 + worker * 7 + run for db in self.CARDS}
                iom = _merge_plan(cards)
                calibrator.observe(
                    iom, _trace_for(iom, cards, self.MODELS.__getitem__, self.PQP_RATE)
                )

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=observer, args=(n,)) for n in range(threads_n)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert calibrator.observed_plans == threads_n * plans_each
        for name, model in calibrator.local_costs().items():
            oracle = CalibratedCostModel.fit(list(calibrator._local[name].samples))
            assert model.observations == oracle.observations == 64
            assert model.per_query == pytest.approx(
                oracle.per_query, rel=1e-6, abs=1e-9
            )
            assert model.per_tuple == pytest.approx(
                oracle.per_tuple, rel=1e-6, abs=1e-12
            )

    def test_window_bounds_samples(self):
        calibrator = CostCalibrator(window=4)
        self._observe(calibrator, runs=9)
        assert all(count <= 4 for count in calibrator.sample_counts().values())

    def test_window_validation(self):
        with pytest.raises(ValueError):
            CostCalibrator(window=1)


class TestFacade:
    def _processor(self, **kwargs):
        registry = LQPRegistry()
        for database in paper_databases().values():
            registry.register(RelationalLQP(database))
        return PolygenQueryProcessor(
            schema=paper_polygen_schema(),
            registry=registry,
            resolver=paper_identity_resolver(),
            **kwargs,
        )

    def test_options_validate_cost_mode(self):
        # optimize is the rewrite pipeline on or off; there is no other mode.
        for mode in ("cost", "fastest"):
            with pytest.raises(ValueError, match="optimize"):
                QueryOptions(optimize=mode)

    def test_processor_rejects_cost_mode(self):
        with pytest.raises(ValueError, match="optimize"):
            self._processor(optimize="cost")

    def test_session_and_submit_reject_cost_mode(self):
        pqp = self._processor()
        try:
            with pytest.raises(ValueError, match="optimize"):
                pqp.federation.session(optimize="cost")
            with pqp.federation.session() as session:
                with pytest.raises(ValueError, match="optimize"):
                    session.submit(PAPER_SQL, optimize="cost")
        finally:
            pqp.close()

    def test_truthy_optimize_still_enables_rewrites(self):
        # The historical facade accepted any truthy optimize; 1 == True
        # passes QueryOptions validation and must keep optimizing.
        pqp = self._processor(optimize=1)
        run = pqp.run_sql(PAPER_SQL)
        assert isinstance(run.optimization, OptimizationReport)

    def test_unoptimized_run_reports_no_optimization(self):
        optimized = self._processor().run_sql(PAPER_SQL)
        plain = self._processor(optimize=False).run_sql(PAPER_SQL)
        assert plain.optimization is None
        assert plain.relation == optimized.relation
        assert plain.lineage == optimized.lineage

    def test_observing_a_run_never_simulates_its_schedule(self, monkeypatch):
        # Calibration fits measured rows; it does not replay the plan
        # through the scheduler to score itself.
        import repro.pqp.calibrate as calibrate
        import repro.pqp.schedule as schedule

        calls = []
        real = schedule.schedule_plan

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(schedule, "schedule_plan", counting)
        monkeypatch.setattr(calibrate, "schedule_plan", counting, raising=False)
        pqp = self._processor()
        for _ in range(5):
            pqp.run_sql(PAPER_SQL)
        assert calls == []
        assert pqp.calibrator.observed_plans == 5
        assert set(pqp.calibrator.local_costs()) == {"AD", "PD", "CD"}

    def test_latency_lqp_parameters_recovered_from_real_traces(self):
        """The integration version of the recovery property: real sleeps,
        injected by LatencyLQP, measured by the executor, fitted by the
        federation's calibrator."""
        registry = LQPRegistry()
        injected = {"AD": 0.04, "PD": 0.012, "CD": 0.002}
        for name, database in paper_databases().items():
            registry.register(
                LatencyLQP(RelationalLQP(database), per_query=injected[name])
            )
        pqp = PolygenQueryProcessor(
            schema=paper_polygen_schema(),
            registry=registry,
            resolver=paper_identity_resolver(),
            concurrent=True,
        )
        for _ in range(2):
            pqp.run_sql(PAPER_SQL)
        models = pqp.calibrator.local_costs()
        # Measured durations add materialization on top of the sleep, so
        # recovery is approximate — but the per-database ordering and the
        # slow source's magnitude must hold.
        assert models["AD"].per_query == pytest.approx(injected["AD"], rel=0.6)
        assert models["AD"].per_query > models["PD"].per_query > models["CD"].per_query
