"""Unit tests for trace-driven cost calibration and the cost-based mode."""

import pytest

from repro.datasets.paper import (
    build_paper_federation,
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
from repro.pqp.optimizer import ShapeChoice
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

    def test_prediction_error_is_tracked(self):
        calibrator = CostCalibrator()
        self._observe(calibrator, runs=2, jitter=40)
        error = calibrator.prediction_error()
        assert error is not None
        # Timings obey the models exactly, so the serialized prediction of
        # this serial synthetic trace is close (fold-model approximation
        # aside).
        assert error < 0.5
        assert calibrator.observed_plans == 2
        assert "plans observed" in calibrator.render()

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
        windows = calibrator.to_dict()["local"]
        for name, model in calibrator.local_costs().items():
            oracle = CalibratedCostModel.fit([tuple(s) for s in windows[name]])
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


class TestPersistence:
    CARDS = TestCostCalibrator.CARDS
    MODELS = TestCostCalibrator.MODELS
    PQP_RATE = TestCostCalibrator.PQP_RATE

    def _seeded(self, runs=3):
        calibrator = CostCalibrator()
        for run in range(runs):
            cards = {db: c + 40 * run for db, c in self.CARDS.items()}
            iom = _merge_plan(cards)
            calibrator.observe(
                iom, _trace_for(iom, cards, self.MODELS.__getitem__, self.PQP_RATE)
            )
        return calibrator

    def test_save_load_roundtrip_refits_models(self, tmp_path):
        saved = self._seeded()
        path = str(tmp_path / "calibration.json")
        saved.save(path)
        restored = CostCalibrator()
        assert restored.load(path) is True
        assert restored.sample_counts() == saved.sample_counts()
        assert restored.observed_plans == saved.observed_plans
        for name, model in saved.local_costs().items():
            fresh = restored.model_for(name)
            assert fresh.per_query == pytest.approx(model.per_query)
            assert fresh.per_tuple == pytest.approx(model.per_tuple)
        assert restored.pqp_cost_per_tuple() == pytest.approx(self.PQP_RATE)

    def test_load_missing_path_is_a_noop(self, tmp_path):
        calibrator = CostCalibrator()
        assert calibrator.load(str(tmp_path / "absent.json")) is False
        assert calibrator.sample_counts() == {}
        assert calibrator.observed_plans == 0

    def test_from_dict_merges_and_window_bounds(self, tmp_path):
        # Restoring into a narrower window keeps only the newest evidence;
        # restoring on top of live evidence appends, it does not replace.
        snapshot = self._seeded(runs=5).to_dict()
        narrow = CostCalibrator(window=4)
        narrow.from_dict(snapshot)
        assert all(n <= 4 for n in narrow.sample_counts().values())
        merged = self._seeded(runs=1)
        before = merged.sample_counts()
        merged.from_dict(snapshot)
        assert all(
            merged.sample_counts()[name] >= count for name, count in before.items()
        )

    def test_federation_persists_across_restart(self, tmp_path):
        from repro.service.federation import PolygenFederation

        path = str(tmp_path / "calibration.json")

        def run_once():
            registry = LQPRegistry()
            for database in paper_databases().values():
                registry.register(RelationalLQP(database))
            federation = PolygenFederation(
                paper_polygen_schema(),
                registry,
                resolver=paper_identity_resolver(),
                calibration_path=path,
            )
            with federation, federation.session() as session:
                session.execute(PAPER_SQL)
                return federation.calibrator.observed_plans

        first = run_once()
        assert first >= 1
        # The next "process" starts with the saved evidence preloaded.
        second = run_once()
        assert second >= first + 1


class TestCostBasedFacade:
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

    def test_cost_mode_matches_baseline_and_reports_choice(self):
        baseline = build_paper_federation().run_sql(PAPER_SQL)
        pqp = self._processor(optimize="cost")
        first = pqp.run_sql(PAPER_SQL)
        assert first.relation == baseline.relation
        assert isinstance(first.optimization, ShapeChoice)
        assert first.optimization.chosen in dict(first.optimization.considered)
        assert first.optimization.report.original_rows >= len(first.iom) - 2
        # Second run plans under calibrated models; result is unchanged.
        second = pqp.run_sql(PAPER_SQL)
        assert second.relation == baseline.relation
        stats = pqp.federation.stats()
        assert stats.plans_calibrated == 2
        assert set(stats.calibrated_models) == {"AD", "PD", "CD"}
        assert stats.cost_model_error is not None

    def test_choice_renders(self):
        pqp = self._processor(optimize="cost")
        run = pqp.run_sql(PAPER_SQL)
        text = run.optimization.render()
        assert "cost-based choice" in text
        assert run.optimization.chosen in text

    def test_options_validate_cost_mode(self):
        assert QueryOptions(optimize="cost").optimize == "cost"
        with pytest.raises(ValueError):
            QueryOptions(optimize="fastest")

    def test_truthy_optimize_still_enables_rewrites(self):
        # The historical facade accepted any truthy optimize; 1 == True
        # passes QueryOptions validation and must keep optimizing.
        pqp = self._processor(optimize=1)
        run = pqp.run_sql(PAPER_SQL)
        assert run.optimization is not None
        assert not isinstance(run.optimization, ShapeChoice)

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
