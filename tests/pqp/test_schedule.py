"""Unit tests for the plan scheduling simulator."""

import pytest

from repro.datasets.paper import (
    build_paper_federation,
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.cost import CostModel, LatencyLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.processor import PolygenQueryProcessor
from repro.pqp.schedule import schedule_plan, validate_against_trace

from tests.integration.conftest import PAPER_SQL


@pytest.fixture(scope="module")
def paper_run():
    pqp = build_paper_federation()
    return pqp.run_sql(PAPER_SQL)


class TestScheduling:
    def test_dependencies_respected(self, paper_run):
        schedule = schedule_plan(paper_run.iom, paper_run.trace)
        finish = {item.row.result.index: item.finish for item in schedule.rows}
        for item in schedule.rows:
            for ref in item.row.referenced_results():
                assert item.start >= finish[ref.index]

    def test_same_lqp_rows_serialize(self, paper_run):
        schedule = schedule_plan(paper_run.iom, paper_run.trace)
        ad_rows = sorted(
            (item for item in schedule.rows if item.location == "AD"),
            key=lambda item: item.start,
        )
        for earlier, later in zip(ad_rows, ad_rows[1:]):
            assert later.start >= earlier.finish

    def test_parallelism_beats_serial(self, paper_run):
        # The three merge retrieves hit different databases, so the
        # makespan is strictly below the serial cost.
        schedule = schedule_plan(paper_run.iom, paper_run.trace)
        assert schedule.makespan < schedule.serial_cost
        assert schedule.speedup > 1.0

    def test_critical_path_is_connected_and_ends_last(self, paper_run):
        schedule = schedule_plan(paper_run.iom, paper_run.trace)
        path = schedule.critical_path
        assert path[-1].finish == schedule.makespan
        for earlier, later in zip(path, path[1:]):
            refs = {ref.index for ref in later.row.referenced_results()}
            assert earlier.row.result.index in refs

    def test_trace_tuple_counts_drive_costs(self, paper_run):
        cheap = schedule_plan(
            paper_run.iom,
            paper_run.trace,
            default_cost=CostModel(per_query=1.0, per_tuple=0.0),
        )
        shipping_heavy = schedule_plan(
            paper_run.iom,
            paper_run.trace,
            default_cost=CostModel(per_query=1.0, per_tuple=10.0),
        )
        assert shipping_heavy.serial_cost > cheap.serial_cost

    def test_per_database_cost_models(self, paper_run):
        slow_cd = schedule_plan(
            paper_run.iom,
            paper_run.trace,
            local_costs={"CD": CostModel(per_query=100.0, per_tuple=0.0)},
        )
        uniform = schedule_plan(paper_run.iom, paper_run.trace)
        assert slow_cd.makespan > uniform.makespan
        # A slow commercial source ends up on the critical path.
        assert any(item.location == "CD" for item in slow_cd.critical_path)

    def test_schedule_without_trace_uses_defaults(self, paper_run):
        schedule = schedule_plan(paper_run.iom)
        assert schedule.serial_cost > 0
        assert len(schedule.rows) == len(paper_run.iom)

    def test_registry_cardinalities_replace_the_guess(self, paper_run):
        """Without a trace, catalog cardinalities (not a hardcoded 10)
        drive local row costs."""
        pqp = build_paper_federation()
        by_index = lambda schedule: {
            item.row.result.index: item.cost for item in schedule.rows
        }
        guessed = by_index(schedule_plan(paper_run.iom))
        informed = by_index(
            schedule_plan(paper_run.iom, registry=pqp.registry)
        )
        model = CostModel(per_query=1.0, per_tuple=0.01)
        # R(2) retrieves CAREER (9 tuples): informed cost is exact.
        assert informed[2] == pytest.approx(model.cost(queries=1, tuples=9))
        assert guessed[2] == pytest.approx(model.cost(queries=1, tuples=10))
        # R(4/5/6) retrieve BUSINESS (9), CORPORATION (7), FIRM (10).
        assert informed[4] == pytest.approx(model.cost(queries=1, tuples=9))
        assert informed[5] == pytest.approx(model.cost(queries=1, tuples=7))
        assert informed[6] == pytest.approx(model.cost(queries=1, tuples=10))

    def test_registry_estimates_propagate_to_pqp_rows(self, paper_run):
        pqp = build_paper_federation()
        schedule = schedule_plan(paper_run.iom, registry=pqp.registry)
        merge = next(item for item in schedule.rows if item.row.op.value == "Merge")
        # The Merge hash-partitions the three retrieves (9, 7, 10 tuples)
        # in one pass over their sum.
        assert merge.cost == pytest.approx(0.002 * 26)

    def test_width_aware_simulation_of_sharded_plans(self):
        from tests.pqp.test_shard import make_registry, retrieve_plan
        from repro.pqp.shard import shard_retrieves

        registry = make_registry(rows=200)
        plan = retrieve_plan()
        sharded, report = shard_retrieves(plan, registry, width=4, min_tuples=1)
        assert report.retrieves_sharded == 1
        base = schedule_plan(plan, registry=registry)
        wide = schedule_plan(sharded, registry=registry)
        # Four quarter-scans overlap on AD's widened worker group: the
        # sharded makespan beats one whole scan despite the extra queries.
        assert wide.makespan < base.makespan
        model = CostModel(per_query=1.0, per_tuple=0.01)
        assert base.makespan >= model.cost(queries=1, tuples=200)
        shard_items = sorted(
            (item for item in wide.rows if item.row.shard),
            key=lambda item: item.start,
        )
        assert len(shard_items) == 4
        # All four shards launch together — no per-connection serialization.
        assert all(item.start == shard_items[0].start for item in shard_items)

    def test_native_concurrency_widens_a_database(self):
        from tests.pqp.test_shard import make_registry, retrieve_plan
        from repro.pqp.matrix import IntermediateOperationMatrix, MatrixRow, ResultOperand
        from dataclasses import replace as dc_replace

        registry = make_registry(rows=100)
        single = retrieve_plan()
        four = IntermediateOperationMatrix(
            [
                dc_replace(single.rows[0], result=ResultOperand(i))
                for i in range(1, 5)
            ]
        )
        serial = schedule_plan(four, registry=registry)
        registry.get("AD").inner.native_concurrency = 4
        parallel = schedule_plan(four, registry=registry)
        # Width 1 serializes the paper way; a multiplexed source overlaps.
        assert serial.makespan == pytest.approx(4 * parallel.makespan)

    def test_validation_against_measured_trace(self, paper_run):
        schedule = schedule_plan(paper_run.iom, paper_run.trace)
        validation = validate_against_trace(schedule, paper_run.trace)
        assert validation.simulated_speedup == pytest.approx(schedule.speedup)
        assert validation.measured_makespan == pytest.approx(
            paper_run.trace.wall_clock
        )
        assert validation.measured_busy <= validation.measured_makespan + 1e-9
        assert "simulated:" in validation.render()
        assert "measured:" in validation.render()

    def test_render(self, paper_run):
        schedule = schedule_plan(paper_run.iom, paper_run.trace)
        text = schedule.render()
        assert "critical path:" in text
        assert "speedup" in text
        assert "R(10)" in text


def test_injected_latency_lower_bounds_the_measured_rows():
    """A LatencyLQP's delays are real: every row it serves measures at
    least what its :meth:`~LatencyLQP.cost_model` charges for the tuples
    shipped — the measured record the result cache weighs entries by."""
    databases = paper_databases()
    slow = LatencyLQP(RelationalLQP(databases.pop("AD")), per_query=0.01, per_tuple=0.001)
    registry = LQPRegistry()
    registry.register(slow)
    for database in databases.values():
        registry.register(RelationalLQP(database))
    assert slow.cost_model() == CostModel(per_query=0.01, per_tuple=0.001)
    run = PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=registry,
        resolver=paper_identity_resolver(),
    ).run_sql(PAPER_SQL)
    served = [row for row in run.iom if row.el == "AD"]
    assert served
    for row in served:
        index = row.result.index
        charged = slow.cost_model().cost(1, run.trace.results[index].cardinality)
        assert run.trace.timings[index].duration >= charged
