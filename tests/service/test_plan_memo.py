"""The federation's plan memo: each query text is planned once per epoch.

What may invalidate a prepared plan is exactly what a plan is built from —
a registration, a new polygen scheme, a new synonym group — and nothing
else: a data change evicts cached *results*, never plans.  A hit must be
indistinguishable from a cold plan in data, origin tags and intermediate
tags.
"""

import dataclasses
import sys
import threading

import pytest

from repro.algebra_lang.parser import parse_expression
from repro.catalog.mapping import AttributeMapping
from repro.catalog.scheme import PolygenScheme
from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.errors import TranslationError
from repro.integration.identity import IdentityResolver
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.relational.database import LocalDatabase
from repro.service.federation import PolygenFederation
from repro.service.plan_memo import PlanMemo, PreparedPlan

from tests.integration.conftest import PAPER_SQL

PAPER_ALGEBRA = (
    '((((PALUMNUS [DEGREE = "MBA"]) [AID# = AID#] PCAREER)'
    " [ONAME = ONAME] PORGANIZATION) [CEO = ANAME]) [ONAME, CEO]"
)
CITICORP_SQL = (
    'SELECT ONAME, INDUSTRY, CEO FROM PORGANIZATION WHERE ONAME = "Citicorp"'
)
QUERIES = (PAPER_SQL, PAPER_ALGEBRA, CITICORP_SQL)
FRONT_END_STAGES = {"translate", "analyze", "plan", "optimize"}


def _federation(resolver=None, **kwargs) -> PolygenFederation:
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    return PolygenFederation(
        paper_polygen_schema(),
        registry,
        resolver=resolver if resolver is not None else paper_identity_resolver(),
        **kwargs,
    )


def _lookups(federation, outcome: str) -> int:
    counter = federation.metrics.counter("polygen_plan_memo_total")
    return int(counter.value(outcome=outcome))


def _root(result):
    [root] = [span for span in result.trace.spans if span.parent_id is None]
    return root


def _stages(result):
    root = _root(result)
    return {span.name for span in result.trace.spans if span.parent_id == root.span_id}


def _memoized(result) -> bool:
    return _root(result).attributes.get("plan") == "memo"


class TestHitsAndMisses:
    def test_repeated_text_is_planned_once(self):
        with _federation() as federation:
            cold = federation.run(PAPER_SQL)
            warm = federation.run(PAPER_SQL)
            assert not _memoized(cold) and FRONT_END_STAGES <= _stages(cold)
            assert _memoized(warm) and not FRONT_END_STAGES & _stages(warm)
            assert warm.iom is cold.iom
            assert warm.relation == cold.relation
            assert (_lookups(federation, "miss"), _lookups(federation, "hit")) == (1, 1)
            text = federation.metrics_text()
            assert 'polygen_plan_memo_total{outcome="hit"} 1' in text

    def test_plan_shaping_options_key_the_memo(self):
        with _federation() as federation:
            federation.run(PAPER_SQL)
            unoptimized = federation.run(
                PAPER_SQL, federation.defaults.replace(optimize=False)
            )
            assert not _memoized(unoptimized)
            # The engine shapes execution, not the plan: still a hit.
            serial = federation.run(
                PAPER_SQL, federation.defaults.replace(engine="serial")
            )
            assert _memoized(serial)

    def test_cost_mode_is_never_memoized(self):
        with _federation() as federation:
            options = federation.defaults.replace(optimize="cost")
            for _ in range(3):
                result = federation.run(PAPER_SQL, options)
                assert not _memoized(result)
                assert "optimize" in _stages(result)
            assert _lookups(federation, "hit") == _lookups(federation, "miss") == 0

    def test_expression_trees_are_not_memoized(self):
        with _federation() as federation:
            tree = parse_expression(PAPER_ALGEBRA)
            first, second = federation.run(tree), federation.run(tree)
            assert not _memoized(first) and not _memoized(second)
            assert first.relation == second.relation
            assert _lookups(federation, "hit") == _lookups(federation, "miss") == 0

    def test_errors_are_not_memoized(self):
        with _federation() as federation:
            for _ in range(2):
                with pytest.raises(TranslationError):
                    federation.run("SELECT NOPE FROM NOWHERE")
            assert _lookups(federation, "miss") == 2


class TestEpoch:
    def test_registration_forces_a_replan(self):
        with _federation() as federation:
            federation.run(PAPER_SQL)
            assert _memoized(federation.run(PAPER_SQL))
            federation.registry.register(RelationalLQP(LocalDatabase("XD")))
            assert not _memoized(federation.run(PAPER_SQL))
            assert _memoized(federation.run(PAPER_SQL))

    def test_schema_add_forces_a_replan(self):
        with _federation() as federation:
            federation.run(PAPER_SQL)
            federation.schema.add(
                PolygenScheme(
                    "PEXTRA", {"X": [AttributeMapping("AD", "BUSINESS", "BNAME")]}
                )
            )
            assert not _memoized(federation.run(PAPER_SQL))

    def test_add_group_forces_a_replan_with_the_right_answer(self):
        # Planned under an identity resolver the Citicorp selection is
        # pushed into every source as a raw comparison; once CitiCorp is
        # a synonym that plan would miss AD's and CD's rows.
        with _federation(resolver=IdentityResolver.identity()) as federation:
            before = federation.run(CITICORP_SQL)
            federation.resolver.add_group("Citicorp", ["CitiCorp"])
            after = federation.run(CITICORP_SQL)
            assert not _memoized(after)
        with _federation() as cold_federation:
            cold = cold_federation.run(CITICORP_SQL)
        assert after.relation == cold.relation
        assert after.relation != before.relation
        assert [row.data[2] for row in after.relation.tuples] == ["John Reed"]

    def test_refresh_keeps_plans_but_evicts_results(self):
        with _federation() as federation:
            session = federation.session(cache="on")
            first = session.execute(PAPER_SQL)
            second = session.execute(PAPER_SQL)
            assert second.cache_hit and _memoized(second)
            assert federation.invalidate("CD") > 0
            federation.registry.notify_refresh("AD")
            third = session.execute(PAPER_SQL)
            assert _memoized(third)
            assert not third.cache_hit
            assert third.relation == first.relation
            assert _lookups(federation, "miss") == 1


class TestSharedPlansAreValues:
    def test_mutating_a_returned_iom_raises(self):
        with _federation() as federation:
            result = federation.run(PAPER_SQL)
            iom = result.iom
            with pytest.raises(AttributeError):
                iom.append(iom.rows[0])
            with pytest.raises(AttributeError):
                iom._rows = ()
            with pytest.raises(TypeError):
                iom.rows[0] = iom.rows[-1]
            with pytest.raises(dataclasses.FrozenInstanceError):
                iom.rows[0].el = "PQP"
            again = federation.run(PAPER_SQL)
            assert _memoized(again) and again.iom is iom
            assert again.relation == result.relation

    @pytest.mark.parametrize("engine", ["serial", "concurrent"])
    @pytest.mark.parametrize("cache", ["off", "on"])
    def test_hits_match_a_cold_federation_across_threads(self, engine, cache):
        with _federation() as cold_federation:
            cold = {
                query: cold_federation.run(
                    query, cold_federation.defaults.replace(engine=engine)
                )
                for query in QUERIES
            }
        answers = []
        failures = []
        with _federation() as federation:
            start = threading.Barrier(2)

            def client(name):
                try:
                    session = federation.session(name, engine=engine, cache=cache)
                    start.wait()
                    for _ in range(4):
                        for query in QUERIES:
                            answers.append((query, session.execute(query)))
                except BaseException as exc:  # surfaced below
                    failures.append(exc)

            threads = [
                threading.Thread(target=client, args=(f"client-{n}",))
                for n in range(2)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not failures, failures
            assert _lookups(federation, "hit") > 0
        assert len(answers) == 2 * 4 * len(QUERIES)
        for query, result in answers:
            # Relation equality compares data *and* every cell's origin
            # and intermediate tag sets.
            assert result.relation == cold[query].relation, query
            assert result.lineage == cold[query].lineage, query


class TestPlanMemo:
    def _plan(self):
        with _federation() as federation:
            return federation.run(PAPER_SQL).iom

    def test_least_recently_used_plan_leaves_first(self):
        iom = self._plan()
        memo = PlanMemo(entries=2)
        plans = {name: PreparedPlan(iom=iom, policy=None) for name in "abc"}
        key = {name: ((0,), name) for name in "abc"}
        memo.put(key["a"], plans["a"])
        memo.put(key["b"], plans["b"])
        assert memo.get(key["a"]) is plans["a"]  # a is now the fresher
        memo.put(key["c"], plans["c"])
        assert len(memo) == 2
        assert memo.get(key["b"]) is None
        assert memo.get(key["a"]) is plans["a"]

    def test_a_newer_epoch_drops_older_plans(self):
        iom = self._plan()
        memo = PlanMemo()
        old, new = PreparedPlan(iom=iom, policy=None), PreparedPlan(iom=iom, policy=None)
        memo.put(((1, 1, 1), "q"), old)
        memo.put(((1, 2, 1), "q"), new)
        assert len(memo) == 1
        # A plan finished under the older epoch after the bump is dropped.
        memo.put(((1, 1, 1), "r"), old)
        assert memo.get(((1, 1, 1), "r")) is None
        assert memo.get(((1, 2, 1), "q")) is new

    def test_concurrent_gets_and_puts_keep_the_bound(self):
        """More threads than cores hammer a small memo under a tiny switch
        interval: it never exceeds its bound and never returns another
        key's plan."""
        iom = self._plan()
        memo = PlanMemo(entries=16)
        plans = {n: PreparedPlan(iom=iom, policy=None) for n in range(48)}
        errors = []

        def worker(offset):
            try:
                for step in range(2000):
                    name = (offset * 5 + step) % len(plans)
                    key = ((0,), name)
                    found = memo.get(key)
                    if found is None:
                        memo.put(key, plans[name])
                    elif found is not plans[name]:
                        errors.append(name)
                    if len(memo) > 16:
                        errors.append("bound")
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(memo) <= 16
