"""Benchmarks regenerating Appendix A (Tables A1–A9): the Merge
walk-through, step by step, through the public core API."""

import pytest

from repro.core.algebra import coalesce, rename
from repro.core.derived import (
    outer_join,
    outer_natural_primary_join,
    outer_natural_total_join,
)
from repro.datasets import expected
from repro.datasets.paper import paper_databases, paper_identity_resolver
from repro.integration.domains import default_registry
from repro.lqp.tagging import tag_local_relation
from repro.relational.relation import Relation


@pytest.fixture(scope="module")
def bases():
    databases = paper_databases()
    resolver = paper_identity_resolver()
    hq = default_registry().get("city_state_to_state")

    def canonicalize(relation, transforms=None):
        transforms = transforms or {}

        def convert(attribute, value):
            transform = transforms.get(attribute)
            if transform is not None:
                value = transform(value)
            return resolver.resolve(value)

        return Relation(
            relation.heading,
            (
                tuple(map(convert, relation.attributes, row))
                for row in relation.rows
            ),
        )

    return {
        "business": canonicalize(databases["AD"].relation("BUSINESS")),
        "corporation": canonicalize(databases["PD"].relation("CORPORATION")),
        "firm": canonicalize(databases["CD"].relation("FIRM"), {"HQ": hq}),
    }


@pytest.fixture(scope="module")
def a_relations(bases):
    return {
        "A1": tag_local_relation(bases["business"], "AD"),
        "A2": tag_local_relation(bases["corporation"], "PD"),
        "A3": tag_local_relation(bases["firm"], "CD"),
    }


@pytest.fixture(scope="module")
def a6(a_relations):
    joined = outer_natural_total_join(
        a_relations["A1"],
        a_relations["A2"],
        key_pairs=[("BNAME", "CNAME")],
        output_names=["ONAME"],
        extra_pairs=[("IND", "TRADE", "INDUSTRY")],
    )
    return rename(joined, {"STATE": "HEADQUARTERS"})


def test_tables_a1_a2_a3(benchmark, bases):
    """A1–A3: retrieval tagging with identity resolution and domain maps."""

    def build():
        return (
            tag_local_relation(bases["business"], "AD"),
            tag_local_relation(bases["corporation"], "PD"),
            tag_local_relation(bases["firm"], "CD"),
        )

    a1, a2, a3 = benchmark(build)
    assert a1 == expected.expected_table_a1()
    assert a2 == expected.expected_table_a2()
    assert a3 == expected.expected_table_a3()


def test_table_a4(benchmark, a_relations):
    """A4: the outer join of A1 and A2 on BNAME = CNAME."""
    relation = benchmark(
        outer_join, a_relations["A1"], a_relations["A2"], [("BNAME", "CNAME")]
    )
    assert relation == expected.expected_table_a4()


def test_table_a5(benchmark, a_relations):
    """A5: the Outer Natural Primary Join of A1 and A2."""
    relation = benchmark(
        outer_natural_primary_join,
        a_relations["A1"],
        a_relations["A2"],
        [("BNAME", "CNAME")],
        ["ONAME"],
    )
    assert relation == expected.expected_table_a5()


def test_table_a6(benchmark, a_relations):
    """A6: the Outer Natural Total Join of A1 and A2."""

    def build():
        joined = outer_natural_total_join(
            a_relations["A1"],
            a_relations["A2"],
            key_pairs=[("BNAME", "CNAME")],
            output_names=["ONAME"],
            extra_pairs=[("IND", "TRADE", "INDUSTRY")],
        )
        return rename(joined, {"STATE": "HEADQUARTERS"})

    assert benchmark(build) == expected.expected_table_a6()


def test_table_a7(benchmark, a6, a_relations):
    """A7: the outer join of A6 and A3 (Restrict-style tag timing; see
    EXPERIMENTS.md)."""
    relation = benchmark(outer_join, a6, a_relations["A3"], [("ONAME", "FNAME")])
    assert relation == expected.expected_table_a7()


def test_table_a8(benchmark, a6, a_relations):
    """A8: the ONPJ of A6 and A3 — key pair coalesced."""

    def build():
        a7 = outer_join(a6, a_relations["A3"], [("ONAME", "FNAME")])
        return coalesce(a7, "ONAME", "FNAME", w="ONAME")

    assert benchmark(build) == expected.expected_table_a8()


def test_table_a9(benchmark, a6, a_relations):
    """A9 (= Table 6): the ONTJ of A6 and A3."""

    def build():
        a7 = outer_join(a6, a_relations["A3"], [("ONAME", "FNAME")])
        a8 = coalesce(a7, "ONAME", "FNAME", w="ONAME")
        return coalesce(a8, "HEADQUARTERS", "HQ", w="HEADQUARTERS")

    relation = benchmark(build)
    assert relation == expected.expected_table_a9()
    assert relation == expected.expected_table_6()
