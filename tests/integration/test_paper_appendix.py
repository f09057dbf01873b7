"""Cell-exact reproduction of Appendix A: the Merge walk-through (Tables
A1–A9), built through the public core API exactly as the appendix narrates.
"""

import pytest

from repro.core.algebra import coalesce, rename
from repro.core.derived import (
    merge,
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
def base_relations():
    """A1, A2, A3: retrieved, identity-resolved, domain-mapped, tagged —
    keeping local attribute names as the appendix prints them."""
    databases = paper_databases()
    resolver = paper_identity_resolver()
    registry = default_registry()
    hq_transform = registry.get("city_state_to_state")

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

    business = canonicalize(databases["AD"].relation("BUSINESS"))
    corporation = canonicalize(databases["PD"].relation("CORPORATION"))
    firm = canonicalize(databases["CD"].relation("FIRM"), {"HQ": hq_transform})
    return {
        "A1": tag_local_relation(business, "AD"),
        "A2": tag_local_relation(corporation, "PD"),
        "A3": tag_local_relation(firm, "CD"),
    }


class TestBaseRelations:
    def test_a1_business(self, base_relations):
        assert base_relations["A1"] == expected.expected_table_a1()

    def test_a2_corporation(self, base_relations):
        assert base_relations["A2"] == expected.expected_table_a2()

    def test_a3_firm_arrives_with_bare_states(self, base_relations):
        assert base_relations["A3"] == expected.expected_table_a3()
        states = {row.data[2] for row in base_relations["A3"]}
        assert states == {"NY", "MA", "MI", "CA"}


class TestFirstOuterNaturalTotalJoin:
    """Steps (1)-(3) of the first ONTJ: Tables A4, A5, A6."""

    def test_a4_outer_join(self, base_relations):
        a4 = outer_join(base_relations["A1"], base_relations["A2"], [("BNAME", "CNAME")])
        assert a4 == expected.expected_table_a4()

    def test_a5_outer_natural_primary_join(self, base_relations):
        a5 = outer_natural_primary_join(
            base_relations["A1"],
            base_relations["A2"],
            [("BNAME", "CNAME")],
            output_names=["ONAME"],
        )
        assert a5 == expected.expected_table_a5()

    def test_a6_outer_natural_total_join(self, base_relations):
        a6 = outer_natural_total_join(
            base_relations["A1"],
            base_relations["A2"],
            key_pairs=[("BNAME", "CNAME")],
            output_names=["ONAME"],
            extra_pairs=[("IND", "TRADE", "INDUSTRY")],
        )
        a6 = rename(a6, {"STATE": "HEADQUARTERS"})
        assert a6 == expected.expected_table_a6()

    def test_a5_is_a4_plus_coalesce(self, base_relations):
        a4 = outer_join(base_relations["A1"], base_relations["A2"], [("BNAME", "CNAME")])
        assert coalesce(a4, "BNAME", "CNAME", w="ONAME") == expected.expected_table_a5()


class TestSecondOuterNaturalTotalJoin:
    """Tables A7, A8, A9 — joining the intermediate result with FIRM."""

    @pytest.fixture(scope="class")
    def a6(self, base_relations):
        a6 = outer_natural_total_join(
            base_relations["A1"],
            base_relations["A2"],
            key_pairs=[("BNAME", "CNAME")],
            output_names=["ONAME"],
            extra_pairs=[("IND", "TRADE", "INDUSTRY")],
        )
        return rename(a6, {"STATE": "HEADQUARTERS"})

    def test_a7_outer_join(self, a6, base_relations):
        a7 = outer_join(a6, base_relations["A3"], [("ONAME", "FNAME")])
        assert a7 == expected.expected_table_a7()

    def test_a8_coalesces_the_key(self, a6, base_relations):
        a7 = outer_join(a6, base_relations["A3"], [("ONAME", "FNAME")])
        a8 = coalesce(a7, "ONAME", "FNAME", w="ONAME")
        assert a8 == expected.expected_table_a8()

    def test_a9_coalesces_headquarters(self, a6, base_relations):
        a7 = outer_join(a6, base_relations["A3"], [("ONAME", "FNAME")])
        a8 = coalesce(a7, "ONAME", "FNAME", w="ONAME")
        a9 = coalesce(a8, "HEADQUARTERS", "HQ", w="HEADQUARTERS")
        assert a9 == expected.expected_table_a9()

    def test_a9_equals_table_6(self):
        assert expected.expected_table_a9() == expected.expected_table_6()


class TestMergeOperator:
    """The Merge operator reproduces the whole appendix in one call once the
    operands are renamed to polygen attributes (as the executor does)."""

    @pytest.fixture(scope="class")
    def renamed(self, base_relations):
        return [
            base_relations["A1"].rename({"BNAME": "ONAME", "IND": "INDUSTRY"}),
            base_relations["A2"].rename(
                {"CNAME": "ONAME", "TRADE": "INDUSTRY", "STATE": "HEADQUARTERS"}
            ),
            base_relations["A3"].rename({"FNAME": "ONAME", "HQ": "HEADQUARTERS"}),
        ]

    def test_merge_produces_table_6_modulo_column_order(self, renamed):
        merged = merge(renamed, key=["ONAME"])
        table6 = expected.expected_table_6()
        assert set(merged.attributes) == set(table6.attributes)
        from repro.core.algebra import project

        assert project(merged, table6.attributes) == table6

    def test_merge_order_immaterial_on_paper_data(self, renamed):
        import itertools

        from repro.core.algebra import project

        reference = None
        for permutation in itertools.permutations(renamed):
            merged = merge(list(permutation), key=["ONAME"])
            normalized = project(
                merged, ["ONAME", "INDUSTRY", "HEADQUARTERS", "CEO"]
            )
            if reference is None:
                reference = normalized
            else:
                assert normalized == reference
