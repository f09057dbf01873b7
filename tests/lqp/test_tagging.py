"""Unit tests for tagging/materialization at the PQP boundary."""

import pytest

from repro.catalog.mapping import AttributeMapping
from repro.catalog.scheme import PolygenScheme
from repro.core.tags import sources
from repro.integration.identity import IdentityResolver
from repro.lqp.tagging import materialize, tag_local_relation
from repro.relational.relation import Relation


@pytest.fixture
def firm_relation():
    return Relation(
        ["FNAME", "CEO", "HQ"],
        [
            ("CitiCorp", "John Reed", "NY, NY"),
            ("Langley Castle", "Stu Madnick", "Cambridge, MA"),
        ],
    )


@pytest.fixture
def porganization():
    return PolygenScheme(
        "PORGANIZATION",
        {
            "ONAME": [
                AttributeMapping("AD", "BUSINESS", "BNAME"),
                AttributeMapping("CD", "FIRM", "FNAME"),
            ],
            "INDUSTRY": [AttributeMapping("AD", "BUSINESS", "IND")],
            "CEO": [AttributeMapping("CD", "FIRM", "CEO")],
            "HEADQUARTERS": [
                AttributeMapping("CD", "FIRM", "HQ", transform="city_state_to_state")
            ],
        },
        primary_key=["ONAME"],
    )


class TestTagLocalRelation:
    def test_tags_origins_and_empty_intermediates(self, firm_relation):
        tagged = tag_local_relation(firm_relation, "CD")
        for row in tagged:
            for cell in row:
                assert cell.origins == sources("CD")
                assert cell.intermediates == frozenset()

    def test_keeps_local_attribute_names(self, firm_relation):
        tagged = tag_local_relation(firm_relation, "CD")
        assert tagged.attributes == ("FNAME", "CEO", "HQ")

    def test_nil_data_get_no_origins(self):
        tagged = tag_local_relation(Relation(["A"], [(None,)]), "AD")
        assert tagged.tuples[0][0].origins == frozenset()


class TestMaterialize:
    def test_renames_to_polygen_attributes(self, firm_relation, porganization):
        out = materialize(firm_relation, "CD", porganization)
        assert out.attributes == ("ONAME", "CEO", "HEADQUARTERS")

    def test_applies_domain_transform(self, firm_relation, porganization):
        # Table A3: FIRM arrives with bare states in HQ.
        out = materialize(firm_relation, "CD", porganization)
        hq = {t.data[0]: t.data[2] for t in out}
        assert hq["Langley Castle"] == "MA"

    def test_applies_identity_resolution(self, firm_relation, porganization):
        resolver = IdentityResolver({"Citicorp": ["CitiCorp"]})
        out = materialize(firm_relation, "CD", porganization, resolver=resolver)
        names = {t.data[0] for t in out}
        assert "Citicorp" in names and "CitiCorp" not in names

    def test_tags_match_paper_base_relations(self, firm_relation, porganization):
        out = materialize(firm_relation, "CD", porganization)
        for row in out:
            for cell in row:
                assert cell.origins == sources("CD")
                assert cell.intermediates == frozenset()

    def test_infers_relation_name_when_unique(self, firm_relation, porganization):
        # PORGANIZATION maps exactly one CD relation (FIRM), so the name is
        # optional.
        out = materialize(firm_relation, "CD", porganization)
        assert out.cardinality == 2

    def test_requires_relation_name_when_ambiguous(self, firm_relation):
        scheme = PolygenScheme(
            "P",
            {
                "A": [
                    AttributeMapping("CD", "T1", "X"),
                    AttributeMapping("CD", "T2", "Y"),
                ]
            },
        )
        with pytest.raises(ValueError):
            materialize(firm_relation, "CD", scheme)

    def test_drops_unmapped_columns(self, porganization):
        relation = Relation(
            ["FNAME", "CEO", "HQ", "UNMAPPED"],
            [("IBM", "John Ackers", "Armonk, NY", "noise")],
        )
        out = materialize(relation, "CD", porganization, relation_name="FIRM")
        assert out.attributes == ("ONAME", "CEO", "HEADQUARTERS")

    def test_business_side_uses_its_own_mappings(self, porganization):
        business = Relation(["BNAME", "IND"], [("IBM", "High Tech")])
        out = materialize(business, "AD", porganization, relation_name="BUSINESS")
        assert out.attributes == ("ONAME", "INDUSTRY")
        assert out.tuples[0][0].origins == sources("AD")


class TestHandOff:
    """The shipped relation crosses into the columnar store in its column
    view: no intermediate ``Relation``, and at most one transpose ever."""

    @pytest.fixture
    def constructions(self, monkeypatch):
        """Counts every ``Relation`` built while the fixture is live."""
        built = []
        init, from_columns = Relation.__init__, Relation.from_columns.__func__

        def counting_init(self, *args, **kwargs):
            built.append("rows")
            init(self, *args, **kwargs)

        def counting_from_columns(cls, *args, **kwargs):
            built.append("columns")
            return from_columns(cls, *args, **kwargs)

        monkeypatch.setattr(Relation, "__init__", counting_init)
        monkeypatch.setattr(Relation, "from_columns", classmethod(counting_from_columns))
        return built

    def test_column_built_relation_is_never_transposed(
        self, porganization, constructions, monkeypatch
    ):
        shipped = Relation.from_columns(
            ["FNAME", "CEO", "HQ", "UNMAPPED"],
            [
                ["CitiCorp", "Langley Castle", "IBM"],
                ["John Reed", "Stu Madnick", "John Ackers"],
                ["NY, NY", "Cambridge, MA", "Armonk, NY"],
                ["a", "b", "c"],
            ],
        )
        constructions.clear()

        def row_view(self):
            raise AssertionError("the row view of a shipped relation was built")

        monkeypatch.setattr(Relation, "rows", property(row_view))
        out = materialize(
            shipped,
            "CD",
            porganization,
            resolver=IdentityResolver({"Citicorp": ["CitiCorp"]}),
        )
        assert constructions == []
        assert out.store.columns == (
            ("Citicorp", "Langley Castle", "IBM"),
            ("John Reed", "Stu Madnick", "John Ackers"),
            ("NY", "MA", "NY"),
        )

    def test_untouched_columns_enter_the_store_as_shipped(self, constructions):
        scheme = PolygenScheme(
            "P", {"X": [AttributeMapping("AD", "T", "A")], "Y": [AttributeMapping("AD", "T", "B")]}
        )
        shipped = Relation.from_columns(["A", "B"], [(1, 2), ("x", "y")])
        out = materialize(shipped, "AD", scheme)
        assert out.attributes == ("X", "Y")
        assert all(
            kept is sent for kept, sent in zip(out.store.columns, shipped.columns)
        )

    def test_row_built_relation_is_transposed_exactly_once(
        self, firm_relation, porganization, constructions
    ):
        constructions.clear()
        first = materialize(firm_relation, "CD", porganization)
        columns = firm_relation.columns
        second = materialize(firm_relation, "CD", porganization)
        assert constructions == []
        # The one transpose is kept on the relation: a later materialize
        # (and tag_local_relation) start from the very same column tuples.
        assert firm_relation.columns is columns
        assert first.store.columns[0] is second.store.columns[0] is columns[0]
        tagged = tag_local_relation(firm_relation, "CD")
        assert all(kept is sent for kept, sent in zip(tagged.store.columns, columns))
