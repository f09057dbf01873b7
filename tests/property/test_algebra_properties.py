"""Property-based tests: algebraic laws and tag invariants of the polygen
algebra (hypothesis)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.algebra import coalesce, difference, product, project, restrict, union
from repro.core.derived import RHS_SUFFIX, intersect, join, merge, outer_join
from repro.core.predicate import AttributeRef, Literal, Theta

from tests.property.strategies import (
    relation_pairs,
    relations,
    keyed_relation_sets,
)


class TestUnionLaws:
    @given(relation_pairs())
    def test_commutative(self, pair):
        left, right = pair
        assert union(left, right) == union(right, left)

    @given(relations())
    def test_idempotent_on_normalized_relations(self, relation):
        # Union merges tuples sharing a data portion (paper, §II), so
        # idempotence holds once the relation is data-normalized — which a
        # full-width Project performs.
        normalized = project(relation, relation.attributes)
        assert union(normalized, normalized) == normalized

    @given(relations())
    def test_self_union_normalizes(self, relation):
        # union(p, p) equals the data-normal form of p: same data portions,
        # tags merged across data-duplicates.
        assert union(relation, relation) == project(relation, relation.attributes)

    @given(relation_pairs(), relations())
    def test_associative_on_shared_heading(self, pair, _ignored):
        left, right = pair
        # Build a third relation over the same heading by reusing left.
        third = left
        assert union(union(left, right), third) == union(left, union(right, third))

    @given(relation_pairs())
    def test_union_covers_both_data_portions(self, pair):
        left, right = pair
        combined = union(left, right)
        data = set(combined.data_rows())
        assert {row.data for row in left} <= data
        assert {row.data for row in right} <= data


class TestDifferenceLaws:
    @given(relations())
    def test_self_difference_empty(self, relation):
        assert difference(relation, relation).cardinality == 0

    @given(relation_pairs())
    def test_difference_disjoint_from_subtrahend(self, pair):
        left, right = pair
        out = difference(left, right)
        assert not (set(out.data_rows()) & set(right.data_rows()))

    @given(relation_pairs())
    def test_difference_adds_subtrahend_origins_to_intermediates(self, pair):
        left, right = pair
        out = difference(left, right)
        mediators = right.all_origins()
        for row in out:
            for cell in row:
                assert mediators <= cell.intermediates

    @given(relation_pairs())
    def test_origins_never_change(self, pair):
        left, right = pair
        out = difference(left, right)
        origins_by_data = {}
        for row in left:
            origins_by_data.setdefault(row.data, []).append(
                tuple(cell.origins for cell in row)
            )
        for row in out:
            assert tuple(cell.origins for cell in row) in origins_by_data[row.data]


class TestProjectLaws:
    @given(relations())
    def test_idempotent(self, relation):
        attrs = relation.attributes
        assert project(project(relation, attrs), attrs) == project(relation, attrs)

    @given(relations(min_rows=1))
    def test_single_attribute_dedupes_by_data(self, relation):
        out = project(relation, [relation.attributes[0]])
        data = [row.data for row in out]
        assert len(data) == len(set(data))

    @given(relations(min_rows=1))
    def test_tag_union_preserves_sources(self, relation):
        attr = relation.attributes[0]
        out = project(relation, [attr])
        index = relation.heading.index(attr)
        for row in out:
            datum = row.data[0]
            expected_origins = frozenset()
            for original in relation:
                if original[index].datum == datum:
                    expected_origins |= original[index].origins
            assert row[0].origins == expected_origins


class TestRestrictLaws:
    @given(relations(min_rows=1), st.sampled_from(["x", "y", 1]))
    def test_subset_and_origin_preservation(self, relation, literal):
        attr = relation.attributes[0]
        out = restrict(relation, attr, Theta.EQ, Literal(literal))
        for row in out:
            # Some input tuple must explain this output tuple: identical
            # data and origins, and intermediates that only grew.
            assert any(
                row.data == original.data
                and all(
                    new.origins == old.origins and old.intermediates <= new.intermediates
                    for new, old in zip(row, original)
                )
                for original in relation
            )

    @given(relations(min_rows=1))
    def test_restrict_attr_to_itself_keeps_non_nil(self, relation):
        # nil never satisfies θ, so p[A = A] keeps exactly the tuples whose
        # A is non-nil (compared on data portions; tuples that become
        # identical after the intermediate update may collapse).
        attr = relation.attributes[0]
        out = restrict(relation, attr, Theta.EQ, AttributeRef(attr))
        index = relation.heading.index(attr)
        expected = {row.data for row in relation if row[index].datum is not None}
        assert set(out.data_rows()) == expected

    @given(relations(min_rows=1))
    def test_intermediates_gain_exactly_compared_origins(self, relation):
        attr = relation.attributes[0]
        index = relation.heading.index(attr)
        out = restrict(relation, attr, Theta.EQ, AttributeRef(attr))
        for row in out:
            key_origins = row[index].origins
            # every cell's added intermediates are exactly the key origins
            for cell in row:
                assert key_origins <= cell.intermediates


class TestJoinLaws:
    # Keys from the key alphabet (nil, 1/True/1.0, 0/-0.0, shared and fresh
    # NaN): the hash join must agree with the definition on rows, tags and
    # row order.
    @given(relations(heading=["A", "B"], min_rows=0, max_rows=5, keyed=["A"]),
           relations(heading=["C", "D"], min_rows=0, max_rows=5, keyed=["C"]))
    def test_join_equals_restrict_of_product(self, left, right):
        via_join = join(left, right, "A", Theta.EQ, "C")
        via_primitives = restrict(product(left, right), "A", Theta.EQ, AttributeRef("C"))
        assert via_join == via_primitives
        assert via_join.data_rows() == via_primitives.data_rows()

    @given(relations(heading=["K", "B"], min_rows=0, max_rows=5, keyed=["K"]),
           relations(heading=["K", "D"], min_rows=0, max_rows=5, keyed=["K"]),
           st.booleans())
    def test_same_named_join_equals_the_composition(self, left, right, coalesce_equal):
        qualified = right.rename({"K": "K" + RHS_SUFFIX})
        expected = restrict(
            product(left, qualified), "K", Theta.EQ, AttributeRef("K" + RHS_SUFFIX)
        )
        if coalesce_equal:
            expected = coalesce(expected, "K", "K" + RHS_SUFFIX, w="K")
        actual = join(left, right, "K", Theta.EQ, "K", coalesce_equal=coalesce_equal)
        assert actual == expected
        assert actual.data_rows() == expected.data_rows()

    @given(relation_pairs(max_rows=5))
    def test_intersection_commutative(self, pair):
        left, right = pair
        assert intersect(left, right) == intersect(right, left)

    @given(relations(min_rows=1, max_rows=5))
    def test_intersection_with_self_preserves_data(self, relation):
        out = intersect(relation, relation)
        assert set(out.data_rows()) == set(relation.data_rows())


class TestOuterJoinLaws:
    @given(relations(heading=["K", "V"], min_rows=0, max_rows=5),
           relations(heading=["J", "W"], min_rows=0, max_rows=5))
    def test_every_input_tuple_is_represented(self, left, right):
        out = outer_join(left, right, [("K", "J")])
        left_data = {row.data for row in left}
        right_data = {row.data for row in right}
        out_left = {row.data[:2] for row in out}
        out_right = {row.data[2:] for row in out}
        assert left_data <= out_left
        assert right_data <= out_right

    @given(relations(heading=["K", "V"], min_rows=0, max_rows=5),
           relations(heading=["J", "W"], min_rows=0, max_rows=5))
    def test_padded_cells_have_no_origins(self, left, right):
        out = outer_join(left, right, [("K", "J")])
        for row in out:
            for cell in row:
                if cell.is_nil:
                    assert cell.origins == frozenset()


class TestMergeLaws:
    @given(keyed_relation_sets())
    @settings(max_examples=60)
    def test_merge_order_immaterial(self, operands):
        import itertools

        reference = None
        for permutation in itertools.permutations(operands):
            out = merge(list(permutation), ["K"])
            normalized = {(row.data, row.cells) for row in out}
            if reference is None:
                reference = normalized
            else:
                assert normalized == reference

    @given(keyed_relation_sets())
    @settings(max_examples=60)
    def test_merge_covers_union_of_keys(self, operands):
        out = merge(operands, ["K"])
        expected_keys = set()
        for relation in operands:
            expected_keys |= {row.data[0] for row in relation}
        assert {row.data[0] for row in out} == expected_keys

    @given(keyed_relation_sets())
    @settings(max_examples=60)
    def test_merged_origins_are_union_of_contributors(self, operands):
        out = merge(operands, ["K"])
        contributors = {}
        for relation in operands:
            for row in relation:
                contributors.setdefault(row.data[0], frozenset())
                contributors[row.data[0]] |= row[0].origins
        for row in out:
            assert row[0].origins == contributors[row.data[0]]
