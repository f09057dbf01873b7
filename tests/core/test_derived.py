"""Unit tests for the derived operators: Select, Join, Intersection, the
outer natural joins and Merge (paper, §II and Appendix A)."""

import math

import pytest

from repro.core.algebra import coalesce, product, project, restrict
from repro.core.cell import Cell, ConflictPolicy
from repro.core.derived import (
    RHS_SUFFIX,
    intersect,
    join,
    merge,
    outer_join,
    outer_natural_primary_join,
    outer_natural_total_join,
    select,
)
from repro.core.predicate import AttributeRef, Theta
from repro.core.relation import PolygenRelation
from repro.core.tags import sources
from repro.errors import AttributeCollisionError, InvalidOperandError
from repro.storage import kernels


def cell(datum, origins=(), intermediates=()):
    return Cell.of(datum, origins, intermediates)


def rel(heading, cell_rows):
    return PolygenRelation.from_cells(heading, cell_rows)


class TestSelect:
    def test_select_is_restrict_against_literal(self):
        r = PolygenRelation.from_data(
            ["DEG", "NAME"], [["MBA", "Bob"], ["MS", "Ken"]], origins=["AD"]
        )
        out = select(r, "DEG", Theta.EQ, "MBA")
        assert out.data_rows() == (("MBA", "Bob"),)

    def test_select_updates_intermediates(self):
        # "Since Select and Join are defined through Restrict, they also
        # update t(i)."
        r = PolygenRelation.from_data(["DEG"], [["MBA"]], origins=["AD"])
        out = select(r, "DEG", Theta.EQ, "MBA")
        assert out.tuples[0][0].intermediates == sources("AD")


class TestJoin:
    def test_equijoin_different_names_keeps_both_columns(self):
        left = rel(["A", "K1"], [[cell("a", ["AD"]), cell(1, ["AD"])]])
        right = rel(["K2", "B"], [[cell(1, ["CD"]), cell("b", ["CD"])]])
        out = join(left, right, "K1", Theta.EQ, "K2")
        assert out.attributes == ("A", "K1", "K2", "B")
        assert out.data_rows() == (("a", 1, 1, "b"),)

    def test_join_intermediates_from_both_key_cells(self):
        left = rel(["A", "K1"], [[cell("a", ["AD"]), cell(1, ["AD"])]])
        right = rel(["K2", "B"], [[cell(1, ["CD"]), cell("b", ["PD"])]])
        out = join(left, right, "K1", Theta.EQ, "K2")
        for c in out.tuples[0]:
            assert c.intermediates == sources("AD", "CD")

    def test_same_name_equijoin_coalesces_key(self):
        # This is the executor's case: both sides use the polygen attribute
        # name, and the result has a single key column with unioned tags
        # (paper, Tables 5 and 7).
        left = rel(["K", "A"], [[cell(1, ["AD"]), cell("a", ["AD"])]])
        right = rel(["K", "B"], [[cell(1, ["CD"]), cell("b", ["CD"])]])
        out = join(left, right, "K", Theta.EQ, "K")
        assert out.attributes == ("K", "A", "B")
        key = out.tuples[0][0]
        assert key.origins == sources("AD", "CD")
        assert key.intermediates == sources("AD", "CD")

    def test_same_name_equijoin_can_keep_both_columns(self):
        left = rel(["K"], [[cell(1, ["AD"])]])
        right = rel(["K"], [[cell(1, ["CD"])]])
        out = join(left, right, "K", Theta.EQ, "K", coalesce_equal=False)
        assert out.attributes == ("K", "K" + RHS_SUFFIX)

    def test_same_name_non_equijoin_rejected(self):
        left = rel(["K"], [[cell(1, ["AD"])]])
        right = rel(["K"], [[cell(2, ["CD"])]])
        with pytest.raises(InvalidOperandError):
            join(left, right, "K", Theta.LT, "K")

    def test_non_join_collision_rejected(self):
        left = rel(["K", "X"], [[cell(1), cell("x")]])
        right = rel(["J", "X"], [[cell(1), cell("y")]])
        with pytest.raises(AttributeCollisionError):
            join(left, right, "K", Theta.EQ, "J")

    def test_theta_join(self):
        left = PolygenRelation.from_data(["A"], [[1], [5]], origins=["AD"])
        right = PolygenRelation.from_data(["B"], [[3]], origins=["CD"])
        out = join(left, right, "A", Theta.LT, "B")
        assert out.data_rows() == ((1, 3),)

    def test_join_equals_restrict_of_product(self):
        # Definitional identity (paper, §II) for disjoint attribute names.
        left = PolygenRelation.from_data(["A", "K1"], [["a", 1], ["b", 2]], origins=["AD"])
        right = PolygenRelation.from_data(["K2", "B"], [[1, "x"], [3, "y"]], origins=["CD"])
        via_join = join(left, right, "K1", Theta.EQ, "K2")
        via_primitives = restrict(product(left, right), "K1", Theta.EQ, AttributeRef("K2"))
        assert via_join == via_primitives

    def test_equijoin_never_forms_the_product(self, monkeypatch):
        # 10⁴ × 10⁴ unique keys: 10⁸ pairs if the product were formed.
        def refuse(*args, **kwargs):
            raise AssertionError("the equijoin formed the product")

        monkeypatch.setattr(kernels, "product", refuse)
        monkeypatch.setattr(kernels, "restrict", refuse)
        n = 10_000
        left = PolygenRelation.from_data(["A", "K1"], [(i, i) for i in range(n)], origins=["AD"])
        right = PolygenRelation.from_data(
            ["K2", "B"], [(k, -k) for k in reversed(range(n))], origins=["CD"]
        )
        out = join(left, right, "K1", Theta.EQ, "K2")
        assert out.cardinality == n
        assert out.data_rows()[:2] == ((0, 0, 0, 0), (1, 1, 1, -1))

    def test_theta_join_refuses_an_oversized_product(self):
        n = 10_000
        left = PolygenRelation.from_data(["A"], [(i,) for i in range(n)], origins=["AD"])
        right = PolygenRelation.from_data(["B"], [(i,) for i in range(n)], origins=["CD"])
        with pytest.raises(InvalidOperandError, match="10000 × 10000"):
            join(left, right, "A", Theta.LT, "B")


def canonical(relation):
    """Rows with every NaN datum spelled ``"NaN"``, so answers over
    distinct NaN objects compare; tags included, order-insensitive."""
    rows = [
        (
            tuple("NaN" if c.datum != c.datum else c.datum for c in row),
            tuple((c.origins, c.intermediates) for c in row),
        )
        for row in relation
    ]
    return sorted(rows, key=repr)


class TestKeyMatchRule:
    """Join, the outer joins and Merge match key data by one rule: Python
    ``==``, with nil and NaN matching nothing — whatever the objects'
    identity, so a wire decoder that builds a fresh float per cell cannot
    change an answer."""

    SHARED_NAN = math.nan

    def operands(self, shared):
        right_key = self.SHARED_NAN if shared else float("nan")
        left = PolygenRelation.from_data(["K", "X"], [(self.SHARED_NAN, "x")], origins=["AD"])
        right = PolygenRelation.from_data(["K", "Y"], [(right_key, "y")], origins=["PD"])
        return left, right

    def answers(self, shared):
        left, right = self.operands(shared)
        return {
            "merge_drop": canonical(merge([left, right], ["K"])),
            "merge_error": canonical(merge([left, right], ["K"], policy=ConflictPolicy.ERROR)),
            "outer_join": canonical(outer_join(left, right.rename({"K": "J"}), [("K", "J")])),
            "join": canonical(join(left, right, "K", Theta.EQ, "K")),
        }

    @pytest.mark.parametrize("shared", [True, False], ids=["one-nan-object", "two-nan-objects"])
    def test_nan_keys_match_nothing(self, shared):
        answers = self.answers(shared)
        assert len(answers["merge_drop"]) == 2
        assert answers["merge_error"] == answers["merge_drop"]
        assert len(answers["outer_join"]) == 2
        assert answers["join"] == []

    def test_answers_do_not_depend_on_nan_identity(self):
        assert self.answers(shared=True) == self.answers(shared=False)

    def test_equal_under_python_eq_is_one_key(self):
        assert Theta.EQ.evaluate(1, True) and Theta.EQ.evaluate(1, 1.0)
        left = PolygenRelation.from_data(["K", "X"], [(1, "x")], origins=["AD"])
        right = PolygenRelation.from_data(
            ["J", "Y"], [(True, "t"), (1.0, "f"), (0, "z")], origins=["PD"]
        )
        joined = join(left, right, "K", Theta.EQ, "J")
        assert [row[3] for row in joined.data_rows()] == ["t", "f"]
        assert joined == restrict(product(left, right), "K", Theta.EQ, AttributeRef("J"))
        outer = outer_join(left, right, [("K", "J")])
        assert sorted(row[3] for row in outer.data_rows()) == ["f", "t", "z"]
        other = PolygenRelation.from_data(["K", "Y"], [(1.0, "f"), (0, "z")], origins=["PD"])
        merged = merge([left, other], ["K"])
        assert merged.data_rows() == ((1, "x", "f"), (0, None, "z"))


class TestIntersect:
    def test_requires_same_heading(self):
        a = PolygenRelation.from_data(["A"], [["x"]])
        b = PolygenRelation.from_data(["B"], [["x"]])
        with pytest.raises(InvalidOperandError):
            intersect(a, b)

    def test_keeps_common_data_only(self):
        a = PolygenRelation.from_data(["A"], [["x"], ["y"]], origins=["AD"])
        b = PolygenRelation.from_data(["A"], [["y"], ["z"]], origins=["CD"])
        out = intersect(a, b)
        assert out.data_rows() == (("y",),)

    def test_tags_union_and_all_origins_mediate(self):
        a = rel(["A", "B"], [[cell("x", ["AD"]), cell(1, ["PD"])]])
        b = rel(["A", "B"], [[cell("x", ["CD"]), cell(1, ["CD"])]])
        out = intersect(a, b)
        t = out.tuples[0]
        assert t[0].origins == sources("AD", "CD")
        assert t[1].origins == sources("PD", "CD")
        # Every origin of both matched tuples becomes an intermediate of
        # every cell (n restricts, one per attribute pair).
        for c in t:
            assert c.intermediates == sources("AD", "PD", "CD")

    def test_matches_primitive_composition(self):
        # intersection = project over all attributes of the join over all
        # attributes (paper's definition), evaluated with the primitives.
        a = rel(
            ["A", "B"],
            [
                [cell("x", ["AD"]), cell(1, ["AD"])],
                [cell("q", ["AD"]), cell(7, ["AD"])],
            ],
        )
        b = rel(
            ["A", "B"],
            [
                [cell("x", ["CD"], ["PD"]), cell(1, ["CD"])],
            ],
        )
        qualified = b.rename({"A": "A'", "B": "B'"})
        composed = product(a, qualified)
        composed = restrict(composed, "A", Theta.EQ, AttributeRef("A'"))
        composed = restrict(composed, "B", Theta.EQ, AttributeRef("B'"))
        composed = coalesce(composed, "A", "A'")
        composed = coalesce(composed, "B", "B'")
        composed = project(composed, ["A", "B"])
        assert intersect(a, b) == composed

    def test_is_commutative(self):
        a = PolygenRelation.from_data(["A"], [["x"], ["y"]], origins=["AD"])
        b = PolygenRelation.from_data(["A"], [["y"]], origins=["CD"])
        assert intersect(a, b) == intersect(b, a)


class TestOuterJoin:
    def setup_method(self):
        self.left = rel(
            ["LK", "LV"],
            [
                [cell("both", ["AD"]), cell("l1", ["AD"])],
                [cell("left-only", ["AD"]), cell("l2", ["AD"])],
            ],
        )
        self.right = rel(
            ["RK", "RV"],
            [
                [cell("both", ["PD"]), cell("r1", ["PD"])],
                [cell("right-only", ["PD"]), cell("r2", ["PD"])],
            ],
        )

    def test_heading_is_concatenation(self):
        out = outer_join(self.left, self.right, [("LK", "RK")])
        assert out.attributes == ("LK", "LV", "RK", "RV")

    def test_matched_rows_record_both_key_origins(self):
        out = outer_join(self.left, self.right, [("LK", "RK")])
        matched = [t for t in out if t.data[0] == "both"][0]
        for c in matched:
            assert c.intermediates == sources("AD", "PD")

    def test_unmatched_left_records_left_key_origins_only(self):
        # Table A4: "Langley Castle, {AD}, {AD}" with nil, {}, {AD} padding.
        out = outer_join(self.left, self.right, [("LK", "RK")])
        unmatched = [t for t in out if t.data[0] == "left-only"][0]
        assert unmatched[0].intermediates == sources("AD")
        assert unmatched[2].is_nil
        assert unmatched[2].origins == frozenset()
        assert unmatched[2].intermediates == sources("AD")

    def test_unmatched_right_is_symmetric(self):
        out = outer_join(self.left, self.right, [("LK", "RK")])
        unmatched = [t for t in out if t.data[2] == "right-only"][0]
        assert unmatched[0].is_nil
        assert unmatched[0].intermediates == sources("PD")
        assert unmatched[3].intermediates == sources("PD")

    def test_nil_keys_never_match(self):
        left = rel(["LK"], [[cell(None, [], ["AD"])]])
        right = rel(["RK"], [[cell(None, [], ["PD"])]])
        out = outer_join(left, right, [("LK", "RK")])
        # Two unmatched rows, not one matched row.
        assert out.cardinality == 2

    def test_multi_attribute_keys(self):
        left = rel(
            ["K1", "K2"],
            [[cell("a", ["AD"]), cell(1, ["AD"])], [cell("a", ["AD"]), cell(2, ["AD"])]],
        )
        right = rel(
            ["J1", "J2"],
            [[cell("a", ["PD"]), cell(1, ["PD"])]],
        )
        out = outer_join(left, right, [("K1", "J1"), ("K2", "J2")])
        matched = [t for t in out if t.data[2] is not None]
        assert len(matched) == 1
        assert matched[0].data == ("a", 1, "a", 1)

    def test_duplicate_matches_multiply(self):
        left = rel(["K"], [[cell("k", ["AD"])]])
        right = rel(
            ["J", "V"],
            [[cell("k", ["PD"]), cell(1, ["PD"])], [cell("k", ["PD"]), cell(2, ["PD"])]],
        )
        out = outer_join(left, right, [("K", "J")])
        assert out.cardinality == 2

    def test_requires_key(self):
        with pytest.raises(InvalidOperandError):
            outer_join(self.left, self.right, [])


class TestOuterNaturalJoins:
    def setup_method(self):
        # Two sources describing overlapping organizations, already renamed
        # to polygen attribute names, as the executor produces them.
        self.p1 = rel(
            ["ONAME", "INDUSTRY"],
            [
                [cell("IBM", ["AD"]), cell("High Tech", ["AD"])],
                [cell("MIT", ["AD"]), cell("Education", ["AD"])],
            ],
        )
        self.p2 = rel(
            ["ONAME", "INDUSTRY", "HQ"],
            [
                [cell("IBM", ["PD"]), cell("High Tech", ["PD"]), cell("NY", ["PD"])],
                [cell("Apple", ["PD"]), cell("High Tech", ["PD"]), cell("CA", ["PD"])],
            ],
        )

    def test_onpj_coalesces_key_only(self):
        out = outer_natural_primary_join(self.p1, self.p2, [("ONAME", "ONAME")])
        assert out.attributes == ("ONAME", "INDUSTRY", "INDUSTRY" + RHS_SUFFIX, "HQ")
        ibm = [t for t in out if t.data[0] == "IBM"][0]
        assert ibm[0].origins == sources("AD", "PD")

    def test_ontj_coalesces_all_shared(self):
        out = outer_natural_total_join(self.p1, self.p2, [("ONAME", "ONAME")])
        assert out.attributes == ("ONAME", "INDUSTRY", "HQ")
        ibm = [t for t in out if t.data[0] == "IBM"][0]
        assert ibm[1].origins == sources("AD", "PD")
        assert ibm[1].intermediates == sources("AD", "PD")

    def test_ontj_left_only_row_keeps_nil_padding(self):
        out = outer_natural_total_join(self.p1, self.p2, [("ONAME", "ONAME")])
        mit = [t for t in out if t.data[0] == "MIT"][0]
        assert mit.data == ("MIT", "Education", None)
        assert mit[2].intermediates == sources("AD")

    def test_ontj_differently_named_pair_via_extra_pairs(self):
        left = rel(["BNAME", "IND"], [[cell("IBM", ["AD"]), cell("High Tech", ["AD"])]])
        right = rel(["CNAME", "TRADE"], [[cell("IBM", ["PD"]), cell("High Tech", ["PD"])]])
        out = outer_natural_total_join(
            left,
            right,
            key_pairs=[("BNAME", "CNAME")],
            output_names=["ONAME"],
            extra_pairs=[("IND", "TRADE", "INDUSTRY")],
        )
        assert out.attributes == ("ONAME", "INDUSTRY")
        row = out.tuples[0]
        assert row[0].origins == sources("AD", "PD")
        assert row[1].origins == sources("AD", "PD")

    def test_onpj_output_names_must_align(self):
        with pytest.raises(InvalidOperandError):
            outer_natural_primary_join(
                self.p1, self.p2, [("ONAME", "ONAME")], output_names=["A", "B"]
            )


class TestMerge:
    def build(self, name, rows, source):
        return PolygenRelation.from_data(["K", name], rows, origins=[source])

    def test_merge_requires_an_operand(self):
        with pytest.raises(InvalidOperandError):
            merge([], ["K"])

    def test_merge_single_relation_is_identity(self):
        r = self.build("V", [["k1", 1]], "AD")
        assert merge([r], ["K"]) == r

    def test_merge_requires_key_everywhere(self):
        a = self.build("V", [["k1", 1]], "AD")
        b = PolygenRelation.from_data(["J", "V"], [["k1", 1]], origins=["PD"])
        with pytest.raises(Exception):
            merge([a, b], ["K"])

    def test_three_way_merge_unions_coverage(self):
        a = PolygenRelation.from_data(["K", "X"], [["k1", "x1"]], origins=["AD"])
        b = PolygenRelation.from_data(["K", "Y"], [["k1", "y1"], ["k2", "y2"]], origins=["PD"])
        c = PolygenRelation.from_data(["K", "Z"], [["k3", "z3"]], origins=["CD"])
        out = merge([a, b, c], ["K"])
        assert out.attributes == ("K", "X", "Y", "Z")
        assert {t.data[0] for t in out} == {"k1", "k2", "k3"}
        k1 = [t for t in out if t.data[0] == "k1"][0]
        assert k1[0].origins == sources("AD", "PD")
        assert k1.data == ("k1", "x1", "y1", None)

    def test_merge_order_is_immaterial(self):
        # Paper §II: "the order in which Outer Natural Total Join are
        # performed over a set of polygen relations in a Merge is immaterial."
        a = PolygenRelation.from_data(["K", "X"], [["k1", "x"], ["k2", "x"]], origins=["AD"])
        b = PolygenRelation.from_data(["K", "X"], [["k1", "x"], ["k3", "q"]], origins=["PD"])
        c = PolygenRelation.from_data(["K", "X"], [["k3", "q"]], origins=["CD"])
        import itertools

        results = []
        for perm in itertools.permutations([a, b, c]):
            out = merge(perm, ["K"])
            # Normalize column order for comparison (heading order follows
            # the fold order for non-shared attributes; here all are shared).
            results.append({(t.data, t.cells) for t in out})
        assert all(r == results[0] for r in results)

    def test_merge_conflict_policy_threads_through(self):
        a = PolygenRelation.from_data(["K", "X"], [["k1", "a"]], origins=["AD"])
        b = PolygenRelation.from_data(["K", "X"], [["k1", "b"]], origins=["PD"])
        dropped = merge([a, b], ["K"])
        assert dropped.cardinality == 0
        kept = merge([a, b], ["K"], policy=ConflictPolicy.PREFER_LEFT)
        assert kept.tuples[0].data == ("k1", "a")
