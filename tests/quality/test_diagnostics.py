"""Unit tests for cross-database referential integrity diagnostics."""

from repro.core.relation import PolygenRelation
from repro.datasets.paper import build_paper_federation
from repro.quality.diagnostics import dangling_references


class TestDanglingReferences:
    def test_consistent_reference(self):
        referencing = PolygenRelation.from_data(
            ["EMPLOYER"], [["IBM"], ["DEC"]], origins=["AD"]
        )
        referenced = PolygenRelation.from_data(
            ["NAME"], [["IBM"], ["DEC"], ["Ford"]], origins=["CD"]
        )
        report = dangling_references(referencing, "EMPLOYER", referenced, "NAME")
        assert report.is_consistent
        assert report.total_values == 2
        assert "consistent" in report.render()

    def test_dangling_values_report_their_sources(self):
        referencing = PolygenRelation.from_data(
            ["PID", "EMPLOYER"],
            [["p1", "IBM"], ["p2", "Ghost Corp"], ["p3", "Ghost Corp"]],
            origins=["AD"],
        )
        referenced = PolygenRelation.from_data(["NAME"], [["IBM"]], origins=["CD"])
        report = dangling_references(referencing, "EMPLOYER", referenced, "NAME")
        assert not report.is_consistent
        assert report.dangling_count == 1
        entry = report.dangling[0]
        assert entry.value == "Ghost Corp"
        assert entry.origins == frozenset({"AD"})
        assert entry.occurrences == 2
        assert "Ghost Corp" in report.render()

    def test_nil_values_are_skipped(self):
        referencing = PolygenRelation.from_data(["EMPLOYER"], [[None]], origins=["AD"])
        referenced = PolygenRelation.from_data(["NAME"], [["IBM"]], origins=["CD"])
        report = dangling_references(referencing, "EMPLOYER", referenced, "NAME")
        assert report.is_consistent
        assert report.total_values == 0

    def test_paper_federation_career_vs_firm(self):
        # The paper's own data exhibits the cardinality inconsistency:
        # CAREER references MIT and BP, which FIRM (CD) does not list.
        pqp = build_paper_federation()
        career = pqp.run_algebra("PCAREER [ONAME, POSITION]").relation
        firm = pqp.run_algebra("PFINANCE [ONAME, YEAR]").relation
        report = dangling_references(career, "ONAME", firm, "ONAME")
        dangling_names = {entry.value for entry in report.dangling}
        assert dangling_names == {"MIT", "BP"}
        for entry in report.dangling:
            assert entry.origins == frozenset({"AD"})

    def test_paper_federation_career_vs_merged_organization(self):
        # Against the merged PORGANIZATION every CAREER reference resolves —
        # the Alumni Database's BUSINESS relation covers its own CAREER.
        pqp = build_paper_federation()
        career = pqp.run_algebra("PCAREER [ONAME, POSITION]").relation
        organizations = pqp.run_algebra("PORGANIZATION [ONAME, INDUSTRY]").relation
        report = dangling_references(career, "ONAME", organizations, "ONAME")
        assert report.is_consistent
