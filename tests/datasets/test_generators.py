"""Unit tests for the synthetic federation generators."""

import pytest

from repro.datasets.generators import FederationSpec, generate_federation


class TestSpecValidation:
    def test_rejects_zero_databases(self):
        with pytest.raises(ValueError):
            FederationSpec(databases=0)

    def test_rejects_bad_coverage(self):
        with pytest.raises(ValueError):
            FederationSpec(coverage=0.0)
        with pytest.raises(ValueError):
            FederationSpec(coverage=1.5)

    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            FederationSpec(organizations=0)


class TestGeneration:
    SPEC = FederationSpec(databases=4, organizations=50, coverage=0.5, people_per_database=10, seed=7)

    def test_deterministic(self):
        a = generate_federation(self.SPEC)
        b = generate_federation(self.SPEC)
        assert a.universe == b.universe
        for name in a.databases:
            assert a.databases[name].relation("ORG") == b.databases[name].relation("ORG")
            assert a.databases[name].relation("PERSON") == b.databases[name].relation("PERSON")

    def test_seed_changes_output(self):
        a = generate_federation(self.SPEC)
        b = generate_federation(FederationSpec(databases=4, organizations=50, coverage=0.5, people_per_database=10, seed=8))
        assert any(
            a.databases[n].relation("ORG") != b.databases[n].relation("ORG")
            for n in a.databases
        )

    def test_shapes(self):
        federation = generate_federation(self.SPEC)
        assert len(federation.databases) == 4
        assert len(federation.universe) == 50
        for database in federation.databases.values():
            assert database.relation("ORG").cardinality == 25
            assert database.relation("PERSON").cardinality == 10

    def test_databases_agree_on_shared_organizations(self):
        federation = generate_federation(self.SPEC)
        facts = {}
        for database in federation.databases.values():
            for name, industry, state in database.relation("ORG"):
                if name in facts:
                    assert facts[name] == (industry, state)
                facts[name] = (industry, state)

    def test_schema_covers_all_databases(self):
        federation = generate_federation(self.SPEC)
        org = federation.schema.scheme("GORGANIZATION")
        assert len(org.mappings("NAME")) == 4
        assert org.primary_key == ("NAME",)
        assert len(federation.schema) == 5  # GORGANIZATION + 4 person schemes

    def test_registry_and_processor_work(self):
        federation = generate_federation(self.SPEC)
        pqp = federation.processor()
        result = pqp.run_algebra("GORGANIZATION [NAME, INDUSTRY]")
        # The merge covers the union of all databases' samples.
        covered = set()
        for database in federation.databases.values():
            covered |= {row[0] for row in database.relation("ORG")}
        assert {row.data[0] for row in result.relation} == covered

    def test_merged_rows_carry_multi_db_tags(self):
        federation = generate_federation(self.SPEC)
        pqp = federation.processor()
        result = pqp.run_algebra("GORGANIZATION [NAME, INDUSTRY]")
        multi = [
            row for row in result.relation if len(row[0].origins) > 1
        ]
        assert multi, "with 50% coverage over 4 DBs some organizations overlap"
