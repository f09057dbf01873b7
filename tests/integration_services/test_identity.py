"""Unit tests for instance identity resolution."""

import pytest

from repro.errors import IntegrationError
from repro.integration.identity import IdentityResolver


class TestIdentityResolver:
    def test_resolves_variants_to_canonical(self):
        resolver = IdentityResolver({"Citicorp": ["CitiCorp", "CITICORP"]})
        assert resolver.resolve("CitiCorp") == "Citicorp"
        assert resolver.resolve("CITICORP") == "Citicorp"

    def test_canonical_resolves_to_itself(self):
        resolver = IdentityResolver({"Citicorp": ["CitiCorp"]})
        assert resolver.resolve("Citicorp") == "Citicorp"

    def test_unregistered_pass_through(self):
        resolver = IdentityResolver()
        assert resolver.resolve("IBM") == "IBM"
        assert resolver.resolve(42) == 42
        assert resolver.resolve(None) is None

    def test_resolve_all_is_resolve_per_value(self):
        resolver = IdentityResolver({"Citicorp": ["CitiCorp"], 1: [True]})
        values = ("CitiCorp", "Citicorp", "IBM", None, True, 1.0, 2)
        resolved = list(resolver.resolve_all(values))
        assert resolved == [resolver.resolve(value) for value in values]
        assert [type(value) for value in resolved] == [str, str, str, type(None), int, int, int]

    def test_identity_constructor(self):
        assert len(IdentityResolver.identity()) == 0

    def test_is_registered(self):
        resolver = IdentityResolver({"IBM": ["I.B.M."]})
        assert resolver.is_registered("I.B.M.")
        assert resolver.is_registered("IBM")
        assert not resolver.is_registered("DEC")

    def test_conflicting_group_rejected(self):
        resolver = IdentityResolver({"IBM": ["I.B.M."]})
        with pytest.raises(IntegrationError):
            resolver.add_group("International Business Machines", ["I.B.M."])

    def test_re_adding_same_mapping_is_fine(self):
        resolver = IdentityResolver({"IBM": ["I.B.M."]})
        resolver.add_group("IBM", ["I.B.M.", "ibm"])
        assert resolver.resolve("ibm") == "IBM"

    def test_groups_listing(self):
        resolver = IdentityResolver({"IBM": ["I.B.M."], "Citicorp": ["CitiCorp"]})
        groups = dict(resolver.groups())
        assert groups["IBM"] == ("I.B.M.",)
        assert groups["Citicorp"] == ("CitiCorp",)

    def test_paper_example_non_string_ids(self):
        # "social security identification number vs employee identification
        # number" — identifiers need not be strings.
        resolver = IdentityResolver({1001: [("ssn", "078-05-1120")]})
        assert resolver.resolve(("ssn", "078-05-1120")) == 1001
