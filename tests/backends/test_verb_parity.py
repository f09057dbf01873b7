"""The raw LQP verbs of every backend against :class:`RelationalLQP`.

"To the PQP, each LQP behaves as a local relational system" (paper, §I):
a SQLite, log or key-value engine answers every verb as the in-memory
engine does on the awkward inputs.  The federation-level half of the
backends' contract is the configuration lattice
(``tests/lattice/test_lattice.py``).
"""

import pytest

from repro.backends import KVStoreLQP, LogStoreLQP, SqliteLQP
from repro.core.predicate import Theta
from repro.errors import IncomparableTypesError
from repro.lqp.relational_lqp import RelationalLQP

#: The order-comparing θs: the ones that can raise on mixed types.
ORDERINGS = [Theta.LT, Theta.LE, Theta.GT, Theta.GE]


class TestDirectVerbParity:
    """The raw LQP verbs agree with RelationalLQP on the awkward inputs:
    nil keys in predicates, ordered key and nullable-column selects,
    incomparable literals, empty relations."""

    @pytest.fixture(scope="class")
    def trio(self, tmp_path_factory):
        from repro.relational.database import LocalDatabase
        from repro.relational.schema import RelationSchema

        db = LocalDatabase("ED")
        db.load(
            RelationSchema("R", ["K", "V"], key=["K"]),
            [(1, "a"), (2, None), (3, "c"), (4, "d")],
        )
        db.create(RelationSchema("EMPTY", ["K", "V"], key=["K"]))
        tmp = tmp_path_factory.mktemp("verb-parity")
        backends = {
            "sqlite": SqliteLQP.from_database(db),
            "log": LogStoreLQP.from_database(db, str(tmp / "log")),
            "kv": KVStoreLQP.from_database(db),
        }
        yield RelationalLQP(db), backends
        for backend in backends.values():
            close = getattr(backend, "close", None)
            if close is not None:
                close()

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    def test_select_against_nil_value_matches(self, trio, kind):
        reference, backends = trio
        for theta in (Theta.EQ, Theta.NE, Theta.LT, Theta.GE):
            expected = reference.select("R", "V", theta, None)
            assert backends[kind].select("R", "V", theta, None) == expected

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    def test_nil_cells_never_satisfy_predicates(self, trio, kind):
        reference, backends = trio
        expected = reference.select("R", "V", Theta.NE, "a")
        got = backends[kind].select("R", "V", Theta.NE, "a")
        assert got == expected
        assert all(row[1] is not None for row in got.rows)

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    @pytest.mark.parametrize("theta", list(Theta), ids=lambda theta: theta.name)
    def test_select_on_the_key_matches(self, trio, kind, theta):
        # A key interval is a pair of ordered selects: every bound, inside,
        # between and outside the stored keys, across int and float.
        reference, backends = trio
        for value in (0, 1, 2, 2.5, 4, 4.0, 10, -1.5):
            expected = reference.select("R", "K", theta, value)
            assert backends[kind].select("R", "K", theta, value) == expected

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    @pytest.mark.parametrize("theta", ORDERINGS, ids=lambda theta: theta.name)
    def test_ordered_select_on_a_nullable_column_matches(self, trio, kind, theta):
        reference, backends = trio
        for value in ("", "a", "b", "c", "d", "z"):
            expected = reference.select("R", "V", theta, value)
            got = backends[kind].select("R", "V", theta, value)
            assert got == expected
            assert all(row[1] is not None for row in got.rows)

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    @pytest.mark.parametrize("theta", ORDERINGS, ids=lambda theta: theta.name)
    def test_ordering_against_an_incomparable_literal_raises(self, trio, kind, theta):
        # Python's rule, not SQLite's type affinity: int keys do not order
        # against text, so no engine may answer with a guess.
        reference, backends = trio
        with pytest.raises(IncomparableTypesError):
            reference.select("R", "K", theta, "x")
        with pytest.raises(IncomparableTypesError):
            backends[kind].select("R", "K", theta, "x")

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    @pytest.mark.parametrize("theta", [Theta.EQ, Theta.NE], ids=["EQ", "NE"])
    def test_equality_against_an_incomparable_literal_matches(
        self, trio, kind, theta
    ):
        reference, backends = trio
        for value in ("x", "1", 1.5):
            expected = reference.select("R", "K", theta, value)
            assert backends[kind].select("R", "K", theta, value) == expected

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    def test_split_point_selects_partition_the_relation(self, trio, kind):
        # Below and at-or-above a split point, plus the nil cells no
        # predicate selects, is the whole relation exactly once.
        reference, backends = trio
        backend = backends[kind]
        whole = sorted(reference.retrieve("R").rows, key=repr)
        for pivot in ("", "a", "b", "c", "zz"):
            low = backend.select("R", "V", Theta.LT, pivot).rows
            high = backend.select("R", "V", Theta.GE, pivot).rows
            nils = [row for row in backend.retrieve("R").rows if row[1] is None]
            assert sorted(low + high + tuple(nils), key=repr) == whole

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    def test_empty_relation_round_trips(self, trio, kind):
        reference, backends = trio
        assert backends[kind].retrieve("EMPTY") == reference.retrieve("EMPTY")
        assert (
            backends[kind].select("EMPTY", "V", Theta.EQ, "x")
            == reference.select("EMPTY", "V", Theta.EQ, "x")
        )

    @pytest.mark.parametrize("kind", ["sqlite", "log", "kv"])
    def test_projection_matches(self, trio, kind):
        # ``columns=`` is part of the verb contract only for engines
        # advertising native projection; the PQP projects for the rest.
        from repro.lqp.base import project_columns

        reference, backends = trio
        backend = backends[kind]
        expected = project_columns(reference.retrieve("R"), ["V"])
        if backend.capabilities().native_projection:
            assert backend.retrieve("R", columns=["V"]) == expected
        else:
            assert project_columns(backend.retrieve("R"), ["V"]) == expected
