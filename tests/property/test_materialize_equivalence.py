"""Differential oracle for ``lqp.tagging.materialize``.

The paper's four steps (§III; the ``tagging`` module docstring) written
literally, one intermediate relation and one ``Cell`` at a time — project
the mapped columns, transform and resolve every cell, rename, tag each
cell ``c(o) = {LD}``/``{}`` for nils with ``c(i) = consulted`` — against
the one-pass column implementation.  Equal means equal data *and* tags,
tuple for tuple in first-occurrence order: a missing final dedup or a nil
tagged with its database both show.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog.mapping import AttributeMapping
from repro.catalog.scheme import PolygenScheme
from repro.core.cell import Cell
from repro.core.relation import PolygenRelation
from repro.errors import HeadingError
from repro.integration.domains import default_registry
from repro.integration.identity import IdentityResolver
from repro.lqp.tagging import materialize
from repro.relational.relation import Relation
from repro.storage.tag_pool import TagPool

DATABASE = "CD"
LOCAL_RELATION = "FIRM"

#: local column → (polygen attribute, transform).  HQ collapses under its
#: transform ("Cambridge, MA" and "Boston, MA" both become "MA"); NOTE is
#: shipped but mapped by no polygen attribute.
MAPPED = {
    "FNAME": ("ONAME", None),
    "CEO": ("CEO", None),
    "HQ": ("HEADQUARTERS", "city_state_to_state"),
    "SIZE": ("EMPLOYEES", None),
}
LOCAL_COLUMNS = tuple(MAPPED) + ("NOTE",)

#: No two values here are ``==`` yet distinct (``1``/``True``/``1.0``):
#: which of such a pair survives a set collapse depends on where the
#: collapse happens — see ``test_equal_but_distinct_values`` below.
VALUES = (
    None,
    "Cambridge, MA",
    "Boston, MA",
    "MA",
    "NY, NY",
    "CitiCorp",
    "Citicorp",
    "IBM",
    1,
    2.5,
    False,
)


def _scheme(transformed: bool) -> PolygenScheme:
    return PolygenScheme(
        "PORGANIZATION",
        {
            polygen: [
                AttributeMapping(
                    DATABASE,
                    LOCAL_RELATION,
                    local,
                    transform=transform if transformed else None,
                )
            ]
            for local, (polygen, transform) in MAPPED.items()
        },
        primary_key=["ONAME"],
    )


RESOLVERS = {
    "none": None,
    "identity": IdentityResolver.identity(),
    "synonyms": IdentityResolver(
        {"Citicorp": ["CitiCorp"], "MA": ["Cambridge, MA"], 2.5: [1]}
    ),
}


@st.composite
def shipped_relations(draw):
    heading = draw(
        st.lists(st.sampled_from(LOCAL_COLUMNS), min_size=1, unique=True)
    )
    rows = draw(
        st.lists(
            st.tuples(*(st.sampled_from(VALUES) for _ in heading)), max_size=8
        )
    )
    # Duplicate rows on purpose: the constructors must collapse them the
    # same way on both sides.
    rows += draw(st.lists(st.sampled_from(rows), max_size=3)) if rows else []
    by_columns = draw(st.booleans())
    if by_columns:
        return Relation.from_columns(
            heading, [[row[i] for row in rows] for i in range(len(heading))]
        )
    return Relation(heading, rows)


def four_steps(relation, scheme, resolver, attributes, consulted):
    """The reference: today's composition, step by literal step."""
    rename_map = scheme.rename_map(DATABASE, LOCAL_RELATION)
    if attributes is not None:
        rename_map = {
            local: polygen
            for local, polygen in rename_map.items()
            if polygen in set(attributes)
        }
        if not rename_map:
            raise ValueError("projection keeps no attribute")
    # 3a. projection onto the mapped columns (set semantics).
    mapped = [name for name in relation.attributes if name in rename_map]
    positions = [relation.heading.index(name) for name in mapped]
    projected = Relation(
        mapped, [tuple(row[p] for p in positions) for row in relation.rows]
    )
    # 1 + 2. domain mapping, then identity resolution, cell by cell.
    registry = default_registry()
    transforms = {
        local: registry.get(name)
        for local, name in scheme.transform_map(DATABASE, LOCAL_RELATION).items()
    }
    resolver = resolver or IdentityResolver.identity()

    def convert(local, value):
        if local in transforms:
            value = transforms[local](value)
        return resolver.resolve(value)

    converted = Relation(
        mapped, [tuple(map(convert, mapped, row)) for row in projected.rows]
    )
    # 3b. local → polygen names.
    renamed = Relation([rename_map[name] for name in mapped], converted.rows)
    # 4. tag every cell: c(o) = {LD}, nils get no origin; c(i) = consulted.
    return PolygenRelation.from_cells(
        renamed.heading,
        [
            [
                Cell(
                    value,
                    frozenset() if value is None else frozenset([DATABASE]),
                    frozenset(consulted),
                )
                for value in row
            ]
            for row in renamed.rows
        ],
    )


@settings(max_examples=300, deadline=None)
@given(
    relation=shipped_relations(),
    transformed=st.booleans(),
    resolver=st.sampled_from(sorted(RESOLVERS)),
    attributes=st.one_of(
        st.none(),
        st.lists(
            st.sampled_from([polygen for polygen, _ in MAPPED.values()] + ["ABSENT"]),
            unique=True,
        ),
    ),
    consulted=st.lists(st.sampled_from(["AD", "PD"]), unique=True),
    own_pool=st.booleans(),
)
def test_materialize_equals_the_four_literal_steps(
    relation, transformed, resolver, attributes, consulted, own_pool
):
    scheme = _scheme(transformed)
    resolver = RESOLVERS[resolver]
    pool = TagPool() if own_pool else None

    def run():
        return materialize(
            relation,
            DATABASE,
            scheme,
            resolver=resolver,
            relation_name=LOCAL_RELATION,
            attributes=attributes,
            consulted=consulted,
            tag_pool=pool,
        )

    try:
        expected = four_steps(relation, scheme, resolver, attributes, consulted)
    except (ValueError, HeadingError) as refusal:
        # A projection that keeps nothing (ValueError), or a shipped
        # relation none of whose columns is mapped (no heading to form).
        with pytest.raises(type(refusal)):
            run()
        return
    actual = run()
    assert actual == expected
    # ``==`` is set equality over (data, tag) rows; the tuple views also pin
    # first-occurrence order and that no duplicate row survived.
    assert actual.tuples == expected.tuples
    assert actual.cardinality == expected.cardinality
    if own_pool:
        assert actual.store.pool is pool


def test_projection_that_keeps_nothing_is_refused():
    relation = Relation(["FNAME"], [("IBM",)])
    with pytest.raises(ValueError, match="keeps no attribute"):
        materialize(
            relation,
            DATABASE,
            _scheme(True),
            relation_name=LOCAL_RELATION,
            attributes=["ABSENT"],
        )


def test_equal_but_distinct_values_are_mapped_before_they_can_collapse():
    """``1 == True`` but ``str(1) != str(True)``.  The steps run in the
    module docstring's order — map, then project — so dropping NOTE cannot
    merge the two HQ values before the transform has told them apart; that
    is also what materializing every column and projecting at the PQP
    gives, so projection pruning stays invisible.  (The old row pipeline
    projected first and kept only ``"1"``.)"""
    relation = Relation(["HQ", "NOTE"], [(1, "a"), (True, "b")])
    out = materialize(relation, DATABASE, _scheme(True), relation_name=LOCAL_RELATION)
    assert out.data_rows() == (("1",), ("True",))
    pruned = materialize(
        Relation(["HQ", "FNAME"], [(1, "a"), (True, "b")]),
        DATABASE,
        _scheme(True),
        relation_name=LOCAL_RELATION,
        attributes=["HEADQUARTERS"],
    )
    assert pruned == out


@pytest.mark.parametrize("engine", ["serial", "concurrent"])
def test_projection_pruning_is_invisible_in_process(engine):
    """The same corner end to end: an in-process engine has no native
    projection, so a pruned plan ships whole tuples and materialization
    narrows them after the transform — ``1`` and ``True`` stay the two
    HEADQUARTERS values ``"1"`` and ``"True"`` with pruning on or off."""
    from repro.catalog.schema import PolygenSchema
    from repro.lqp.registry import LQPRegistry
    from repro.lqp.relational_lqp import RelationalLQP
    from repro.relational.database import LocalDatabase
    from repro.relational.schema import RelationSchema
    from repro.service.federation import PolygenFederation

    database = LocalDatabase(DATABASE)
    database.load(
        RelationSchema(LOCAL_RELATION, list(LOCAL_COLUMNS), key=["FNAME"]),
        [("IBM", "Ackers", 1, 10, "a"), ("Apple", "Sculley", True, 20, "b")],
    )
    registry = LQPRegistry()
    registry.register(RelationalLQP(database))
    with PolygenFederation(PolygenSchema([_scheme(True)]), registry) as federation:
        with federation.session(engine=engine) as session:
            pruned, whole = (
                session.execute("PORGANIZATION [HEADQUARTERS]", prune_projections=flag)
                for flag in (True, False)
            )
    assert pruned.optimization.attributes_pruned  # the pruned plan really differs
    assert sorted(whole.relation.data_rows()) == [("1",), ("True",)]
    assert pruned.relation == whole.relation
    assert pruned.relation.tuples == whole.relation.tuples
