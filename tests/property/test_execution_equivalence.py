"""Executor-equivalence properties.

The concurrent runtime and the optimizer's semantic rewrites (selection
pushdown, projection pruning) must be invisible in the answer: for any
query, the relation they produce — data, headings, *and tags* — equals the
serial, unoptimized pipeline's.  Hypothesis drives randomized polygen
queries over the paper's federation (whose identity resolver and domain
transforms are exactly the hazards pushdown must respect) through four
differently-configured processors and asserts tag-identical results.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datasets.paper import (
    paper_databases,
    paper_identity_resolver,
    paper_polygen_schema,
)
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.pqp.processor import PolygenQueryProcessor

#: Values seen in (or near-missing from) the paper's data, per probed
#: attribute.  "CitiCorp"/"Citicorp" exercise the identity-resolver
#: aliasing; "Atlantis" never matches.
_SELECTABLE = {
    "PALUMNUS": {
        "DEGREE": ("MBA", "BS", "MS", "Atlantis"),
        "MAJOR": ("IS", "MGT", "EECS"),
        "ANAME": ("John Reed", "Ken Olsen"),
    },
    "PCAREER": {
        "POSITION": ("CEO", "Manager", "Professor"),
        "ONAME": ("Citicorp", "CitiCorp", "MIT", "Genentech"),
    },
    "PORGANIZATION": {
        "INDUSTRY": ("High Tech", "Banking", "Hotel", "Atlantis"),
        "ONAME": ("Citicorp", "CitiCorp", "IBM", "Genentech"),
        "CEO": ("John Reed", "Bob Swanson"),
        "HEADQUARTERS": ("NY", "CA", "MA"),
    },
    "PSTUDENT": {
        "MAJOR": ("Finance", "Math", "EECS"),
        "SNAME": ("John Smith",),
    },
    "PINTERVIEW": {
        "ONAME": ("IBM", "Oracle", "Citicorp"),
        "JOB": ("CFO", "System Analyst"),
    },
    "PFINANCE": {
        "YEAR": (),  # numeric; selected via ONAME instead
        "ONAME": ("IBM", "CitiCorp", "Oracle"),
    },
}

#: (left scheme, join attribute pair, right scheme) shapes from the paper.
_JOINS = (
    ("PALUMNUS", "AID#", "AID#", "PCAREER"),
    ("PCAREER", "ONAME", "ONAME", "PORGANIZATION"),
    ("PINTERVIEW", "ONAME", "ONAME", "PORGANIZATION"),
    ("PFINANCE", "ONAME", "ONAME", "PORGANIZATION"),
)


def _schema_attrs(scheme: str):
    return paper_polygen_schema().scheme(scheme).attributes


def _post_select_attrs(scheme_name: str, attribute: str):
    """The heading a Select on ``attribute`` materializes: only relations
    mapping the probed attribute are retrieved (interpreter, Figure 3)."""
    scheme = paper_polygen_schema().scheme(scheme_name)
    locations = scheme.relations_for(attribute)
    attrs = []
    for candidate in scheme.attributes:
        mapped = {
            polygen
            for location in locations
            for polygen in scheme.rename_map(*location).values()
        }
        if candidate in mapped:
            attrs.append(candidate)
    return tuple(attrs)


@st.composite
def queries(draw) -> str:
    """A random polygen algebra query string."""
    shape = draw(st.sampled_from(("select", "select_project", "join", "join_select")))
    if shape in ("select", "select_project"):
        scheme = draw(st.sampled_from(sorted(_SELECTABLE)))
        pool = {a: vs for a, vs in _SELECTABLE[scheme].items() if vs}
        attribute = draw(st.sampled_from(sorted(pool)))
        value = draw(st.sampled_from(pool[attribute]))
        text = f'({scheme} [{attribute} = "{value}"])'
        if shape == "select_project":
            attrs = list(_post_select_attrs(scheme, attribute))
            keep = draw(
                st.lists(st.sampled_from(attrs), min_size=1, unique=True)
            )
            text = f"({text} [{', '.join(keep)}])"
        return text
    left, lha, rha, right = draw(st.sampled_from(_JOINS))
    text = f"({left} [{lha} = {rha}] {right})"
    if shape == "join_select":
        pool = {a: vs for a, vs in _SELECTABLE[left].items() if vs}
        attribute = draw(st.sampled_from(sorted(pool)))
        value = draw(st.sampled_from(pool[attribute]))
        text = f'(({left} [{attribute} = "{value}"]) [{lha} = {rha}] {right})'
    combined = list(_schema_attrs(left)) + [
        a for a in _schema_attrs(right) if a != rha
    ]
    keep = draw(st.lists(st.sampled_from(combined), min_size=1, unique=True))
    return f"({text} [{', '.join(keep)}])"


def _processor(**kwargs) -> PolygenQueryProcessor:
    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    return PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=registry,
        resolver=paper_identity_resolver(),
        **kwargs,
    )


@pytest.fixture(scope="module")
def engines():
    return {
        "baseline": _processor(optimize=False),
        "optimized": _processor(pushdown=True, prune_projections=True),
        "concurrent": _processor(concurrent=True, optimize=False),
        "concurrent_optimized": _processor(
            concurrent=True, pushdown=True, prune_projections=True
        ),
    }


_VARIANTS = (
    "optimized",
    "concurrent",
    "concurrent_optimized",
)


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(query=queries())
def test_all_engines_agree(engines, query):
    baseline = engines["baseline"].run_algebra(query)
    for name in _VARIANTS:
        other = engines[name].run_algebra(query)
        assert other.relation == baseline.relation, (
            f"{name} diverged from serial/unoptimized on {query!r}"
        )
        assert other.lineage == baseline.lineage


def test_paper_query_agrees_across_engines(engines):
    from tests.integration.conftest import PAPER_SQL

    baseline = engines["baseline"].run_sql(PAPER_SQL)
    for name in _VARIANTS:
        other = engines[name].run_sql(PAPER_SQL)
        assert other.relation == baseline.relation
