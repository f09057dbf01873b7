"""Provenance explanation over query results.

Implements the paper's §IV observations programmatically:

1. which databases a value originated from, and which served only as
   intermediate sources (observations (1) and (2)),
2. the reverse mapping from a tagged cell to the concrete local columns it
   could have come from (observation (3): "Genentech is from the BNAME
   column, BUSINESS relation in the Alumni Database and from the FNAME
   column, FIRM relation in the Company Database").

The executor's attribute lineage (which polygen schemes an attribute flowed
through) scopes the reverse mapping, so ONAME in a PORGANIZATION-derived
result is explained against PORGANIZATION's mappings, not every scheme that
happens to define an ONAME.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.catalog.reverse import local_columns_for
from repro.catalog.schema import PolygenSchema
from repro.core.cell import Cell
from repro.core.relation import PolygenRelation
from repro.pqp.result import QueryResult

__all__ = [
    "explain_cell",
    "explain_tuple",
    "explain_result",
    "source_summary",
]


def explain_cell(
    schema: PolygenSchema,
    schemes: Iterable[str],
    attribute: str,
    cell: Cell,
) -> str:
    """One cell's provenance sentence, scoped to candidate schemes."""
    columns = []
    for scheme_name in schemes:
        scheme = schema.scheme(scheme_name)
        if attribute in scheme:
            columns.extend(local_columns_for(schema, scheme_name, attribute, cell.origins))
    if cell.is_nil:
        origin_text = "is nil (no contributing source)"
    elif columns:
        origin_text = "originates from " + ", ".join(
            str(column) for column in dict.fromkeys(columns)
        )
    elif cell.origins:
        origin_text = "originates from " + ", ".join(sorted(cell.origins))
    else:
        origin_text = "has no recorded origin"
    mediators = ", ".join(sorted(cell.intermediates)) if cell.intermediates else "none"
    subject = "nil" if cell.is_nil else repr(cell.datum)
    return f"{attribute} = {subject} {origin_text}; intermediate sources: {mediators}"


def explain_tuple(result: QueryResult, schema: PolygenSchema, index: int) -> List[str]:
    """Provenance sentences for every cell of one result tuple."""
    relation = result.relation
    row = relation.tuples[index]
    sentences = []
    for attribute, cell in zip(relation.attributes, row):
        schemes = sorted(result.lineage.get(attribute, frozenset()))
        sentences.append(explain_cell(schema, schemes, attribute, cell))
    return sentences


def explain_result(result: QueryResult, schema: PolygenSchema) -> str:
    """A full §IV-style provenance narrative for a query result."""
    lines: List[str] = []
    relation = result.relation.sorted_by_data()
    for position, row in enumerate(relation.tuples):
        values = ", ".join("nil" if v is None else str(v) for v in row.data)
        lines.append(f"Tuple {position + 1}: ({values})")
        for attribute, cell in zip(relation.attributes, row):
            schemes = sorted(result.lineage.get(attribute, frozenset()))
            lines.append("  " + explain_cell(schema, schemes, attribute, cell))
    lines.append("")
    lines.append(source_summary(result.relation))
    return "\n".join(lines)


def source_summary(relation: PolygenRelation) -> str:
    """Relation-level summary: who contributed data, who mediated.

    In a federation with hundreds of databases this is the "cost-effective,
    customized, and credible composite information" headline: which sources
    the answer actually depends on.
    """
    origins = relation.all_origins()
    intermediates = relation.all_intermediates()
    mediators_only = intermediates - origins
    parts = [
        "Originating databases: " + (", ".join(sorted(origins)) if origins else "none"),
        "Intermediate databases: "
        + (", ".join(sorted(intermediates)) if intermediates else "none"),
    ]
    if mediators_only:
        parts.append(
            "Purely mediating (no data in the answer): " + ", ".join(sorted(mediators_only))
        )
    return "\n".join(parts)
