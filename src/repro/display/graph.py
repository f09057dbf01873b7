"""Provenance and plan graphs.

Two graph views over a query run, built on the in-house
:mod:`repro.display.graphlib` containers (no third-party graph library):

- the **plan DAG** — IOM rows as nodes, dataflow as edges; useful for
  visualizing which databases feed which operations (the executable form
  of this structure is :class:`~repro.pqp.plandag.PlanDAG`, which the
  concurrent runtime consumes);
- the **source graph** — a bipartite graph connecting result attributes to
  the local databases that originate or mediate them, summarizing "who
  contributed what" for a whole answer (the federation-scale view of the
  paper's §IV observations).

Both render to Graphviz DOT text so they can be displayed outside Python.
"""

from __future__ import annotations

from repro.core.relation import PolygenRelation
from repro.display.graphlib import DiGraph, Graph
from repro.pqp.matrix import IntermediateOperationMatrix

__all__ = ["plan_graph", "source_graph", "to_dot"]


def plan_graph(iom: IntermediateOperationMatrix) -> DiGraph:
    """The dataflow DAG of a plan.

    Node attributes: ``label`` (e.g. ``"R(7) Merge"``, or for a SelectIn
    its producers too: ``"R(2) SelectIn ORG.NAME ∈ R(1).EMPLOYER @ D00"``),
    ``location`` (the EL), ``local`` (bool).
    """
    graph = DiGraph()
    for row in iom:
        label = f"{row.result} {row.describe()}"
        if row.is_local:
            label += f" @ {row.el}"
        graph.add_node(
            row.result.index,
            label=label,
            location=row.el or "PQP",
            local=row.is_local,
        )
        for ref in row.referenced_results():
            graph.add_edge(ref.index, row.result.index)
    return graph


def source_graph(relation: PolygenRelation) -> Graph:
    """The attribute ↔ database contribution graph of a tagged relation.

    Edges carry ``role`` (``"origin"`` or ``"intermediate"``) and
    ``weight`` (how many cells exhibit that role).  An attribute node and a
    database node are linked when any cell of that column names the
    database in the corresponding tag set.
    """
    graph = Graph()
    for attribute in relation.attributes:
        graph.add_node(("attribute", attribute), kind="attribute", name=attribute)
    counts: dict = {}
    for row in relation:
        for attribute, cell in zip(relation.attributes, row):
            for database in cell.origins:
                counts[(attribute, database, "origin")] = (
                    counts.get((attribute, database, "origin"), 0) + 1
                )
            for database in cell.intermediates:
                counts[(attribute, database, "intermediate")] = (
                    counts.get((attribute, database, "intermediate"), 0) + 1
                )
    for (attribute, database, role), weight in counts.items():
        graph.add_node(("database", database), kind="database", name=database)
        key = (("attribute", attribute), ("database", database))
        if graph.has_edge(*key):
            existing = graph.edges[key]
            if role == "origin":
                existing["role"] = "origin"  # origin dominates for display
            existing["weight"] = existing.get("weight", 0) + weight
        else:
            graph.add_edge(*key, role=role, weight=weight)
    return graph


def to_dot(graph: Graph | DiGraph) -> str:
    """Minimal Graphviz DOT rendering (no external dependencies).

    Directed graphs become ``digraph``; node labels come from the ``label``
    or ``name`` attribute; dashed edges mark intermediate-source links.
    """
    directed = isinstance(graph, DiGraph)
    arrow = "->" if directed else "--"
    lines = ["digraph plan {" if directed else "graph sources {"]

    def node_id(node) -> str:
        return '"' + str(node).replace('"', "'") + '"'

    for node, attributes in graph.nodes(data=True):
        label = attributes.get("label") or attributes.get("name") or str(node)
        shape = "box" if attributes.get("kind") == "database" or attributes.get("local") else "ellipse"
        lines.append(f'  {node_id(node)} [label="{label}", shape={shape}];')
    for left, right, attributes in graph.edges(data=True):
        style = ' [style=dashed]' if attributes.get("role") == "intermediate" else ""
        lines.append(f"  {node_id(left)} {arrow} {node_id(right)}{style};")
    lines.append("}")
    return "\n".join(lines)
