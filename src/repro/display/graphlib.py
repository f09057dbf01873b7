"""Minimal in-house graph containers for the display layer.

Just enough of the classic ``DiGraph``/``Graph`` surface for the plan and
source views — node/edge attribute dicts, adjacency queries, acyclicity —
with no third-party dependency.  The PQP's own runtime uses the
purpose-built :class:`~repro.pqp.plandag.PlanDAG`; these classes serve
rendering, where nodes are heterogeneous (attributes, databases) and edges
carry display attributes.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, Iterator, List, Tuple

__all__ = ["DiGraph", "Graph"]


class _NodeView:
    """``graph.nodes[n]`` → attribute dict; ``graph.nodes(data=True)`` →
    ``(node, attrs)`` pairs."""

    def __init__(self, nodes: Dict[Hashable, Dict[str, Any]]):
        self._nodes = nodes

    def __getitem__(self, node: Hashable) -> Dict[str, Any]:
        return self._nodes[node]

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._nodes)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._nodes

    def __call__(self, data: bool = False):
        if data:
            return [(node, attrs) for node, attrs in self._nodes.items()]
        return list(self._nodes)


class _EdgeView:
    """``graph.edges[u, v]`` → attribute dict; ``graph.edges(data=True)`` →
    ``(u, v, attrs)`` triples."""

    def __init__(self, edges: Dict[Tuple[Hashable, Hashable], Dict[str, Any]], key_fn):
        self._edges = edges
        self._key = key_fn

    def __getitem__(self, pair) -> Dict[str, Any]:
        return self._edges[self._key(*pair)]

    def __contains__(self, pair) -> bool:
        return self._key(*pair) in self._edges

    def __call__(self, data: bool = False):
        if data:
            return [(u, v, attrs) for (u, v), attrs in self._edges.items()]
        return list(self._edges)


class Graph:
    """An undirected graph with node and edge attributes."""

    _DIRECTED = False

    def __init__(self) -> None:
        self._nodes: Dict[Hashable, Dict[str, Any]] = {}
        self._edges: Dict[Tuple[Hashable, Hashable], Dict[str, Any]] = {}
        self._adjacency: Dict[Hashable, List[Hashable]] = {}

    # -- construction --------------------------------------------------------

    def _edge_key(self, u: Hashable, v: Hashable) -> Tuple[Hashable, Hashable]:
        if self._DIRECTED:
            return (u, v)
        return (u, v) if (u, v) in self._edges or (v, u) not in self._edges else (v, u)

    def add_node(self, node: Hashable, **attrs: Any) -> None:
        self._nodes.setdefault(node, {}).update(attrs)
        self._adjacency.setdefault(node, [])

    def add_edge(self, u: Hashable, v: Hashable, **attrs: Any) -> None:
        self.add_node(u)
        self.add_node(v)
        key = self._edge_key(u, v)
        existing = self._edges.get(key)
        if existing is None:
            self._edges[key] = dict(attrs)
            self._adjacency[u].append(v)
            if not self._DIRECTED and u != v:
                self._adjacency[v].append(u)
        else:
            existing.update(attrs)

    # -- queries ----------------------------------------------------------------

    @property
    def nodes(self) -> _NodeView:
        return _NodeView(self._nodes)

    @property
    def edges(self) -> _EdgeView:
        return _EdgeView(self._edges, self._edge_key)

    def has_edge(self, u: Hashable, v: Hashable) -> bool:
        return self._edge_key(u, v) in self._edges

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._nodes)

    def __contains__(self, node: Hashable) -> bool:
        return node in self._nodes

    def __len__(self) -> int:
        return len(self._nodes)

    def number_of_nodes(self) -> int:
        return len(self._nodes)


class DiGraph(Graph):
    """A directed graph with predecessor/successor queries."""

    _DIRECTED = True

    def __init__(self) -> None:
        super().__init__()
        self._predecessors: Dict[Hashable, List[Hashable]] = {}

    def add_node(self, node: Hashable, **attrs: Any) -> None:
        super().add_node(node, **attrs)
        self._predecessors.setdefault(node, [])

    def add_edge(self, u: Hashable, v: Hashable, **attrs: Any) -> None:
        new = (u, v) not in self._edges
        super().add_edge(u, v, **attrs)
        if new:
            self._predecessors[v].append(u)

    def successors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._adjacency[node])

    def predecessors(self, node: Hashable) -> Iterator[Hashable]:
        return iter(self._predecessors[node])

    def out_degree(self, node: Hashable) -> int:
        return len(self._adjacency[node])

    def in_degree(self, node: Hashable) -> int:
        return len(self._predecessors[node])

    def is_dag(self) -> bool:
        """True when the graph has no directed cycle (Kahn's algorithm)."""
        pending = {node: self.in_degree(node) for node in self._nodes}
        frontier = [node for node, degree in pending.items() if degree == 0]
        seen = 0
        while frontier:
            node = frontier.pop()
            seen += 1
            for successor in self._adjacency[node]:
                pending[successor] -= 1
                if pending[successor] == 0:
                    frontier.append(successor)
        return seen == len(self._nodes)
