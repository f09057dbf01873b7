"""Tagging and materialization of retrieved local data.

"Sources are tagged after data has been retrieved from each database"
(paper, §I assumptions).  When a local relation arrives at the PQP it is
turned into a polygen base relation in four steps:

1. **domain mapping** — each column's declared transform converts local
   values into the polygen attribute's domain (e.g. ``"Cambridge, MA"`` →
   ``"MA"``, visible in Table A3),
2. **instance identity resolution** — variant identifiers are canonicalized
   (``CitiCorp`` → ``Citicorp``) so cross-database equality behaves,
3. **renaming & projection** — local attribute names become polygen
   attribute names per the scheme's ``(LD, LS, LA)`` mappings; columns the
   scheme does not map are dropped,
4. **tagging** — every cell receives ``c(o) = {LD}`` and ``c(i) = {}``
   (Tables 4 and A1–A3); nil data get empty origins.

All four are column operations, so the whole pipeline is one pass over the
shipped relation's column view (:attr:`Relation.columns` — what a binary
wire frame decodes into, and a single cached transpose of a row-built
relation): steps 1–2 ``map`` a column only when it has a transform or the
resolver is not the identity, step 3 picks and names columns by position,
and step 4 needs at most two interned tag-pool ids for the whole relation
— ``({LD}, {})`` for data cells and ``({}, {})`` for nils — which the
columnar store shares across every cell (:mod:`repro.storage`).  No
intermediate relation, row tuple or per-cell ``Cell`` is ever built.
"""

from __future__ import annotations

from typing import Any, Sequence, Tuple

from repro.catalog.scheme import PolygenScheme
from repro.core.heading import Heading
from repro.core.relation import PolygenRelation
from repro.integration.domains import TransformRegistry, default_registry
from repro.integration.identity import IdentityResolver
from repro.relational.relation import Relation, distinct_columns
from repro.storage.columnar import ColumnarRelation

__all__ = ["tag_local_relation", "convert_columns", "materialize"]


def tag_local_relation(
    relation: Relation,
    database: str,
    consulted: Sequence[str] = (),
    tag_pool=None,
) -> PolygenRelation:
    """Tag an untagged local relation as originating wholly from ``database``.

    Attribute names are kept as-is; use :func:`materialize` for the full
    scheme-aware pipeline.  The columnar store is built with a single
    interned ``({database}, consulted)`` pair shared by every data cell.
    ``consulted`` names databases whose cells were examined while
    producing the shipped data (e.g. a selection pushed down into the LQP);
    they become intermediate sources, per the paper's §II Restrict
    semantics.  ``tag_pool`` scopes interning to a caller-owned pool (a
    long-lived federation's); ``None`` uses the process-wide default.
    """
    return PolygenRelation.from_store(
        ColumnarRelation.uniform(
            relation.heading, relation.columns, [database], consulted, tag_pool
        )
    )


def convert_columns(
    relation: Relation,
    database: str,
    scheme: PolygenScheme,
    resolver: IdentityResolver | None = None,
    transforms: TransformRegistry | None = None,
    relation_name: str | None = None,
    attributes: Sequence[str] | None = None,
) -> Tuple[Heading, Tuple[Tuple[Any, ...], ...]]:
    """Steps 1–3 of the module docstring: the polygen heading and the
    domain-mapped, identity-resolved columns of a shipped local relation,
    duplicate-free as rows.  Parameters are :func:`materialize`'s."""
    if relation_name is None:
        candidates = [ls for ld, ls in scheme.local_relations() if ld == database]
        if len(candidates) != 1:
            raise ValueError(
                f"scheme {scheme.name!r} maps {len(candidates)} relations in "
                f"{database!r}; pass relation_name explicitly"
            )
        relation_name = candidates[0]
    rename_map = scheme.rename_map(database, relation_name)
    if attributes is not None:
        keep = set(attributes)
        rename_map = {
            local: polygen for local, polygen in rename_map.items() if polygen in keep
        }
        if not rename_map:
            raise ValueError(
                f"projection {sorted(keep)!r} keeps no attribute of "
                f"{scheme.name!r} at {database}.{relation_name}"
            )
    registry = transforms or default_registry()
    transform_names = scheme.transform_map(database, relation_name)
    resolve = None if resolver is None or resolver.is_identity else resolver.resolve_all

    # Unmapped (or pruned) columns are never read: the polygen scheme
    # defines the visible attributes of a polygen base relation, and
    # columns nobody consumes need never be converted.
    shipped = relation.columns
    names = []
    columns = []
    for position, local in enumerate(relation.attributes):
        if local not in rename_map:
            continue
        column = shipped[position]
        if local in transform_names:
            column = tuple(map(registry.get(transform_names[local]), column))
        if resolve is not None:
            column = resolve(column)
        names.append(rename_map[local])
        columns.append(tuple(column))  # an unmapped column is its own tuple
    # The shipped relation is a set: its rows can only collapse when a
    # column was dropped or mapped, so an untouched relation skips the pass.
    untouched = len(columns) == len(shipped) and resolve is None and not transform_names
    if not untouched:
        columns = distinct_columns(columns, relation.cardinality)
    return Heading(names), tuple(columns)


def materialize(
    relation: Relation,
    database: str,
    scheme: PolygenScheme,
    resolver: IdentityResolver | None = None,
    transforms: TransformRegistry | None = None,
    relation_name: str | None = None,
    attributes: Sequence[str] | None = None,
    consulted: Sequence[str] = (),
    tag_pool=None,
) -> PolygenRelation:
    """Turn a shipped local relation into a polygen base relation.

    ``relation_name`` identifies which local relation of ``database`` the
    data came from (needed to pick the scheme's mappings); it defaults to
    the only relation of ``scheme`` at ``database``.

    ``attributes`` optionally restricts materialization to a subset of the
    scheme's polygen attributes (the optimizer's projection pruning): only
    the local columns mapping to them are transformed, resolved and tagged,
    so dead columns never enter the columnar store.
    """
    heading, columns = convert_columns(
        relation, database, scheme, resolver, transforms, relation_name, attributes
    )
    return PolygenRelation.from_store(
        ColumnarRelation.uniform(heading, columns, [database], consulted, tag_pool)
    )
