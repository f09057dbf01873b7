"""Derived operators of the polygen algebra (paper, §II).

The paper defines Select, Join and Intersection in terms of the six
primitives, and introduces Retrieve, Coalesce-based outer natural joins and
Merge for polygen query processing:

- **Select** — Restrict against a constant,
- **Join** — Restrict of a Cartesian product; when both sides use the same
  (polygen) attribute name with θ ``=``, the join pair is coalesced into a
  single column, which is how the worked example's Tables 5 and 7 obtain a
  single AID#/ONAME column with unioned tags,
- **Intersection** — "the project of a join over all the attributes",
- **Outer join** — Date-style outer equijoin with the tag semantics pinned
  down by Table A4: matched tuples record both key cells' origins as
  intermediates on every cell; an unmatched tuple records only its own key
  cell's origins; padded cells are nil with those same intermediates,
- **Outer Natural Primary Join** — outer join on the primary key with the
  key pair coalesced,
- **Outer Natural Total Join** — ONPJ with every other shared polygen
  attribute coalesced as well,
- **Merge** — ONTJ folded over two or more polygen relations; the fold order
  is immaterial (property-tested in ``tests/property``).

Retrieve is an LQP-side operation and lives in :mod:`repro.lqp`.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, Tuple

from repro.core.algebra import coalesce, product, restrict
from repro.core.cell import ConflictPolicy
from repro.core.predicate import AttributeRef, Literal, Theta
from repro.core.relation import PolygenRelation
from repro.errors import AttributeCollisionError, InvalidOperandError
from repro.storage import kernels

__all__ = [
    "RHS_SUFFIX",
    "select",
    "join",
    "intersect",
    "outer_join",
    "outer_natural_primary_join",
    "outer_natural_total_join",
    "merge",
]

#: Suffix used to qualify right-hand attributes that collide with left-hand
#: ones before a Cartesian product.  The qualified columns exist only inside
#: an operator invocation; every public result uses unqualified names.
RHS_SUFFIX = "__rhs"


def select(p: PolygenRelation, x: str, theta: Theta, value: Any) -> PolygenRelation:
    """``p[x θ constant]`` — Restrict against a literal.

    Being defined through Restrict, Select updates the intermediate sets of
    surviving tuples with the origins of the compared attribute (the literal
    itself has no source).
    """
    return restrict(p, x, theta, Literal(value))


def join(
    p1: PolygenRelation,
    p2: PolygenRelation,
    x: str,
    theta: Theta,
    y: str,
    coalesce_equal: bool = True,
) -> PolygenRelation:
    """``p1 [x θ y] p2`` — the restriction of a Cartesian product.

    ``x`` names an attribute of ``p1`` and ``y`` of ``p2``.  When ``x == y``
    (the polygen-attribute equijoin of the worked example) the two key
    columns are coalesced into one, so tags from both sides union — compare
    Table 7's single ONAME column.  Set ``coalesce_equal=False`` to keep the
    right column under a ``__rhs``-qualified name.

    For θ ``=`` the join runs as a hash join
    (:func:`repro.storage.kernels.hash_join`): the same rows, row order and
    tags as the definition, without forming the product.  Each left key
    probes the right operand's keys, the matched rows' columns are
    gathered, and each output tag is one lookup in a table resolved once
    per distinct (tag, key tags).  Every other θ evaluates the definition,
    Product then Restrict.

    Any *other* attribute shared by both operands is an error: rename it
    first (the executor never produces this case because local relations are
    renamed to disjoint polygen attributes at retrieval).
    """
    p1.heading.require(x)
    p2.heading.require(y)
    shared = set(p1.attributes) & set(p2.attributes)
    shared.discard(y)
    if shared:
        raise AttributeCollisionError(
            "join operands share non-join attributes: " + ", ".join(sorted(shared))
        )

    right = p2
    right_key = y
    if y in p1.heading:
        right_key = y + RHS_SUFFIX
        right = p2.rename({y: right_key})

    if theta is Theta.EQ:
        heading = p1.heading.concat(right.heading)
        x_pos, y_pos = p1.heading.index(x), right.heading.index(right_key)
        combined = PolygenRelation.from_store(
            kernels.hash_join(p1.store, right.store, heading, (x_pos,), (y_pos,))
        )
    else:
        combined = restrict(product(p1, right), x, theta, AttributeRef(right_key))
    if right_key is not y and coalesce_equal:
        if theta is not Theta.EQ:
            raise InvalidOperandError(
                "a same-named join pair can only be coalesced under '='"
            )
        combined = coalesce(combined, x, right_key, w=x)
    return combined


def intersect(p1: PolygenRelation, p2: PolygenRelation) -> PolygenRelation:
    """``p1 ∩ p2`` — the project of a join over all attributes (paper, §II).

    Evaluating that composition literally gives, for each data-identical
    pair of tuples ``t ∈ p1``, ``s ∈ p2``:

    - origins: attribute-wise union ``t[w](o) ∪ s[w](o)`` (the Coalesce of
      each joined attribute pair),
    - intermediates: attribute-wise union, plus the union of **all** origin
      sets of both tuples (each of the *n* Restricts contributes its
      attribute pair's origins to every cell).

    This function computes that closed form directly (as a columnar kernel);
    a test asserts its equivalence with the primitive composition.
    """
    if p1.heading != p2.heading:
        raise InvalidOperandError(
            "intersection operands must share a heading"
        )
    return PolygenRelation.from_store(kernels.intersect(p1.store, p2.store))


# ---------------------------------------------------------------------------
# Outer joins (Appendix A semantics)
# ---------------------------------------------------------------------------


def _key_positions(p: PolygenRelation, names: Sequence[str]) -> Tuple[int, ...]:
    if not names:
        raise InvalidOperandError("outer join requires at least one key attribute")
    return p.heading.indices(names)


def outer_join(
    p1: PolygenRelation,
    p2: PolygenRelation,
    key_pairs: Sequence[Tuple[str, str]],
) -> PolygenRelation:
    """Outer equijoin of ``p1`` and ``p2`` on pairs of key attributes.

    Headings must be disjoint (qualify shared names first).  Tag semantics
    follow Table A4 exactly:

    - a matched pair of tuples records ``t[x](o) ∪ s[y](o)`` in every cell's
      intermediate set,
    - an unmatched left tuple records ``t[x](o)`` only, and is padded with
      ``(nil, {}, t[x](o))`` cells for the right-hand attributes,
    - symmetrically for unmatched right tuples.

    Nil key data never match (a missing key cannot join).
    """
    heading = p1.heading.concat(p2.heading)
    left_pos = _key_positions(p1, [left for left, _ in key_pairs])
    right_pos = _key_positions(p2, [right for _, right in key_pairs])
    return PolygenRelation.from_store(
        kernels.outer_join(p1.store, p2.store, heading, left_pos, right_pos)
    )


def _qualify_right(
    p1: PolygenRelation, p2: PolygenRelation
) -> Tuple[PolygenRelation, dict[str, str]]:
    """Rename every attribute of ``p2`` that collides with ``p1``."""
    qualification = {
        name: name + RHS_SUFFIX for name in p2.attributes if name in p1.heading
    }
    return (p2.rename(qualification) if qualification else p2), qualification


def outer_natural_primary_join(
    p1: PolygenRelation,
    p2: PolygenRelation,
    key_pairs: Sequence[Tuple[str, str]],
    output_names: Sequence[str] | None = None,
    policy: ConflictPolicy = ConflictPolicy.DROP,
) -> PolygenRelation:
    """Outer Natural Primary Join: outer join on the primary key with the
    key columns coalesced (paper, §II; Tables A5 and A8).

    ``key_pairs`` lists ``(left_attribute, right_attribute)`` pairs — the
    two local columns of each primary-key polygen attribute.  The coalesced
    column takes the name from ``output_names`` (default: the left name).
    """
    if output_names is None:
        output_names = [left for left, _ in key_pairs]
    if len(output_names) != len(key_pairs):
        raise InvalidOperandError("output_names must align with key_pairs")

    right, qualification = _qualify_right(p1, p2)
    pairs = [(left, qualification.get(r, r)) for left, r in key_pairs]
    joined = outer_join(p1, right, pairs)
    for (left, right_name), out in zip(pairs, output_names):
        joined = coalesce(joined, left, right_name, w=out, policy=policy)
    return joined


def outer_natural_total_join(
    p1: PolygenRelation,
    p2: PolygenRelation,
    key_pairs: Sequence[Tuple[str, str]],
    output_names: Sequence[str] | None = None,
    extra_pairs: Sequence[Tuple[str, str, str]] = (),
    policy: ConflictPolicy = ConflictPolicy.DROP,
) -> PolygenRelation:
    """Outer Natural Total Join: an ONPJ with every other shared polygen
    attribute coalesced as well (paper, §II; Tables A6 and A9).

    Attributes sharing a name across the operands (the normal case once
    local relations have been renamed to polygen attributes) are coalesced
    automatically.  ``extra_pairs`` — ``(left, right, output)`` triplets —
    cover differently named pairs, as in the appendix walk-through where the
    local columns IND and TRADE coalesce into INDUSTRY.
    """
    key_left = {left for left, _ in key_pairs}
    key_right = {right for _, right in key_pairs}
    shared = [
        name
        for name in p1.attributes
        if name in p2.heading and name not in key_left and name not in key_right
    ]

    right, qualification = _qualify_right(p1, p2)
    pairs = [(left, qualification.get(r, r)) for left, r in key_pairs]
    joined = outer_join(p1, right, pairs)
    if output_names is None:
        output_names = [left for left, _ in key_pairs]
    for (left, right_name), out in zip(pairs, output_names):
        joined = coalesce(joined, left, right_name, w=out, policy=policy)
    for name in shared:
        joined = coalesce(joined, name, qualification[name], w=name, policy=policy)
    for left, right_name, out in extra_pairs:
        joined = coalesce(
            joined, left, qualification.get(right_name, right_name), w=out, policy=policy
        )
    return joined


def merge(
    relations: Iterable[PolygenRelation],
    key: Sequence[str],
    policy: ConflictPolicy = ConflictPolicy.DROP,
) -> PolygenRelation:
    """Merge: Outer Natural Total Join extended to two or more relations.

    All operands must already use polygen attribute names (the executor
    renames local attributes at retrieval), and each must contain every
    attribute of ``key`` — the primary key of the polygen scheme being
    merged.  "The order in which Outer Natural Total Joins are performed
    over a set of polygen relations in a Merge is immaterial" (paper, §II);
    ``tests/property`` verifies this on both paper and generated data.

    That order-immateriality licenses the implementation: instead of
    folding ONTJs — which rebuilds and re-joins the accumulated result per
    operand — the work runs as one hash-partitioned pass over the key
    columns (:func:`repro.storage.kernels.hash_merge`).  The definitional
    fold lives in ``tests/reference/fold.py``; a property suite pins the
    two tag-identical.
    """
    operands = list(relations)
    if not operands:
        raise InvalidOperandError("merge requires at least one relation")
    for relation in operands:
        relation.heading.require(*key)
    if len(operands) == 1:
        return operands[0]
    return PolygenRelation.from_store(
        kernels.hash_merge([relation.store for relation in operands], key, policy)
    )
