"""Columnar storage engine for polygen relations.

This package is the physical layer beneath :mod:`repro.core`:

- :mod:`repro.storage.tag_pool` — :class:`TagPool` interns each distinct
  ``(origins, intermediates)`` tag pair once and exposes the polygen tag
  algebra as memoized integer-id operations,
- :mod:`repro.storage.columnar` — :class:`ColumnarRelation` stores a
  relation as per-attribute data and tag-id columns,
- :mod:`repro.storage.kernels` — batch implementations of the algebra
  primitives and the heavy derived operators.

:class:`repro.core.relation.PolygenRelation` is a thin row-view facade over
a :class:`ColumnarRelation`; the paper's cells and tuples are materialized
lazily, so the logical model (and every ``tests/core`` semantic) is
unchanged while the hot path runs columnar end-to-end.
"""

# The core model and this engine import each other: core relations wrap a
# ColumnarRelation, and columnar rows materialize core cells.  Loading core
# first makes it the one way into that cycle, whichever module is imported
# first.
import repro.core  # noqa: F401
from repro.storage.columnar import ColumnarRelation
from repro.storage.tag_pool import GLOBAL_TAG_POOL, TagPair, TagPool

__all__ = ["ColumnarRelation", "TagPool", "TagPair", "GLOBAL_TAG_POOL"]
