"""The federation service layer: a long-lived, multi-user PQP server.

The paper's PQP (Figure 2) is a *system* serving many users over a
federation of autonomous databases.  This package is that system's public
face:

- :class:`~repro.service.federation.PolygenFederation` — the long-lived
  engine.  It owns the polygen schema, the LQP registry, the identity
  resolver and domain transforms, an interned
  :class:`~repro.storage.tag_pool.TagPool`, and one shared
  :class:`~repro.pqp.pool.WorkerPool` with a single long-lived worker
  thread per local database — no per-query thread churn.
- :class:`~repro.service.session.Session` — a lightweight per-user handle;
  ``submit(sql | algebra | plan) -> QueryHandle`` runs queries through a
  bounded coordinator pool so many sessions execute at once.
- :class:`~repro.service.handle.QueryHandle` — future-like (``result()``,
  ``done()``, ``cancel()``) with a streaming
  :class:`~repro.service.cursor.Cursor` (``fetchmany`` / iteration) that
  hands out rows the instant the plan's result node completes.
- :class:`~repro.service.options.QueryOptions` — the engine / optimizer /
  pruning / conflict-policy knobs as one immutable dataclass, defaulted on
  the federation and overridable per submit.

Exports resolve lazily so ``import repro.service`` stays light and no
module of this package is forced to load before it is used.
"""

from __future__ import annotations

__all__ = [
    "PolygenFederation",
    "FederationStats",
    "Session",
    "QueryHandle",
    "Cursor",
    "QueryOptions",
    "WorkerPool",
]

_EXPORTS = {
    "PolygenFederation": ("repro.service.federation", "PolygenFederation"),
    "FederationStats": ("repro.service.federation", "FederationStats"),
    "Session": ("repro.service.session", "Session"),
    "QueryHandle": ("repro.service.handle", "QueryHandle"),
    "Cursor": ("repro.service.cursor", "Cursor"),
    "QueryOptions": ("repro.service.options", "QueryOptions"),
    "WorkerPool": ("repro.service.pool", "WorkerPool"),
}


def __getattr__(name: str):
    try:
        module_name, attribute = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.service' has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)


def __dir__():
    return sorted(set(globals()) | set(__all__))
