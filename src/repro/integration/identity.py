"""Inter-database instance identifier resolution.

The paper's federation joins ``Citicorp`` (CAREER, CORPORATION) with
``CitiCorp`` (BUSINESS, FIRM) as one organization; its assumption is that
"the inter-database instance identifier mismatching problem … has been
resolved and the information is available for the PQP to use".

:class:`IdentityResolver` is that information: a set of synonym groups, each
with one canonical spelling.  The PQP applies the resolver to every value
arriving from an LQP, so all downstream polygen operations see canonical
identifiers and equality joins behave as the paper's example requires.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Tuple

from repro.errors import IntegrationError

__all__ = ["IdentityResolver"]


class IdentityResolver:
    """Maps variant instance identifiers to canonical ones.

    >>> resolver = IdentityResolver({"Citicorp": ["CitiCorp", "CITICORP"]})
    >>> resolver.resolve("CitiCorp")
    'Citicorp'
    >>> resolver.resolve("IBM")
    'IBM'
    """

    def __init__(self, synonym_groups: Mapping[str, Iterable[str]] | None = None):
        self._canonical: Dict[Any, Any] = {}
        #: Bumped by every :meth:`add_group`: pushdown decisions made
        #: against the old groups are stale.
        self._version = 0
        if synonym_groups:
            for canonical, variants in synonym_groups.items():
                self.add_group(canonical, variants)

    @classmethod
    def identity(cls) -> "IdentityResolver":
        """A resolver that maps every value to itself."""
        return cls()

    def add_group(self, canonical: Any, variants: Iterable[Any]) -> None:
        """Register a synonym group.

        Every variant (and the canonical spelling itself) resolves to
        ``canonical``.  A variant may belong to at most one group.
        """
        # Bumped first: a group rejected halfway has still remapped the
        # variants before the conflicting one.
        self._version += 1
        for variant in tuple(variants) + (canonical,):
            existing = self._canonical.get(variant)
            if existing is not None and existing != canonical:
                raise IntegrationError(
                    f"identifier {variant!r} already resolves to {existing!r}; "
                    f"cannot remap to {canonical!r}"
                )
            self._canonical[variant] = canonical

    @property
    def version(self) -> int:
        """How many synonym groups were ever added (plan-memo epoch)."""
        return self._version

    def resolve(self, value: Any) -> Any:
        """Canonical form of ``value`` (itself when unregistered)."""
        return self._canonical.get(value, value)

    def is_registered(self, value: Any) -> bool:
        return value in self._canonical

    @property
    def is_identity(self) -> bool:
        """True when no synonym group is registered — ``resolve`` is a no-op."""
        return not self._canonical

    def is_unaliased(self, value: Any) -> bool:
        """True when ``value`` resolves to itself and nothing else resolves
        to it — i.e. raw-value equality against ``value`` coincides with
        resolved-value equality.  The optimizer's selection pushdown uses
        this to prove a literal comparison safe to evaluate on raw local
        data."""
        if self._canonical.get(value, value) != value:
            return False
        return not any(
            canonical == value and variant != value
            for variant, canonical in self._canonical.items()
        )

    def groups(self) -> Tuple[Tuple[Any, Tuple[Any, ...]], ...]:
        """All (canonical, variants) groups, for documentation/display."""
        by_canonical: Dict[Any, list] = {}
        for variant, canonical in self._canonical.items():
            if variant != canonical:
                by_canonical.setdefault(canonical, []).append(variant)
        return tuple(
            (canonical, tuple(sorted(map(str, variants))))
            for canonical, variants in sorted(
                by_canonical.items(), key=lambda item: str(item[0])
            )
        )

    def __len__(self) -> int:
        return len(self._canonical)

    def __repr__(self) -> str:
        return f"IdentityResolver(groups={len(self.groups())})"
