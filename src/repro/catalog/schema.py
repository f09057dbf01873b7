"""The polygen schema: a named set of polygen schemes (paper, §II)."""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Tuple

from repro.catalog.scheme import PolygenScheme
from repro.errors import SchemaValidationError, UnknownSchemeError

__all__ = ["PolygenSchema"]


class PolygenSchema:
    """A set ``{P1, ..., PN}`` of polygen schemes with name lookup.

    The schema is the sole input (besides the operation matrix itself) to
    the Polygen Operation Interpreter — the "mapping data" that the paper's
    data-driven translation separates from the mapping algorithm.
    """

    def __init__(self, schemes: Iterable[PolygenScheme] = ()):
        self._schemes: Dict[str, PolygenScheme] = {}
        #: Bumped by every :meth:`add` — plans built earlier are stale.
        self._version = 0
        for scheme in schemes:
            self.add(scheme)

    def add(self, scheme: PolygenScheme) -> "PolygenSchema":
        if scheme.name in self._schemes:
            raise SchemaValidationError(f"duplicate polygen scheme {scheme.name!r}")
        self._schemes[scheme.name] = scheme
        self._version += 1
        return self

    @property
    def version(self) -> int:
        """How many schemes were ever added (plan-memo epoch)."""
        return self._version

    # -- lookup ----------------------------------------------------------------

    def scheme(self, name: str) -> PolygenScheme:
        try:
            return self._schemes[name]
        except KeyError:
            raise UnknownSchemeError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._schemes

    def __iter__(self) -> Iterator[PolygenScheme]:
        return iter(self._schemes.values())

    def __len__(self) -> int:
        return len(self._schemes)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._schemes)

    def databases(self) -> Tuple[str, ...]:
        """Every local database referenced by any scheme, in first-use order."""
        seen: Dict[str, None] = {}
        for scheme in self:
            for database, _ in scheme.local_relations():
                seen.setdefault(database, None)
        return tuple(seen)

    def schemes_using(self, database: str) -> Tuple[PolygenScheme, ...]:
        """Schemes with at least one mapping into ``database``."""
        return tuple(
            scheme
            for scheme in self
            if any(ld == database for ld, _ in scheme.local_relations())
        )

    # -- validation -------------------------------------------------------------

    def validate_against(self, relation_catalog: Dict[str, Dict[str, Tuple[str, ...]]]) -> None:
        """Check every mapping against a catalog of local relations.

        ``relation_catalog`` maps database name → relation name → attribute
        tuple.  Raises :class:`SchemaValidationError` on the first dangling
        mapping; useful when wiring a new federation.
        """
        for scheme in self:
            for attribute in scheme.attributes:
                for mapping in scheme.mappings(attribute):
                    relations = relation_catalog.get(mapping.database)
                    if relations is None:
                        raise SchemaValidationError(
                            f"{scheme.name}.{attribute} maps to unknown database "
                            f"{mapping.database!r}"
                        )
                    attributes = relations.get(mapping.relation)
                    if attributes is None:
                        raise SchemaValidationError(
                            f"{scheme.name}.{attribute} maps to unknown relation "
                            f"{mapping.database}.{mapping.relation}"
                        )
                    if mapping.attribute not in attributes:
                        raise SchemaValidationError(
                            f"{scheme.name}.{attribute} maps to unknown column "
                            f"{mapping.database}.{mapping.relation}.{mapping.attribute}"
                        )

    def describe(self) -> str:
        """Paper-style rendering of every scheme's mapping table."""
        return "\n\n".join(scheme.describe() for scheme in self)

    def __repr__(self) -> str:
        return f"PolygenSchema({list(self._schemes)!r})"
