"""The paper's worked-example federation (§II and §IV).

Three local databases —

- **AD**, the Alumni Database: ALUMNUS, CAREER, BUSINESS;
- **PD**, the Placement Database: STUDENT, INTERVIEW, CORPORATION;
- **CD**, the Company Database: FIRM, FINANCE —

and the six-scheme polygen schema (PALUMNUS, PCAREER, PORGANIZATION,
PSTUDENT, PINTERVIEW, PFINANCE) with the paper's exact ``(LD, LS, LA)``
attribute mappings.

Transcription notes (see EXPERIMENTS.md):

- The paper spells Citicorp two ways (``CitiCorp`` in BUSINESS/FIRM,
  ``Citicorp`` in CAREER/CORPORATION) and relies on its resolved
  instance-identity assumption to join them; we keep the local spellings
  verbatim and supply the :func:`paper_identity_resolver` that canonicalizes
  to ``Citicorp``.
- FIRM.HQ stores ``"city, state"`` strings; the PORGANIZATION mapping
  attaches the ``city_state_to_state`` domain transform, matching Table A3
  where FIRM arrives at the PQP with bare states.
- The scanned copy garbles two columns never used by any query in the
  paper: STUDENT.GPA for John Smith (we use 3.4) and the whole
  INTERVIEW.LOC column (we use plausible placements).  Neither affects any
  reproduced table.
"""

from __future__ import annotations

from typing import Dict

from repro.catalog.mapping import AttributeMapping
from repro.catalog.schema import PolygenSchema
from repro.catalog.scheme import PolygenScheme
from repro.integration.identity import IdentityResolver
from repro.relational.database import LocalDatabase
from repro.relational.schema import RelationSchema

__all__ = [
    "paper_databases",
    "paper_polygen_schema",
    "paper_identity_resolver",
    "build_paper_federation",
]


def paper_databases() -> Dict[str, LocalDatabase]:
    """The three local databases with the paper's §IV instance data."""
    ad = LocalDatabase("AD")
    ad.load(
        RelationSchema("ALUMNUS", ["AID#", "ANAME", "DEG", "MAJ"], key=["AID#"]),
        [
            ("012", "John McCauley", "MBA", "IS"),
            ("123", "Bob Swanson", "MBA", "MGT"),
            ("234", "Stu Madnick", "MBA", "IS"),
            ("345", "James Yao", "BS", "EECS"),
            ("456", "Dave Horton", "MBA", "IS"),
            ("567", "John Reed", "MBA", "MGT"),
            ("678", "Bob Horton", "SF", "MGT"),
            ("789", "Ken Olsen", "MS", "EE"),
        ],
    )
    ad.load(
        RelationSchema("CAREER", ["AID#", "BNAME", "POS"], key=["AID#", "BNAME"]),
        [
            ("012", "Citicorp", "MIS Director"),
            ("123", "Genentech", "CEO"),
            ("234", "Langley Castle", "CEO"),
            ("345", "Oracle", "Manager"),
            ("456", "Ford", "Manager"),
            ("567", "Citicorp", "CEO"),
            ("678", "BP", "CEO"),
            ("789", "DEC", "CEO"),
            ("234", "MIT", "Professor"),
        ],
    )
    ad.load(
        RelationSchema("BUSINESS", ["BNAME", "IND"], key=["BNAME"]),
        [
            ("Langley Castle", "Hotel"),
            ("IBM", "High Tech"),
            ("MIT", "Education"),
            ("CitiCorp", "Banking"),
            ("Oracle", "High Tech"),
            ("Ford", "Automobile"),
            ("DEC", "High Tech"),
            ("BP", "Energy"),
            ("Genentech", "High Tech"),
        ],
    )

    pd = LocalDatabase("PD")
    pd.load(
        RelationSchema("STUDENT", ["SID#", "SNAME", "GPA", "MAJOR"], key=["SID#"]),
        [
            ("01", "Forea Wang", 3.5, "Math"),
            ("12", "Yeuk Yuan", 3.99, "EECS"),
            ("23", "Rich Bolsky", 3.2, "Finance"),
            ("34", "John Smith", 3.4, "Finance"),
            ("45", "Mike Lavine", 3.7, "IS"),
        ],
    )
    pd.load(
        RelationSchema("INTERVIEW", ["SID#", "CNAME", "JOB", "LOC"], key=["SID#", "CNAME"]),
        [
            ("01", "IBM", "System Analyst", "NY"),
            ("12", "Oracle", "Product Manager", "CA"),
            ("23", "Banker's Trust", "CFO", "NY"),
            ("34", "Citicorp", "Far East Manager", "Hong Kong"),
        ],
    )
    pd.load(
        RelationSchema("CORPORATION", ["CNAME", "TRADE", "STATE"], key=["CNAME"]),
        [
            ("Apple", "High Tech", "CA"),
            ("Oracle", "High Tech", "CA"),
            ("AT&T", "High Tech", "NY"),
            ("IBM", "High Tech", "NY"),
            ("Citicorp", "Banking", "NY"),
            ("DEC", "High Tech", "MA"),
            ("Banker's Trust", "Finance", "NY"),
        ],
    )

    cd = LocalDatabase("CD")
    cd.load(
        RelationSchema("FIRM", ["FNAME", "CEO", "HQ"], key=["FNAME"]),
        [
            ("AT&T", "Robert Allen", "NY, NY"),
            ("Langley Castle", "Stu Madnick", "Cambridge, MA"),
            ("Banker's Trust", "Charles Sanford", "NY, NY"),
            ("CitiCorp", "John Reed", "NY, NY"),
            ("Ford", "Donald Peterson", "Dearborn, MI"),
            ("IBM", "John Ackers", "Armonk, NY"),
            ("Apple", "John Sculley", "Cupertino, CA"),
            ("Oracle", "Lawrence Ellison", "Belmont, CA"),
            ("DEC", "Ken Olsen", "Maynard, MA"),
            ("Genentech", "Bob Swanson", "So. San Francisco, CA"),
        ],
    )
    cd.load(
        RelationSchema("FINANCE", ["FNAME", "YR", "PROFIT"], key=["FNAME", "YR"]),
        [
            ("AT&T", 1989, "-1.7 bil"),
            ("Langley Castle", 1989, "1 mil"),
            ("Banker's Trust", 1989, "648 mil"),
            ("CitiCorp", 1989, "1.7 bil"),
            ("Ford", 1989, "5.3 bil"),
            ("IBM", 1989, "5.5 bil"),
            ("Apple", 1989, "400 mil"),
            ("Oracle", 1989, "43 mil"),
            ("DEC", 1989, "1.3 bil"),
            ("Genentech", 1989, "21 mil"),
        ],
    )
    return {"AD": ad, "PD": pd, "CD": cd}


def paper_polygen_schema() -> PolygenSchema:
    """The six polygen schemes with the paper's exact attribute mappings."""
    schema = PolygenSchema()
    schema.add(
        PolygenScheme(
            "PALUMNUS",
            {
                "AID#": [AttributeMapping("AD", "ALUMNUS", "AID#")],
                "ANAME": [AttributeMapping("AD", "ALUMNUS", "ANAME")],
                "DEGREE": [AttributeMapping("AD", "ALUMNUS", "DEG")],
                "MAJOR": [AttributeMapping("AD", "ALUMNUS", "MAJ")],
            },
            primary_key=["AID#"],
        )
    )
    schema.add(
        PolygenScheme(
            "PCAREER",
            {
                "AID#": [AttributeMapping("AD", "CAREER", "AID#")],
                "ONAME": [AttributeMapping("AD", "CAREER", "BNAME")],
                "POSITION": [AttributeMapping("AD", "CAREER", "POS")],
            },
            primary_key=["AID#", "ONAME"],
        )
    )
    schema.add(
        PolygenScheme(
            "PORGANIZATION",
            {
                "ONAME": [
                    AttributeMapping("AD", "BUSINESS", "BNAME"),
                    AttributeMapping("PD", "CORPORATION", "CNAME"),
                    AttributeMapping("CD", "FIRM", "FNAME"),
                ],
                "INDUSTRY": [
                    AttributeMapping("AD", "BUSINESS", "IND"),
                    AttributeMapping("PD", "CORPORATION", "TRADE"),
                ],
                "CEO": [AttributeMapping("CD", "FIRM", "CEO")],
                "HEADQUARTERS": [
                    AttributeMapping("PD", "CORPORATION", "STATE"),
                    AttributeMapping("CD", "FIRM", "HQ", transform="city_state_to_state"),
                ],
            },
            primary_key=["ONAME"],
        )
    )
    schema.add(
        PolygenScheme(
            "PSTUDENT",
            {
                "SID#": [AttributeMapping("PD", "STUDENT", "SID#")],
                "SNAME": [AttributeMapping("PD", "STUDENT", "SNAME")],
                "GPA": [AttributeMapping("PD", "STUDENT", "GPA")],
                "MAJOR": [AttributeMapping("PD", "STUDENT", "MAJOR")],
            },
            primary_key=["SID#"],
        )
    )
    schema.add(
        PolygenScheme(
            "PINTERVIEW",
            {
                "SID#": [AttributeMapping("PD", "INTERVIEW", "SID#")],
                "ONAME": [AttributeMapping("PD", "INTERVIEW", "CNAME")],
                "JOB": [AttributeMapping("PD", "INTERVIEW", "JOB")],
                "LOCATION": [AttributeMapping("PD", "INTERVIEW", "LOC")],
            },
            primary_key=["SID#", "ONAME"],
        )
    )
    schema.add(
        PolygenScheme(
            "PFINANCE",
            {
                "ONAME": [AttributeMapping("CD", "FINANCE", "FNAME")],
                "YEAR": [AttributeMapping("CD", "FINANCE", "YR")],
                "PROFIT": [
                    AttributeMapping("CD", "FINANCE", "PROFIT", transform="money_text_to_float")
                ],
            },
            primary_key=["ONAME", "YEAR"],
        )
    )
    return schema


def paper_identity_resolver() -> IdentityResolver:
    """The resolved instance-identifier information the paper assumes.

    The only mismatch in the printed data is the Citicorp spelling; the
    paper's final Table 9 prints ``Citicorp``, which we take as canonical.
    """
    return IdentityResolver({"Citicorp": ["CitiCorp"]})


def build_paper_federation(**options):
    """A ready-to-query :class:`~repro.pqp.processor.PolygenQueryProcessor`
    over the paper's federation (``options`` are the processor's keyword
    flags, e.g. ``optimize=False``).

    >>> pqp = build_paper_federation()
    >>> result = pqp.run_sql('SELECT CEO FROM PORGANIZATION WHERE ONAME = "Genentech"')
    >>> result.relation.tuples[0].data
    ('Bob Swanson',)
    """
    from repro.lqp.registry import LQPRegistry
    from repro.lqp.relational_lqp import RelationalLQP
    from repro.pqp.processor import PolygenQueryProcessor

    registry = LQPRegistry()
    for database in paper_databases().values():
        registry.register(RelationalLQP(database))
    return PolygenQueryProcessor(
        schema=paper_polygen_schema(),
        registry=registry,
        resolver=paper_identity_resolver(),
        **options,
    )
