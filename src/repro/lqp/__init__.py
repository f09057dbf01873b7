"""Local Query Processors (LQPs).

"The details of the mapping and communication mechanisms between an LQP and
its local databases is encapsulated in the LQP.  To the PQP, each LQP
behaves as a local relational system" (paper, §I).  This package provides:

- the abstract LQP interface (:mod:`repro.lqp.base`),
- an LQP over the in-memory relational engine (:mod:`repro.lqp.relational_lqp`),
- an LQP over CSV documents (:mod:`repro.lqp.csv_lqp`) demonstrating the
  encapsulation of a non-relational access interface,
- the LQP wrappers — traffic accounting, injected latency — over one
  forwarding base (:mod:`repro.lqp.cost`),
- the registry the PQP routes local operations through (:mod:`repro.lqp.registry`),
- tagging/materialization of retrieved data (:mod:`repro.lqp.tagging`).
"""

from repro.lqp.base import Capabilities, LocalQueryProcessor
from repro.lqp.cost import (
    AccountingLQP,
    LatencyLQP,
    TransferStats,
)
from repro.lqp.csv_lqp import CsvLQP
from repro.lqp.registry import LQPRegistry
from repro.lqp.relational_lqp import RelationalLQP
from repro.lqp.tagging import materialize, tag_local_relation

__all__ = [
    "Capabilities",
    "LocalQueryProcessor",
    "RelationalLQP",
    "CsvLQP",
    "LQPRegistry",
    "AccountingLQP",
    "LatencyLQP",
    "TransferStats",
    "tag_local_relation",
    "materialize",
]
