"""Real heterogeneous storage backends for the federation.

The paper's federation spans *autonomous, heterogeneous* local databases;
this package supplies local engines with genuinely different native
power, each speaking the same
:class:`~repro.lqp.base.LocalQueryProcessor` contract and describing
itself through :class:`~repro.lqp.base.Capabilities`:

======================  ======  ==========  =======
engine                  select  projection  signals
======================  ======  ==========  =======
:class:`SqliteLQP`      native  native      memory-only
:class:`LogStoreLQP`    scan    no          no
:class:`KVStoreLQP`     scan    no          yes
======================  ======  ==========  =======

``SqliteLQP`` compiles selections and projections to SQL the engine runs
itself; ``LogStoreLQP`` is an append-only JSONL log that can only replay
and scan; ``KVStoreLQP`` keeps key→row maps whose only native access
path is a point lookup by primary key.  The planner reads the matrix
above through ``capabilities()`` and pushes each fragment only
where it can actually run.
"""

from repro.backends.kv_lqp import KVStoreLQP
from repro.backends.log_lqp import LogStoreLQP
from repro.backends.sqlite_lqp import SqliteLQP

__all__ = ["KVStoreLQP", "LogStoreLQP", "SqliteLQP"]
