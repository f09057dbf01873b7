"""The ``scan_remote`` source process: one LQPServer per generated database.

Started by ``harness.py`` with ``--workload NAME --seed N``; regenerates
the workload's (deterministic) databases, serves each over loopback,
prints one JSON line ``{"urls": {database: "polygen://host:port"}}`` and
then serves until its stdin reaches end-of-file — which happens when the
parent closes the pipe *or dies*, so the child never outlives the run.
Every line it reads before that it answers with the CPU time it has used
so far (``time.process_time()``), which the parent adds to its own: the
benchmark's clock counts the CPU of both processes.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

from repro.lqp.relational_lqp import RelationalLQP
from repro.net.server import LQPServer

from workloads import WIRE_CHUNK_TUPLES, WORKLOADS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    dataset = WORKLOADS[args.workload].dataset(args.seed)
    servers = [
        LQPServer(RelationalLQP(database), chunk_size=WIRE_CHUNK_TUPLES)
        for database in dataset.databases.values()
    ]
    try:
        for server in servers:
            server.start()
        print(json.dumps({"urls": {s.database: s.url for s in servers}}), flush=True)
        for _ in sys.stdin:
            print(repr(time.process_time()), flush=True)
    finally:
        for server in servers:
            server.stop()
    return 0


if __name__ == "__main__":
    sys.exit(main())
