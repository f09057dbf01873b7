"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

One row per (end-to-end metric, workload the metric applies to —
``metrics.json``): each side's median and quartiles over its runs, how much
worse B is than A, the regression bound, and a verdict —

- ``regressed``  B's median is worse than A's by more than the bound;
- ``improved``   B's median is better than A's by more than the bound;
- ``unchanged``  otherwise;
- ``unresolved`` A's own inter-quartile spread exceeds the bound, so the
  runs cannot tell a change of that size from noise.

``failed_fraction`` and ``stale_reads`` are compared by their *worst* run:
any increase is a regression.  So is a workload with fewer complete runs
in B than in A (``run.py`` records a run that crashed as one without
metrics); a workload neither file attempted is left out.  The per-layer
metrics follow, without bound or verdict.  Exits non-zero on any
``regressed`` row.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]


def load_contract() -> Tuple[dict, dict]:
    """``BENCHMARK.json`` and ``metrics.json``: the end-to-end metrics in
    the order of the latter, each with unit, direction, bound and the
    workloads it applies to."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    notes = json.loads((HERE / "metrics.json").read_text())
    gated = {metric["name"]: metric for metric in spec["end_to_end"]}
    for name, note in notes["end_to_end"].items():
        note.update(gated.get(name, {}))
    return spec, notes


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile); a single run has no spread."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def _load(path: Path, trace: int) -> Dict[str, Dict[str, List[float]]]:
    """workload → metric → values, over the file's complete runs with this
    ``trace``.  End-to-end metrics the driver's contract cannot hold travel
    in a run's ``detail``."""
    table: Dict[str, Dict[str, List[float]]] = defaultdict(lambda: defaultdict(list))
    for run in json.loads(path.read_text())["runs"]:
        if run["trace"] != trace:
            continue
        metrics = table[run["workload"]]  # attempted, even if never completed
        for name, metric in run["metrics"].items():
            metrics[name].append(metric["value"])
        if trace == 0 and run["metrics"]:
            metrics["failed_fraction"].append(run["failed"] / run["attempted"])
            for name in ("query_p50_ms", "query_p99_ms", "stale_reads"):
                metrics[name].append(run["detail"][name])
    return table


def _worse(a: Sequence[float], b: Sequence[float], better: str) -> float:
    """B's median relative to A's, signed so that positive means worse."""
    a_median, b_median = statistics.median(a), statistics.median(b)
    change = (b_median - a_median) / abs(a_median) if a_median else 0.0
    return -change if better == "higher" else change


def verdict(a: Sequence[float], b: Sequence[float], better: str, bound: float) -> Tuple[float, str]:
    """How much worse B is than A (as a share of A) and the verdict."""
    if bound == 0:  # must not increase, in any run
        worse = max(b) - max(a)
        return worse, "regressed" if worse > 0 else "unchanged"
    a_first, a_median, a_third = _quartiles(a)
    worse = _worse(a, b, better)
    if a_median and (a_third - a_first) / abs(a_median) > bound:
        return worse, "unresolved"
    if worse > bound:
        return worse, "regressed"
    if worse < -bound:
        return worse, "improved"
    return worse, "unchanged"


def _row(workload, name, a, b, bound, change, outcome) -> str:
    qa, qb = _quartiles(a), _quartiles(b)
    return (
        f"{workload:15s} {name:34s} "
        f"{qa[1]:12.4f} [{qa[0]:11.4f},{qa[2]:11.4f}] n={len(a):<3d} "
        f"{qb[1]:12.4f} [{qb[0]:11.4f},{qb[2]:11.4f}] n={len(b):<3d} "
        f"{change:+8.1%} {bound:>6s}  {outcome}"
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    spec, notes = load_contract()
    workloads = [workload["name"] for workload in spec["workloads"]]
    a, b = _load(args.a, 0), _load(args.b, 0)
    print(
        f"{'workload':15s} {'metric':34s} {'A median':>12s} {'[A quartiles]':>25s} {'':5s} "
        f"{'B median':>12s} {'[B quartiles]':>25s} {'':5s} {'worse':>8s} {'bound':>6s}  verdict"
    )
    regressed = 0
    for workload in workloads:
        if workload not in a and workload not in b:
            continue
        runs_a, runs_b = len(a[workload]["setup_s"]), len(b[workload]["setup_s"])
        if runs_b < runs_a:
            regressed += 1
            print(f"{workload:15s} complete runs: A {runs_a}, B {runs_b}  regressed")
        if not runs_a or not runs_b:
            continue
        for name, metric in notes["end_to_end"].items():
            if workload not in metric["workloads"]:
                continue
            va, vb = a[workload][name], b[workload][name]
            change, outcome = verdict(va, vb, metric["better"], metric["bound"])
            regressed += outcome == "regressed"
            print(_row(workload, name, va, vb, f"{metric['bound']:.0%}", change, outcome))
    la, lb = _load(args.a, 1), _load(args.b, 1)
    for workload in workloads:
        for metric in spec["per_layer"]:
            name = metric["name"]
            va, vb = la[workload][name], lb[workload][name]
            if not va or not vb:
                continue
            print(_row(workload, name, va, vb, "-", _worse(va, vb, metric["better"]), "-"))
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
