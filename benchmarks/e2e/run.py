"""The repo's real-work benchmark: query text in, last tagged tuple out.

Two ways to run it, both from the repository root::

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME] [--seconds S]
                                  [--runs R] [--smoke] [--out FILE]

runs every workload (or one) in its own fresh subprocess, once untraced
for the end-to-end metrics and once traced for the per-layer metrics,
prints every metric by name with its unit and sample count, and writes a
result JSON (``compare.py`` reads two of those).  And::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

is one such run in this process (what ``BENCHMARK.json``'s command is
called with): it prints the metrics and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, measured with no benchmark
instrumentation in the process, on the CPU clock and normalized by a
yardstick (README, "The clock"); ``--trace 1`` reports the per-layer
metrics from a traced replay (see ``tracing.py``).

Exits non-zero when an answer check fails, an operation fails, a thread
leaks, or a metric ``BENCHMARK.json`` declares is not produced.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

DEFAULT_SEED = 1990
#: Every workload warms up for at least this many ops and this long.
WARMUP_OPS, WARMUP_SECONDS = 3, 2.0
#: ``setup_s`` is the median over complete set-ups, as the benchmark
#: contract asks ("set up several times in a run and report the median"),
#: each timed on the CPU clock between two yardsticks: at least this many,
#: and more (up to the cap) while they are quick, so a 2 ms set-up is as
#: steady a number as a 0.6 s one.
MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_SECONDS = 3, 40, 2.0


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- one run in this process ---------------------------------------------------


def run_untraced(workload, seed: int, seconds: float) -> dict:
    """The end-to-end run: no recorder, no proxies, no shims."""
    from harness import (
        Client, System, block_means, host_speed, oracle_expected, percentile,
        pin_to_one_cpu, run_phase, run_timed, verify_answers, yardstick,
    )

    pin_to_one_cpu()
    expected = oracle_expected(workload, seed)
    setups: List[float] = []
    leaks: List[str] = []
    attempted = failed = 0
    errors: List[str] = []
    system = clients = None
    spent = 0.0
    before = yardstick()
    while len(setups) < MIN_SETUPS or (
        spent < SETUP_BUDGET_SECONDS and len(setups) < MAX_SETUPS
    ):
        if system is not None:
            leaks += system.close()
        began_wall, began = time.perf_counter(), time.process_time()
        system = System(workload, seed)
        try:
            clients = [
                Client(system, index, seed, expected) for index in range(workload.clients)
            ]
            first = clients[0].first_answer()
        except BaseException:
            system.close()
            raise
        used = system.cpu_seconds() - began  # a server child's CPU included
        spent += time.perf_counter() - began_wall
        after = yardstick()
        setups.append(used * host_speed(before, after))
        before = after
        attempted += first.attempted
        failed += first.failed
        errors += first.errors
    try:
        warm_until = time.perf_counter() + WARMUP_SECONDS
        warm = run_phase(
            clients,
            lambda done: done >= max(WARMUP_OPS, workload.fill_ops)
            and time.perf_counter() >= warm_until,
        )
        timed, marks = run_timed(system, clients, seconds)
        problems = verify_answers(workload, seed, clients, timed, expected)
    finally:
        leaks += system.close()

    for phase in warm + timed:
        attempted += phase.attempted
        failed += phase.failed
        errors += phase.errors
    latencies = [value for phase in timed for value in phase.wall_latencies]
    errors += problems + [f"leaked thread {name}" for name in leaks]
    if not latencies or len(marks) < 2:
        raise SystemExit(f"{workload.name}: no whole block completed: {errors}")
    means = block_means(timed, marks, workload.block_ops)
    on_cpu = sum(b.ended_cpu - a.began_cpu for a, b in zip(marks, marks[1:]))
    in_blocks = sum(b.ended_wall - a.began_wall for a, b in zip(marks, marks[1:]))
    stale = sum(phase.stale_reads for phase in warm + timed)
    values = {
        "setup_s": statistics.median(setups),
        "queries_per_s": means["queries_per_s"],
        "query_mean_ms": means["query_ms"],
        "tuples_per_s": means["tuples_per_s"],
        "first_batch_mean_ms": means["first_batch_ms"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {
        "attempted": attempted,
        "failed": failed + len(problems) + len(leaks),
        "values": values,
        "detail": {
            "samples": len(latencies),
            "query_p50_ms": statistics.median(latencies) * 1e3,
            "query_p99_ms": percentile(latencies, 0.99) * 1e3,
            "blocks": len(marks) - 1,
            # What the normalization took out: the plain wall-clock rate,
            # the share of the blocks' wall time the program was not on
            # the CPU (stolen by the host, or idle), the yardstick's median.
            "wall_queries_per_s": (len(marks) - 1) * workload.clients * workload.block_ops / in_blocks,
            "off_cpu_fraction": 1.0 - on_cpu / in_blocks,
            "yardstick_ms": statistics.median(mark.yardstick for mark in marks) * 1e3,
            "failed_fraction": failed / attempted,
            "stale_reads": stale,
            "reads_after_write": sum(p.reads_after_write for p in warm + timed),
            "setups_s": setups,
            "distinct_queries_checksummed": sum(len(c.first_seen) for c in clients),
            "errors": errors[:10],
        },
    }


def run_traced(workload, seed: int, seconds: float) -> dict:
    """The per-layer run: an untraced pass, then the traced replay."""
    from harness import (
        Client, System, oracle_expected, pin_to_one_cpu, run_phase, verify_answers,
    )
    from layers import layer_metrics, write_trace
    from tracing import Recorder, Shims
    from workloads import REFERENCE_SECONDS

    def whole_blocks(ops: int) -> int:
        """``ops`` scaled to ``seconds``, in whole blocks: both passes then
        run the same mix of operations."""
        blocks = round(ops * seconds / REFERENCE_SECONDS / workload.block_ops)
        return max(1, blocks) * workload.block_ops

    baseline_ops = whole_blocks(workload.baseline_ops)
    traced_ops = whole_blocks(workload.traced_ops)
    pin_to_one_cpu()
    expected = oracle_expected(workload, seed)
    recorder = Recorder()
    shims = Shims(recorder)
    system = System(workload, seed, recorder)
    try:
        clients = [
            Client(system, index, seed, expected, recorder)
            for index in range(workload.clients)
        ]
        # Not baseline samples: the first op, or the workload's cache fill.
        cold = run_phase(clients, lambda done: done >= max(1, workload.fill_ops))
        baseline = run_phase(clients, lambda done: done >= baseline_ops)
        before = _counters(system)
        shims.install()
        try:
            for client in clients:
                client.traced = True
            traced = run_phase(clients, lambda done: done >= traced_ops)
        finally:
            shims.remove()
        after = _counters(system)
        problems = verify_answers(workload, seed, clients, traced, expected)
        values, detail, records = layer_metrics(
            system, baseline, traced, recorder.take_orphans(), before, after
        )
    finally:
        leaks = system.close()
    OUT_DIR.mkdir(exist_ok=True)
    write_trace(OUT_DIR / f"trace-{workload.name}.jsonl", records)
    phases = cold + baseline + traced
    attempted = sum(phase.attempted for phase in phases)
    failed = sum(phase.failed for phase in phases)
    errors = [error for phase in phases for error in phase.errors]
    errors += problems + [f"leaked thread {name}" for name in leaks]
    detail.update(
        failed_fraction=failed / attempted,
        stale_reads=sum(phase.stale_reads for phase in phases),
        shims_missing=shims.missing,
        errors=errors[:10],
    )
    return {
        "attempted": attempted,
        "failed": failed + len(problems) + len(leaks),
        "values": values,
        "detail": detail,
    }


def _counters(system) -> dict:
    """Counts taken at the boundaries of the traced pass."""
    federation = system.federation
    cache = federation.cache.stats()
    transports = federation.stats().remote_transports.values()
    return {
        "shipped": system.tuples_shipped(),
        "evictions": cache.evictions,
        "invalidated": cache.invalidated,
        "invalidations": cache.invalidations,
        "retries": sum(stats.retries for stats in transports),
        "timeouts": sum(stats.timeouts for stats in transports),
    }


def run_one(spec: dict, name: str, seed: int, seconds: float, trace: int) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    outcome = (run_traced if trace else run_untraced)(workload, seed, seconds)
    units = {
        metric["name"]: metric["unit"]
        for metric in spec["per_layer" if trace else "end_to_end"]
    }
    missing = sorted(set(units) - set(outcome["values"]))
    if missing:
        raise SystemExit(f"{name}: declared metrics not produced: {missing}")
    samples = outcome["detail"].get("samples", 0)
    print(f"# {name} seed={seed} seconds={seconds:g} trace={trace}")
    for metric, unit in units.items():
        print(f"{metric:42s} {outcome['values'][metric]:16.6f} {unit:8s} n={samples}")
    # End-to-end metrics BENCHMARK.json's format cannot hold (metrics.json).
    extras = {"failed_fraction": "fraction", "stale_reads": "count"}
    if not trace:
        extras = {"query_p50_ms": "ms", "query_p99_ms": "ms", **extras}
    for metric, unit in extras.items():
        print(f"{metric:42s} {outcome['detail'][metric]:16.6f} {unit:8s} n={samples}")
    for target in outcome["detail"].get("shims_missing", ()):
        print(f"!! no such function to time, its layer reports 0: {target}")
    for error in outcome["detail"]["errors"]:
        print(f"!! {error}")
    print("detail: " + json.dumps(outcome["detail"]))
    correct = outcome["failed"] == 0 and outcome["detail"]["stale_reads"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": outcome["attempted"],
                "failed": outcome["failed"],
                "metrics": {
                    metric: {"value": outcome["values"][metric], "unit": unit}
                    for metric, unit in units.items()
                },
            }
        )
    )
    return 0 if correct else 1


# -- every workload, each in a fresh subprocess ----------------------------------


def _git_sha() -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() if completed.returncode == 0 else None


def run_all(names: Sequence[str], seed: int, seconds: float, runs: int, out: Path) -> int:
    nproc = os.cpu_count() or 1
    environment = {
        "nproc": nproc,
        "python": platform.python_version(),
        "git_sha": _git_sha(),
        "loadavg_start": os.getloadavg(),
    }
    results = []
    status = 0
    for _ in range(runs):
        for name in names:
            for trace in (0, 1):
                completed = subprocess.run(
                    [
                        sys.executable, str(HERE / "run.py"), "--workload", name,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                    ],
                    capture_output=True, text=True, timeout=600,
                )
                sys.stdout.write(completed.stdout)
                sys.stderr.write(completed.stderr)
                lines = completed.stdout.splitlines()
                if completed.returncode != 0:
                    status = 1
                if lines and lines[-1].startswith("{"):
                    entry = json.loads(lines[-1])
                else:  # died without a result: one failed op, no metrics
                    status = 1
                    entry = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
                detail = [line for line in lines if line.startswith("detail: ")]
                entry.update(
                    workload=name, trace=trace, seed=seed, returncode=completed.returncode,
                    detail=json.loads(detail[-1][len("detail: "):]) if detail else {},
                )
                results.append(entry)
    environment["loadavg_end"] = os.getloadavg()
    busiest = max(environment["loadavg_start"][0], environment["loadavg_end"][0])
    if busiest > nproc:
        print(f"warning: load average {busiest:.2f} exceeds nproc={nproc}; timings are suspect")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(
        json.dumps(
            {"environment": environment, "seed": seed, "seconds": seconds, "runs": results},
            indent=1,
        )
    )
    print(f"wrote {out}")
    return status


def main(argv: Optional[Sequence[str]] = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    spec = load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="run one workload in this process, untraced (0) or traced (1)")
    parser.add_argument("--smoke", action="store_true", help="1 s per workload")
    parser.add_argument("--runs", type=int, default=1, help="repeat every run this often")
    parser.add_argument("--out", type=Path, default=OUT_DIR / "result.json")
    args = parser.parse_args(argv)
    seconds = 1.0 if args.smoke else args.seconds
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        sys.path[:0] = [str(ROOT / "src"), str(HERE)]
        return run_one(spec, args.workload, args.seed, seconds, args.trace)
    selected = [args.workload] if args.workload else names
    return run_all(selected, args.seed, seconds, args.runs, args.out)


if __name__ == "__main__":
    sys.exit(main())
